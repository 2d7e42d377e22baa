package stream_test

// Batched hot-path tests at the transport level: the vectorized engine
// (Config.MaxBatch > 1) must be observably indistinguishable from the
// per-element engine — identical per-edge logical data/dummy counts and
// an identical sink (seq, payload) sequence — must stop at its out-edge
// windows like it, and must allocate per run, not per message.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/obs"
	"streamdag/internal/proto"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

// engineRun drives one session over a fresh engine and returns its stats
// plus the exact sink delivery sequence.
func engineRun(t *testing.T, g *graph.Graph, kernels map[graph.NodeID]stream.Kernel, cfg stream.Config, inputs uint64) (*stream.Stats, []stream.Message) {
	t.Helper()
	stats, seen, _, _ := stretchedRun(t, g, kernels, cfg, inputs)
	return stats, seen
}

// stretchedRun is engineRun, also returning the session's firings in dummy
// stretches at single- and multi-input nodes (stream.CountDummyRuns).
func stretchedRun(t *testing.T, g *graph.Graph, kernels map[graph.NodeID]stream.Kernel, cfg stream.Config, inputs uint64) (stats *stream.Stats, seen []stream.Message, single, multi int64) {
	t.Helper()
	eng, err := stream.NewEngine(g, kernels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stretched := stream.CountDummyRuns(eng)
	sink := func(_ context.Context, seq uint64, payload any) error {
		seen = append(seen, stream.Message{Seq: seq, Kind: stream.Data, Payload: payload})
		return nil
	}
	ses, err := eng.Open(stream.SessionConfig{ID: 1, Source: stream.SyntheticSource(inputs), Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if stats, err = ses.Wait(); err != nil {
		t.Fatal(err)
	}
	eng.Close() // every node has retired the session
	single, multi = stretched()
	return stats, seen, single, multi
}

// TestEngineBatchedParity pins the batched engine bit-identical to the
// per-element one on a filtering workload whose runs mix kinds (dropped
// edges, dummy traffic, cascade).
func TestEngineBatchedParity(t *testing.T) {
	g := workload.Fig2Triangle(2)
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := d.Intervals(cs4.Propagation)
	if err != nil {
		t.Fatal(err)
	}
	drop := workload.DropEdge(edgeByNames(t, g, "A", "C"))
	const inputs = 800
	base := stream.Config{Algorithm: cs4.Propagation, Intervals: iv, WatchdogTimeout: 5 * time.Second}

	refStats, refSeen := engineRun(t, g, filterKernels(g, drop), base, inputs)
	for _, batch := range []int{2, 16, 64} {
		cfg := base
		cfg.MaxBatch = batch
		stats, seen := engineRun(t, g, filterKernels(g, drop), cfg, inputs)
		if stats.SinkData != refStats.SinkData {
			t.Errorf("batch %d: SinkData = %d, want %d", batch, stats.SinkData, refStats.SinkData)
		}
		for e, want := range refStats.Data {
			if stats.Data[e] != want {
				t.Errorf("batch %d: edge %d data = %d, want %d", batch, e, stats.Data[e], want)
			}
		}
		for e, want := range refStats.Dummies {
			if stats.Dummies[e] != want {
				t.Errorf("batch %d: edge %d dummies = %d, want %d", batch, e, stats.Dummies[e], want)
			}
		}
		if len(seen) != len(refSeen) {
			t.Fatalf("batch %d: %d sink deliveries, want %d", batch, len(seen), len(refSeen))
		}
		for i := range seen {
			if seen[i] != refSeen[i] {
				t.Fatalf("batch %d: sink[%d] = %+v, want %+v", batch, i, seen[i], refSeen[i])
			}
		}
	}
}

// TestMixedRunAccountingByKind pins the send side's accounting of runs
// that carry data and dummies interleaved: on a 4-way split filtering
// each branch at p = 0.1, at batch 64, the Observer's per-edge data and
// dummy totals, the session's Stats and the simulator agree exactly —
// with windows of 64, where runs ship whole, and of 3, where nearly every
// pass ends in a firing that overflows a window and parks.
func TestMixedRunAccountingByKind(t *testing.T) {
	for _, buf := range []int{3, 64} {
		g := workload.SplitJoin(4, buf)
		filter := workload.SourceRouting(g.Source(), workload.Bernoulli(0.1, 1), workload.PassAll)
		d, err := cs4.Classify(g)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := d.Intervals(cs4.Propagation)
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]string, g.NumNodes())
		for i := range nodes {
			nodes[i] = g.Name(graph.NodeID(i))
		}
		edges := make([]string, g.NumEdges())
		for i, e := range g.Edges() {
			edges[i] = g.Name(e.From) + "→" + g.Name(e.To)
		}
		m := obs.New(nodes, edges)
		cfg := stream.Config{Algorithm: cs4.Propagation, Intervals: iv, MaxBatch: 64, Obs: m, WatchdogTimeout: 5 * time.Second}
		const inputs = 3000
		stats, seen := engineRun(t, g, filterKernels(g, filter), cfg, inputs)
		ref, refSeen := simRun(g, filterKernels(g, filter), cfg, inputs)
		if !ref.Completed {
			t.Fatalf("buf %d: simulator: %s", buf, ref.Reason)
		}
		if ref.TotalDummy() < inputs {
			t.Fatalf("buf %d: only %d dummies over %d inputs; the runs would not mix kinds", buf, ref.TotalDummy(), inputs)
		}
		requireMatchesSim(t, fmt.Sprintf("buf %d", buf), g, stats, seen, ref, refSeen)
		for i, e := range m.Snapshot().Edges {
			id := graph.EdgeID(i)
			if e.Data != stats.Data[id] || e.Dummies != stats.Dummies[id] || e.Depth != 0 {
				t.Errorf("buf %d: observer has edge %s at %d data, %d dummies, depth %d; Stats %d, %d, drained",
					buf, e.Name, e.Data, e.Dummies, e.Depth, stats.Data[id], stats.Dummies[id])
			}
		}
	}
}

// TestBatchedNodeStopsAtItsWindow pins that batching adds no buffering
// beyond the edge capacities: a node handed a long run fires only up to
// its out-edge window (plus the one firing whose send parks), exactly as
// it would per message.  A feeds X over a 64-deep channel, X feeds the
// join over a 2-deep one, and A starves its direct edge to the join with
// the protocol off — the paper's Fig. 2.  A first session holds X's
// goroutine inside a kernel call while the second queues 64 messages at
// X, so X's next advance sees them all at once.  Channels plus parked
// sends absorb 69 of the second session's 100 inputs, so it must wedge;
// a node that consumed the whole run ahead of its full window would have
// drained A, let EOS through and released the join.  At batch 1 a pass
// is still passWidth firings wide, so the same 64-wide pass meets the
// 2-deep window.
func TestBatchedNodeStopsAtItsWindow(t *testing.T) {
	for _, batch := range []int{1, 64} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) { nodeStopsAtItsWindow(t, batch) })
	}
}

func nodeStopsAtItsWindow(t *testing.T, batch int) {
	g := graph.New()
	a, x, j := g.AddNode("A"), g.AddNode("X"), g.AddNode("J")
	g.AddEdge(a, x, 64)
	g.AddEdge(x, j, 2)
	aj := g.AddEdge(a, j, 2)
	var fired atomic.Int64 // A's firings for the starving session
	held, release := make(chan struct{}), make(chan struct{})
	forward := func(id graph.NodeID) stream.Kernel {
		out := g.Out(id)
		return stream.KernelFunc(func(_ uint64, in []stream.Input) map[int]any {
			var payload any
			for _, i := range in {
				if i.Present {
					payload = i.Payload
					break
				}
			}
			if id == a && payload == "starve" {
				fired.Add(1)
			}
			if id == x && payload == "hold" {
				close(held)
				<-release
			}
			outs := make(map[int]any, len(out))
			for i, e := range out {
				if e != aj || payload != "starve" {
					outs[i] = payload
				}
			}
			return outs
		})
	}
	eng, err := stream.NewEngine(g, map[graph.NodeID]stream.Kernel{a: forward(a), x: forward(x), j: forward(j)},
		stream.Config{MaxBatch: batch, WatchdogTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	holder, err := eng.Open(stream.SessionConfig{ID: 1, Source: sliceSource([]any{"hold"})})
	if err != nil {
		t.Fatal(err)
	}
	<-held
	starved := make([]any, 100)
	for i := range starved {
		starved[i] = "starve"
	}
	ses, err := eng.Open(stream.SessionConfig{ID: 2, Source: sliceSource(starved)})
	if err != nil {
		t.Fatal(err)
	}
	// A fills the 64-deep window and parks one more send; X absorbs none
	// of it while its goroutine sits in the held kernel call.
	for deadline := time.Now().Add(5 * time.Second); fired.Load() < 65; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("A fired %d times against a held consumer, want 65", fired.Load())
		}
	}
	close(release)
	if _, err := holder.Wait(); err != nil {
		t.Fatalf("holding session: %v", err)
	}
	_, err = ses.Wait()
	var dl *stream.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("starved session returned %v after A fired %d of 100 inputs; want *stream.DeadlockError", err, fired.Load())
	}
	if n := fired.Load(); n != 68 {
		t.Errorf("A fired %d times before the wedge; per-message firing consumes exactly 68", n)
	}
}

// reuseKernel forwards its input on every out-edge through a reused map,
// so the kernel itself allocates nothing per element — what the batched
// hot path's O(1)-allocs-per-batch guarantee is measured against.
type reuseKernel struct {
	outs map[int]any
	n    int
}

func (k *reuseKernel) Process(_ uint64, in []stream.Input) map[int]any {
	var p any
	if len(in) > 0 {
		p = in[0].Payload
	}
	for i := 0; i < k.n; i++ {
		k.outs[i] = p
	}
	return k.outs
}

func benchEngineBatch(b *testing.B, batch int) {
	g := workload.Pipeline(3, 64)
	kernels := make(map[graph.NodeID]stream.Kernel, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		kernels[id] = &reuseKernel{outs: make(map[int]any, g.OutDegree(id)), n: g.OutDegree(id)}
	}
	benchEngine(b, g, kernels, batch)
}

// benchPerOp is how many messages one benchEngine iteration streams.
const benchPerOp = 4096

// benchEngine streams one session of benchPerOp messages per iteration
// over a resident engine for g.
func benchEngine(b *testing.B, g *graph.Graph, kernels map[graph.NodeID]stream.Kernel, batch int) {
	eng, err := stream.NewEngine(g, kernels, stream.Config{MaxBatch: batch, WatchdogTimeout: 5 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	// Small-int payloads (< 256) box without allocating, so every
	// measured allocation belongs to the transport, not fmt/boxing.
	src := func(n uint64) stream.SourceFunc {
		var next uint64
		return func(context.Context) (any, bool, error) {
			if next >= n {
				return nil, false, nil
			}
			v := next % 200
			next++
			return v, true, nil
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ses, err := eng.Open(stream.SessionConfig{ID: proto.SessionID(i + 1), Source: src(benchPerOp)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ses.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineBatch1(b *testing.B)  { benchEngineBatch(b, 1) }
func BenchmarkEngineBatch64(b *testing.B) { benchEngineBatch(b, 64) }

// TestBatchedAllocRegression is the allocation gate for kernels that only
// have Process: with 4096 messages per session over a 3-node chain of
// map-reusing kernels, the transport must come in far below one
// allocation per message at batch 64 and at batch 1.
func TestBatchedAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark")
	}
	res64 := testing.Benchmark(BenchmarkEngineBatch64)
	res1 := testing.Benchmark(BenchmarkEngineBatch1)
	const perOp = float64(benchPerOp)
	per64 := float64(res64.AllocsPerOp()) / perOp
	per1 := float64(res1.AllocsPerOp()) / perOp
	t.Logf("allocs per message: batch64 = %.3f, batch1 = %.3f", per64, per1)
	// Loose bound: well under one allocation per message at both widths.
	// A map-returning kernel is adapted once at NewEngine and its input
	// slice is node scratch at every width, so batch 1 no longer pays per
	// message either; what is left is per run (pooled) and per session.
	for name, per := range map[string]float64{"batch-64": per64, "batch-1": per1} {
		if per > 0.75 {
			t.Errorf("%s hot path allocates %.3f per message; want well under one (< 0.75)", name, per)
		}
	}
}

// TestBatch1HopAllocBudget is the batch-1 allocation gate of the hop
// itself: a message crossing a 3-stage Passthrough chain at MaxBatch 1 —
// four hops, every kernel a SpanKernel — must cost at most one allocation
// per hop.  A batch-1 firing is a span of length one on node scratch and
// Passthrough makes no payload, so a hop reads ≈ 0.001 and the budget is
// generous; the Process path it replaced paid an input slice and an
// output map per node.  Payload boxes are not a per-hop cost either: a
// Flow Map boxes into its node's arena at batch 1 as at any width (the
// root package's TestBatch1MapAllocBudget).
func TestBatch1HopAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark")
	}
	const hops = 4
	res := testing.Benchmark(func(b *testing.B) {
		benchEngine(b, workload.Pipeline(hops+1, 64), nil, 1)
	})
	perHop := float64(res.AllocsPerOp()) / benchPerOp / hops
	t.Logf("batch-1 allocations per message per hop: %.3f", perHop)
	if perHop > 1 {
		t.Errorf("a batch-1 hop allocates %.2f times per message; want at most 1", perHop)
	}
}

// spanRecorder is a passthrough SpanKernel that records the longest span
// it was offered and how many elements it processed.  Only its node's
// goroutine calls it.
type spanRecorder struct {
	longest, msgs atomic.Int64
}

func (k *spanRecorder) Process(_ uint64, in []stream.Input) map[int]any {
	k.msgs.Add(1)
	return map[int]any{0: in[0].Payload}
}

func (k *spanRecorder) ProcessSpan(_ uint64, in, out []any) int {
	if n := int64(len(in)); n > k.longest.Load() {
		k.longest.Store(n)
	}
	k.msgs.Add(int64(len(in)))
	copy(out, in)
	return len(in)
}

// loopCarrier carries the cross edges of an engine that holds both ends
// of each: it hands every run and every credit straight back to the
// engine, counting the runs — one per send, whatever the run's length.
type loopCarrier struct {
	e    *stream.Engine
	runs atomic.Int64
}

func (c *loopCarrier) Run(sid proto.SessionID, edge graph.EdgeID, run []stream.Message) error {
	c.runs.Add(1)
	return c.e.Deliver(sid, edge, run)
}

func (c *loopCarrier) Credit(sid proto.SessionID, edge graph.EdgeID, consumed uint64) {
	c.e.Credit(sid, edge, consumed)
}

// TestBatch1PassShipsRuns pins what batch means: the span a kernel call
// takes, not the run a pass ships.  A batch-1 chain's nodes each offer
// their SpanKernel one element at a time, yet a pass takes up to
// passWidth firings and sends them as one run per out-edge, so the chain
// sends far fewer runs than it carries messages — one per message and
// hop is what a one-firing pass would make.  Every edge is a cross edge
// on a loopCarrier, which counts the sends; a send is the same call on a
// local edge, a ring publish.
func TestBatch1PassShipsRuns(t *testing.T) {
	const inputs, hops = 20000, 4
	g := workload.Pipeline(hops+1, 256)
	ks := make(map[graph.NodeID]stream.Kernel, hops)
	recs := make([]*spanRecorder, hops)
	for i := range recs {
		recs[i] = &spanRecorder{}
		ks[graph.NodeID(i)] = recs[i]
	}
	loop := &loopCarrier{}
	cross := make(map[graph.EdgeID]stream.CrossEdge, hops)
	for _, ed := range g.Edges() {
		cross[ed.ID] = stream.CrossEdge{Msgs: loop, Credits: loop}
	}
	eng, err := stream.NewEngine(g, ks, stream.Config{MaxBatch: 1, Cross: cross, WatchdogTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	loop.e = eng
	ses, err := eng.Open(stream.SessionConfig{ID: 1, Source: stream.SyntheticSource(inputs),
		Sink: func(context.Context, uint64, any) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Wait(); err != nil {
		t.Fatal(err)
	}
	eng.Close() // every node is through with the session
	for i, k := range recs {
		if l, m := k.longest.Load(), k.msgs.Load(); l != 1 || m != inputs {
			t.Errorf("node %d: longest span %d over %d elements; want spans of 1 over %d", i, l, m, inputs)
		}
	}
	sends := loop.runs.Load()
	t.Logf("%d messages over %d hops took %d sends", inputs, hops, sends)
	if sends >= inputs/8 {
		t.Errorf("%d sends for %d messages over %d hops; want fewer than %d", sends, inputs, hops, inputs/8)
	}
}

// thirdsKernel is a stateful SpanKernel that declines every third
// element it is offered: ProcessSpan maps elements to a value carrying
// the running count and stops at the third, which Process then filters.
// It records every element it processes, on either path.
type thirdsKernel struct {
	n    uint64
	seen []uint64
}

func (k *thirdsKernel) Process(seq uint64, in []stream.Input) map[int]any {
	k.n++
	k.seen = append(k.seen, seq)
	if k.n%3 == 0 {
		return nil
	}
	return map[int]any{0: in[0].Payload.(uint64)*1000 + k.n}
}

func (k *thirdsKernel) ProcessSpan(seq0 uint64, in, out []any) int {
	for j, p := range in {
		if (k.n+1)%3 == 0 {
			return j
		}
		k.n++
		k.seen = append(k.seen, seq0+uint64(j))
		out[j] = p.(uint64)*1000 + k.n
	}
	return len(in)
}

// TestDecliningSpanKernelParity pins the span-of-one contract: a stateful
// SpanKernel that declines every third element sees each element exactly
// once, in order, at batch 1 as at batch 64, and the filtering it does on
// the declined elements yields the same per-edge data and dummy counts
// and the same sink sequence on both — and on the simulator.
func TestDecliningSpanKernelParity(t *testing.T) {
	g := workload.Fig1SplitJoin(2)
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := d.Intervals(cs4.Propagation)
	if err != nil {
		t.Fatal(err)
	}
	const inputs = 600
	checkSeen := func(name string, k *thirdsKernel) {
		t.Helper()
		if len(k.seen) != inputs {
			t.Fatalf("%s: kernel processed %d elements, want %d", name, len(k.seen), inputs)
		}
		for i, seq := range k.seen {
			if seq != uint64(i) {
				t.Fatalf("%s: element %d processed at position %d", name, seq, i)
			}
		}
	}

	simK := &thirdsKernel{}
	cfg := stream.Config{Algorithm: cs4.Propagation, Intervals: iv, WatchdogTimeout: 5 * time.Second}
	ref, refSeen := simRun(g, map[graph.NodeID]stream.Kernel{g.MustNode("B"): simK}, cfg, inputs)
	if !ref.Completed {
		t.Fatalf("simulator: %s", ref.Reason)
	}
	checkSeen("simulator", simK)
	if ref.TotalDummy() == 0 {
		t.Fatal("the filtering kernel produced no dummy traffic; the test would not notice a protocol change")
	}

	for _, batch := range []int{1, 64} {
		k := &thirdsKernel{}
		cfg.MaxBatch = batch
		stats, seen := engineRun(t, g, map[graph.NodeID]stream.Kernel{g.MustNode("B"): k}, cfg, inputs)
		name := fmt.Sprintf("batch %d", batch)
		checkSeen(name, k)
		requireMatchesSim(t, name, g, stats, seen, ref, refSeen)
	}
}

// spanCall is one kernel call a spanTrace took: a ProcessSpan over n
// elements from seq, or, with n < 0, a ProcessInto firing at seq.
type spanCall struct {
	seq uint64
	n   int
}

// spanTrace is a SpanKernel that adds one to every payload and declines
// every element whose sequence number is 6 mod 7, which then fires
// through ProcessInto.  It records every call it takes, in order.  Only
// its node's goroutine calls it.
type spanTrace struct{ calls []spanCall }

func spanTraceDeclines(seq uint64) bool { return seq%7 == 6 }

func (k *spanTrace) Process(seq uint64, in []stream.Input) map[int]any {
	return stream.MapForm(k, 1, seq, in)
}

func (k *spanTrace) ProcessInto(seq uint64, in []stream.Input, out []any, present []bool) {
	k.calls = append(k.calls, spanCall{seq, -1})
	out[0], present[0] = in[0].Payload.(uint64)+1, true
}

func (k *spanTrace) ProcessSpan(seq0 uint64, in, out []any) int {
	k.calls = append(k.calls, spanCall{seq0, len(in)})
	for j, p := range in {
		if spanTraceDeclines(seq0 + uint64(j)) {
			return j
		}
		out[j] = p.(uint64) + 1
	}
	return len(in)
}

// checkSpanTrace replays a node's calls against the span contract: the
// kernel is offered every element first in a ProcessSpan call no longer
// than the batch, the calls contiguous and in order; a call that declines
// is followed at once by the ProcessInto firing of the declined element,
// and the next call starts after it.  It returns the number of
// ProcessSpan calls.
func checkSpanTrace(t *testing.T, name string, calls []spanCall, batch int, inputs uint64) (spans int) {
	t.Helper()
	var next uint64
	for i := 0; i < len(calls); i++ {
		c := calls[i]
		if c.n < 0 || c.seq != next || c.n > batch {
			t.Fatalf("%s: call %d is %+v; want a ProcessSpan from %d of 1 to %d elements", name, i, c, next, batch)
		}
		spans++
		took := c.n
		for j := 0; j < c.n; j++ {
			if spanTraceDeclines(c.seq + uint64(j)) {
				took = j
				break
			}
		}
		if next += uint64(took); took == c.n {
			continue
		}
		if i++; i == len(calls) || calls[i] != (spanCall{next, -1}) {
			t.Fatalf("%s: the call after %+v is not the ProcessInto firing at %d", name, c, next)
		}
		next++
	}
	if next != inputs {
		t.Fatalf("%s: the kernel took %d elements, want %d", name, next, inputs)
	}
	return spans
}

// TestSpanCallsAtMostABatch pins what a pass hands its kernel: however
// long the stretch of data firings a pass stages, each ProcessSpan call
// takes at most a batch of it, in order, and a decline ends the stretch
// at the declined element, which fires alone.  Every node of a 5-stage
// pipeline runs a spanTrace at batch 1, 3 and 64; the windows of 5 cut
// the stretches short of a pass.  At batch 1 every element is a call of
// its own.  The observer's Spans counts the ProcessSpan calls, and the
// per-edge counts and the sink sequence are the simulator's.
func TestSpanCallsAtMostABatch(t *testing.T) {
	const inputs, nodes = 2000, 5
	g := workload.Pipeline(nodes, 5)
	traced := func() ([]*spanTrace, map[graph.NodeID]stream.Kernel) {
		ks := make([]*spanTrace, nodes)
		m := make(map[graph.NodeID]stream.Kernel, nodes)
		for i := range ks {
			ks[i] = &spanTrace{}
			m[graph.NodeID(i)] = ks[i]
		}
		return ks, m
	}
	_, simKs := traced()
	ref, refSeen := simRun(g, simKs, stream.Config{}, inputs)
	if !ref.Completed {
		t.Fatalf("simulator: %s", ref.Reason)
	}
	names := make([]string, nodes)
	for i := range names {
		names[i] = g.Name(graph.NodeID(i))
	}
	for _, batch := range []int{1, 3, 64} {
		ks, kernels := traced()
		m := obs.New(names, make([]string, g.NumEdges()))
		cfg := stream.Config{MaxBatch: batch, Obs: m, WatchdogTimeout: 10 * time.Second}
		stats, seen := engineRun(t, g, kernels, cfg, inputs)
		label := fmt.Sprintf("batch %d", batch)
		requireMatchesSim(t, label, g, stats, seen, ref, refSeen)
		snap := m.Snapshot()
		for i, k := range ks {
			name := fmt.Sprintf("%s, node %s", label, names[i])
			spans := checkSpanTrace(t, name, k.calls, batch, inputs)
			if batch == 1 && spans != inputs {
				t.Errorf("%s: %d ProcessSpan calls over %d elements; want one each", name, spans, inputs)
			}
			if got := snap.Nodes[i].Spans; got != int64(spans) {
				t.Errorf("%s: the observer counts %d spans; the kernel took %d calls", name, got, spans)
			}
		}
	}
}
