package stream_test

// Batched hot-path tests at the transport level: the vectorized engine
// (Config.MaxBatch > 1) must be observably indistinguishable from the
// per-element engine — identical per-edge logical data/dummy counts and
// an identical sink (seq, payload) sequence — and must allocate O(1) per
// batch, not per message, on the full-mask fast path.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/sim"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

// engineRun drives one session over a fresh engine and returns its stats
// plus the exact sink delivery sequence.
func engineRun(t *testing.T, g *graph.Graph, kernels map[graph.NodeID]stream.Kernel, cfg stream.Config, inputs uint64) (*stream.Stats, []stream.Message) {
	t.Helper()
	eng, err := stream.NewEngine(g, kernels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var seen []stream.Message
	sink := func(_ context.Context, seq uint64, payload any) error {
		seen = append(seen, stream.Message{Seq: seq, Kind: stream.Data, Payload: payload})
		return nil
	}
	ses, err := eng.Open(stream.SessionConfig{ID: 1, Source: stream.SyntheticSource(inputs), Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ses.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return stats, seen
}

// TestEngineBatchedParity pins the batched engine bit-identical to the
// per-element one on a filtering workload that exercises the run-breaking
// fallback (dropped edges, dummy traffic, cascade).
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

// TestEngineNodeBatchOverride pins that NodeBatch overrides MaxBatch per
// node without changing the logical stream.
func TestEngineNodeBatchOverride(t *testing.T) {
	g := workload.Pipeline(4, 4)
	base := stream.Config{WatchdogTimeout: 5 * time.Second}
	const inputs = 500
	refStats, refSeen := engineRun(t, g, nil, base, inputs)

	cfg := base
	cfg.MaxBatch = 32
	cfg.NodeBatch = map[graph.NodeID]int{g.MustNode("s1"): 1, g.MustNode("s2"): 8}
	stats, seen := engineRun(t, g, nil, cfg, inputs)
	if stats.SinkData != refStats.SinkData {
		t.Fatalf("SinkData = %d, want %d", stats.SinkData, refStats.SinkData)
	}
	for e, want := range refStats.Data {
		if stats.Data[e] != want {
			t.Errorf("edge %d data = %d, want %d", e, stats.Data[e], want)
		}
	}
	if len(seen) != len(refSeen) {
		t.Fatalf("%d sink deliveries, want %d", len(seen), len(refSeen))
	}
	for i := range seen {
		if seen[i] != refSeen[i] {
			t.Fatalf("sink[%d] = %+v, want %+v", i, seen[i], refSeen[i])
		}
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

// TestBatchedAllocRegression is the allocation gate: at batch 64 the hot
// path must allocate O(1) per batch.  With 4096 messages per session over
// a 3-node chain, the per-element engine pays several allocations per
// message; the batched one must come in far below one per message.
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
	// Loose bound: well under one allocation per message (the batched
	// path allocates per span), while the per-element path is ≥ 2
	// (event queue slots, input slices) — and batch 64 must beat it.
	if per64 > 0.75 {
		t.Errorf("batch-64 hot path allocates %.3f per message; want O(1) per batch (< 0.75)", per64)
	}
	if per64 > per1/2 {
		t.Errorf("batch-64 allocates %.3f per message vs %.3f at batch 1; want at least a 2x reduction", per64, per1)
	}
}

// TestBatch1HopAllocBudget is the batch-1 allocation gate: a message
// crossing a 3-stage Passthrough chain at MaxBatch 1 — four hops, every
// kernel a SpanKernel — must cost at most one allocation per hop.  A
// batch-1 firing is a span of length one on node scratch, so the budget
// is generous; the Process path it replaced paid an input slice and an
// output map per node.
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
	var refSeen []stream.Message
	ref := sim.Run(g, nil, sim.Config{
		Algorithm: cs4.Propagation, Intervals: iv,
		Kernels: map[graph.NodeID]stream.Kernel{g.MustNode("B"): simK},
		Source:  stream.SyntheticSource(inputs),
		Sink: func(_ context.Context, seq uint64, payload any) error {
			refSeen = append(refSeen, stream.Message{Seq: seq, Kind: stream.Data, Payload: payload})
			return nil
		},
	})
	if !ref.Completed {
		t.Fatalf("simulator: %s", ref.Reason)
	}
	checkSeen("simulator", simK)
	if ref.TotalDummy() == 0 {
		t.Fatal("the filtering kernel produced no dummy traffic; the test would not notice a protocol change")
	}

	for _, batch := range []int{1, 64} {
		k := &thirdsKernel{}
		stats, seen := engineRun(t, g, map[graph.NodeID]stream.Kernel{g.MustNode("B"): k},
			stream.Config{Algorithm: cs4.Propagation, Intervals: iv, MaxBatch: batch, WatchdogTimeout: 5 * time.Second}, inputs)
		name := fmt.Sprintf("batch %d", batch)
		checkSeen(name, k)
		for _, e := range g.Edges() {
			if stats.Data[e.ID] != ref.DataMsgs[e.ID] || stats.Dummies[e.ID] != ref.DummyMsgs[e.ID] {
				t.Errorf("%s: edge %d carried %d data, %d dummies; the simulator %d, %d", name, e.ID,
					stats.Data[e.ID], stats.Dummies[e.ID], ref.DataMsgs[e.ID], ref.DummyMsgs[e.ID])
			}
		}
		if len(seen) != len(refSeen) {
			t.Fatalf("%s: %d sink deliveries, the simulator %d", name, len(seen), len(refSeen))
		}
		for i := range seen {
			if seen[i] != refSeen[i] {
				t.Fatalf("%s: sink[%d] = %+v, the simulator %+v", name, i, seen[i], refSeen[i])
			}
		}
	}
}
