package dist

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/sim"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

// fig2 builds the paper's Fig. 2 triangle: A→B→C plus the chord A→C,
// every channel with capacity buf.
func fig2(buf int) (*graph.Graph, graph.EdgeID) {
	g := graph.New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	c := g.AddNode("C")
	g.AddEdge(a, b, buf)
	g.AddEdge(b, c, buf)
	ac := g.AddEdge(a, c, buf)
	return g, ac
}

// routeKernels mirrors the root package's RouteKernels: forward the first
// present payload (the sequence number at the source) on the out-edges
// the filter selects.
func routeKernels(g *graph.Graph, f workload.FilterFunc) map[graph.NodeID]stream.Kernel {
	ks := make(map[graph.NodeID]stream.Kernel, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		out := g.Out(id)
		ks[id] = stream.KernelFunc(func(seq uint64, in []stream.Input) map[int]any {
			var payload any = seq
			for _, i := range in {
				if i.Present {
					payload = i.Payload
					break
				}
			}
			outs := make(map[int]any, len(out))
			for i, e := range out {
				if f(id, seq, e) {
					outs[i] = payload
				}
			}
			return outs
		})
	}
	return ks
}

// runOnce is the lifecycle every single-stream test here drives: engine
// up over the partition's workers, one session of the sequence numbers
// 0..inputs-1, Wait, engine down.
func runOnce(g *graph.Graph, part Partition, kernels map[graph.NodeID]stream.Kernel, cfg Config, inputs uint64) (*Stats, error) {
	eng, err := NewEngine(g, part, kernels, cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ses, err := eng.Open(SessionIO{ID: 1, Source: stream.SyntheticSource(inputs)})
	if err != nil {
		return nil, err
	}
	return ses.Wait()
}

// assertMatchesSim checks a session's per-edge data and dummy counts and
// its sink total against the deterministic simulator's.
func assertMatchesSim(t *testing.T, g *graph.Graph, stats *Stats, oracle *sim.Result) {
	t.Helper()
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		if stats.Data[e] != oracle.DataMsgs[e] {
			t.Errorf("edge %d: %d data msgs over TCP, simulator says %d", e, stats.Data[e], oracle.DataMsgs[e])
		}
		if stats.Dummies[e] != oracle.DummyMsgs[e] {
			t.Errorf("edge %d: %d dummies over TCP, simulator says %d", e, stats.Dummies[e], oracle.DummyMsgs[e])
		}
	}
	if stats.SinkData != oracle.SinkData {
		t.Errorf("sink consumed %d data msgs, simulator says %d", stats.SinkData, oracle.SinkData)
	}
}

// TestFig2DeadlockWithoutIntervals reproduces the paper's Fig. 2 failure
// over loopback TCP: with A starving the chord A→C and no dummy
// intervals, the join wedges — as the simulator says it must — and the
// watchdog fires.
func TestFig2DeadlockWithoutIntervals(t *testing.T) {
	g, ac := fig2(2)
	part := Partition{g.MustNode("A"): "splitter", g.MustNode("B"): "backend", g.MustNode("C"): "backend"}
	filter := workload.DropEdge(ac)
	const inputs = 1000
	if oracle := sim.Run(g, sim.Filter(filter), sim.Config{Inputs: inputs}); oracle.Completed {
		t.Fatal("simulator completed; want deadlock")
	}
	_, err := runOnce(g, part, routeKernels(g, filter), Config{WatchdogTimeout: 300 * time.Millisecond}, inputs)
	if err == nil {
		t.Fatal("session completed; want deadlock")
	}
	var derr *stream.DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("no DeadlockError; got %v", err)
	}
}

// TestFig2CompletesWithPropagation runs the same adversarial filtering
// with Propagation intervals: the run completes, and the per-edge
// traffic matches the deterministic simulator exactly — the two backends
// share one protocol engine, so their message counts must agree.
func TestFig2CompletesWithPropagation(t *testing.T) {
	g, ac := fig2(2)
	dec, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := dec.Intervals(cs4.Propagation)
	if err != nil {
		t.Fatal(err)
	}
	const inputs = 2000
	filter := workload.DropEdge(ac)
	part := Partition{g.MustNode("A"): "splitter", g.MustNode("B"): "backend", g.MustNode("C"): "backend"}
	oracle := sim.Run(g, sim.Filter(filter), sim.Config{
		Inputs:    inputs,
		Algorithm: cs4.Propagation,
		Intervals: iv,
	})
	if !oracle.Completed {
		t.Fatalf("simulator deadlocked: %v", oracle.Blocked)
	}
	stats, err := runOnce(g, part, routeKernels(g, filter), Config{
		Algorithm:       cs4.Propagation,
		Intervals:       iv,
		WatchdogTimeout: 5 * time.Second,
	}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSim(t, g, stats, oracle)
	if stats.SinkData != inputs {
		t.Errorf("sink consumed %d data msgs, want %d (nothing is filtered on the surviving path)", stats.SinkData, inputs)
	}
}

// TestThreeWorkerPartition splits a diamond across three workers, with
// cross edges in every direction of the partition graph.
func TestThreeWorkerPartition(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	l := g.AddNode("L")
	r := g.AddNode("R")
	k := g.AddNode("K")
	g.AddEdge(s, l, 2)
	g.AddEdge(s, r, 2)
	g.AddEdge(l, k, 2)
	g.AddEdge(r, k, 2)
	part := Partition{s: "w0", l: "w1", r: "w2", k: "w0"}
	oracle := sim.Run(g, sim.Filter(workload.PassAll), sim.Config{Inputs: 500})
	if !oracle.Completed {
		t.Fatalf("simulator deadlocked: %v", oracle.Blocked)
	}
	stats, err := runOnce(g, part, nil, Config{WatchdogTimeout: 5 * time.Second}, 500)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSim(t, g, stats, oracle)
	if stats.SinkData != 500 {
		t.Errorf("sink consumed %d, want 500", stats.SinkData)
	}
}

// TestFilteredSplitJoinSpansSplitAcrossFrames is where spans meet the
// wire: a filtering split/join over three workers with
// every edge — cross edges included — of capacity 8, so a node's 64-wide
// span cannot ship whole: it parks, and leaves as window-sized prefixes
// in separate run frames as credits come back.  Per-edge data and dummy
// counts and the sink's (seq, payload) sequence must equal the
// simulator's.
func TestFilteredSplitJoinSpansSplitAcrossFrames(t *testing.T) {
	const buf, branches, inputs = 8, 3, 3000
	g := graph.New()
	src, pre, split := g.AddNode("src"), g.AddNode("pre"), g.AddNode("split")
	join, snk := g.AddNode("join"), g.AddNode("snk")
	g.AddEdge(src, pre, buf)
	g.AddEdge(pre, split, buf)
	for i := 0; i < branches; i++ {
		b := g.AddNode(fmt.Sprintf("b%d", i))
		g.AddEdge(split, b, buf)
		g.AddEdge(b, join, buf)
	}
	g.AddEdge(join, snk, buf)
	part := Partition{}
	for n := 0; n < g.NumNodes(); n++ {
		part[graph.NodeID(n)] = fmt.Sprintf("w%d", n%3)
	}
	dec, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := dec.Intervals(cs4.Propagation)
	if err != nil {
		t.Fatal(err)
	}
	// Only the split filters: every other node is a vectorizing
	// passthrough whose spans the split's partial firings break.
	kernels := routeKernels(g, workload.Bernoulli(0.6, 11))
	for n := 0; n < g.NumNodes(); n++ {
		if id := graph.NodeID(n); id != split {
			kernels[id] = stream.Passthrough(g.OutDegree(id))
		}
	}
	type emission struct {
		seq     uint64
		payload any
	}
	record := func(into *[]emission) stream.SinkFunc {
		return func(_ context.Context, seq uint64, payload any) error {
			*into = append(*into, emission{seq, payload})
			return nil
		}
	}
	var want []emission
	oracle := sim.Run(g, nil, sim.Config{
		Kernels: kernels, Source: stream.SyntheticSource(inputs), Sink: record(&want),
		Algorithm: cs4.Propagation, Intervals: iv,
	})
	if !oracle.Completed {
		t.Fatalf("simulator: %s %v", oracle.Reason, oracle.Blocked)
	}

	m := graphMetrics(g)
	eng, err := NewEngine(g, part, kernels, Config{
		Algorithm: cs4.Propagation, Intervals: iv,
		WatchdogTimeout: 5 * time.Second, Obs: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var got []emission
	ses, err := eng.Open(SessionIO{ID: 1, Source: stream.SyntheticSource(inputs), Sink: record(&got)})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ses.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSim(t, g, stats, oracle)
	if len(got) != len(want) {
		t.Fatalf("%d sink emissions over TCP, simulator %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sink emission %d = %+v over TCP, simulator %+v", i, got[i], want[i])
		}
	}
	// The case only bites if spans formed and found their window short.
	snap := m.Snapshot()
	var spans, spanMsgs, stalls int64
	for _, n := range snap.Nodes {
		spans, spanMsgs = spans+n.Spans, spanMsgs+n.SpanMsgs
	}
	for _, e := range snap.Edges {
		stalls += e.CreditStalls
	}
	if spanMsgs <= spans || stalls == 0 {
		t.Errorf("%d messages in %d spans, %d credit stalls: spans never split across frames", spanMsgs, spans, stalls)
	}
}

// TestNewEngineValidation checks partition validation.
func TestNewEngineValidation(t *testing.T) {
	g, _ := fig2(2)
	full := Partition{g.MustNode("A"): "w", g.MustNode("B"): "w", g.MustNode("C"): "w"}
	if _, err := NewEngine(g, Partition{g.MustNode("A"): "w"}, nil, Config{}); err == nil {
		t.Error("partial partition accepted")
	}
	eng, err := NewEngine(g, full, nil, Config{})
	if err != nil {
		t.Fatalf("valid single-worker setup rejected: %v", err)
	}
	eng.Close()
}

// TestSingleWorkerNoPeers runs a whole topology on one worker: the
// distributed runtime degenerates to the in-process one.
func TestSingleWorkerNoPeers(t *testing.T) {
	g, ac := fig2(2)
	dec, _ := cs4.Classify(g)
	iv, _ := dec.Intervals(cs4.Propagation)
	part := Partition{g.MustNode("A"): "solo", g.MustNode("B"): "solo", g.MustNode("C"): "solo"}
	stats, err := runOnce(g, part, routeKernels(g, workload.DropEdge(ac)), Config{
		Algorithm: cs4.Propagation, Intervals: iv,
		WatchdogTimeout: 5 * time.Second,
	}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SinkData != 300 {
		t.Errorf("sink consumed %d, want 300", stats.SinkData)
	}
}
