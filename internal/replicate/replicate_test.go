package replicate

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/ival"
	"streamdag/internal/sim"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

// runOnce streams the sequence numbers 0..inputs-1 through one session
// of a goroutine engine: engine up, one Open, Wait, engine down.
func runOnce(g *graph.Graph, ks map[graph.NodeID]stream.Kernel, cfg stream.Config, inputs uint64) (*stream.Stats, error) {
	eng, err := stream.NewEngine(g, ks, cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ses, err := eng.Open(stream.SessionConfig{ID: 1, Source: stream.SyntheticSource(inputs)})
	if err != nil {
		return nil, err
	}
	return ses.Wait()
}

// pipeline builds src → work → snk with uniform buffers.
func pipeline(buf int) *graph.Graph {
	g := graph.New()
	s := g.AddNode("src")
	w := g.AddNode("work")
	k := g.AddNode("snk")
	g.AddEdge(s, w, buf)
	g.AddEdge(w, k, buf)
	return g
}

func TestApplyStructure(t *testing.T) {
	g := workload.Fig2Triangle(3)
	b := g.MustNode("B")
	r, err := Apply(g, Plan{b: 3})
	if err != nil {
		t.Fatal(err)
	}
	ng := r.Graph()
	// A, C, B.split, B.1..3, B.merge
	if ng.NumNodes() != 7 {
		t.Fatalf("nodes = %d, want 7", ng.NumNodes())
	}
	// 3 split + 3 merge diamond edges, plus the 3 original edges.
	if ng.NumEdges() != 9 {
		t.Fatalf("edges = %d, want 9", ng.NumEdges())
	}
	for _, name := range []string{"A", "C", "B.split", "B.1", "B.2", "B.3", "B.merge"} {
		if _, ok := ng.NodeByName(name); !ok {
			t.Errorf("missing node %q", name)
		}
	}
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	// Replicas and terminals of the group.
	reps := r.Replicas(b)
	if len(reps) != 3 {
		t.Fatalf("replicas = %v", reps)
	}
	// Every original edge survives with its buffer, re-routed around the
	// diamond; diamond edges inherit the largest adjacent buffer.
	for _, e := range g.Edges() {
		ne := ng.Edge(r.NewEdge(e.ID))
		if ne.Buf != e.Buf {
			t.Errorf("edge %d buffer %d → %d", e.ID, e.Buf, ne.Buf)
		}
		if oe, ok := r.OriginalEdge(ne.ID); !ok || oe != e.ID {
			t.Errorf("OriginalEdge(%d) = %d, %v", ne.ID, oe, ok)
		}
	}
	sp := ng.MustNode("B.split")
	for _, e := range ng.Out(sp) {
		if ng.Edge(e).Buf != 3 {
			t.Errorf("diamond edge buffer = %d, want 3", ng.Edge(e).Buf)
		}
		if _, ok := r.OriginalEdge(e); ok {
			t.Errorf("diamond edge %d claims an original edge", e)
		}
	}
}

func TestApplyIdentity(t *testing.T) {
	g := workload.Fig1SplitJoin(2)
	for _, plan := range []Plan{nil, {}, {g.MustNode("B"): 1}} {
		r, err := Apply(g, plan)
		if err != nil {
			t.Fatal(err)
		}
		if r.Graph().NumNodes() != g.NumNodes() || r.Graph().NumEdges() != g.NumEdges() {
			t.Fatalf("identity plan %v changed the graph", plan)
		}
		if reps := r.Replicas(g.MustNode("B")); len(reps) != 1 {
			t.Errorf("identity Replicas = %v", reps)
		}
	}
}

func TestApplyRejections(t *testing.T) {
	g := workload.Fig2Triangle(2)
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"source", Plan{g.MustNode("A"): 2}, "unique source"},
		{"sink", Plan{g.MustNode("C"): 2}, "unique sink"},
		{"zero", Plan{g.MustNode("B"): 0}, "replica count"},
		{"negative", Plan{g.MustNode("B"): -2}, "replica count"},
		{"unknown", Plan{graph.NodeID(99): 2}, "unknown node"},
	}
	for _, c := range cases {
		_, err := Apply(g, c.plan)
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !contains(err.Error(), c.want) {
			t.Errorf("%s: error %q lacks %q", c.name, err, c.want)
		}
	}

	// Synthetic-name collision.
	gc := graph.New()
	a := gc.AddNode("A")
	b := gc.AddNode("B")
	gc.AddNode("B.split")
	c := gc.AddNode("C")
	gc.AddEdge(a, b, 2)
	gc.AddEdge(b, c, 2)
	gc.AddEdge(a, gc.MustNode("B.split"), 2)
	gc.AddEdge(gc.MustNode("B.split"), c, 2)
	if _, err := Apply(gc, Plan{b: 2}); err == nil || !contains(err.Error(), "collides") {
		t.Errorf("collision: err = %v", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestClassPreserved asserts the transform's safety claim: SP stays SP
// and CS4 stays CS4, so the polynomial interval algorithms still apply.
func TestClassPreserved(t *testing.T) {
	// SP: Fig. 1 split/join with both interior nodes replicated.
	g := workload.Fig1SplitJoin(4)
	r, err := Apply(g, Plan{g.MustNode("B"): 4, g.MustNode("C"): 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := cs4.Classify(r.Graph())
	if err != nil {
		t.Fatal(err)
	}
	if d.Class != cs4.ClassSP {
		t.Errorf("replicated Fig. 1 class = %v, want SP", d.Class)
	}

	// CS4: an SP-ladder composed serially with a pipeline stage; the
	// pipeline stage is replicated, the ladder untouched.
	lg := graph.New()
	names := []string{"X", "u1", "u2", "Y", "v1", "v2", "stage", "Z"}
	ids := map[string]graph.NodeID{}
	for _, n := range names {
		ids[n] = lg.AddNode(n)
	}
	for _, e := range [][2]string{
		{"X", "u1"}, {"u1", "u2"}, {"u2", "Y"},
		{"X", "v1"}, {"v1", "v2"}, {"v2", "Y"},
		{"u1", "v1"}, {"v2", "u2"},
		{"Y", "stage"}, {"stage", "Z"},
	} {
		lg.AddEdge(ids[e[0]], ids[e[1]], 2)
	}
	d0, err := cs4.Classify(lg)
	if err != nil {
		t.Fatal(err)
	}
	if d0.Class != cs4.ClassCS4 {
		t.Fatalf("base class = %v, want CS4", d0.Class)
	}
	r, err = Apply(lg, Plan{ids["stage"]: 3})
	if err != nil {
		t.Fatal(err)
	}
	d, err = cs4.Classify(r.Graph())
	if err != nil {
		t.Fatal(err)
	}
	if d.Class != cs4.ClassCS4 {
		t.Errorf("replicated ladder class = %v, want CS4", d.Class)
	}
}

// intervalsFor computes per-edge intervals on g for alg.
func intervalsFor(t *testing.T, g *graph.Graph, alg cs4.Algorithm) map[graph.EdgeID]ival.Interval {
	t.Helper()
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := d.Intervals(alg)
	if err != nil {
		t.Fatal(err)
	}
	return iv
}

// TestMergerCountEquivalence simulates original and replicated graphs
// under adversarial filter patterns and pins identical per-edge data
// counts and sink totals on every surviving edge — the ordered merger
// reproduces the replicated node's emissions exactly.
func TestMergerCountEquivalence(t *testing.T) {
	const inputs = 500
	g := workload.Fig1SplitJoin(3)
	b := g.MustNode("B")
	ab := g.Out(g.MustNode("A"))[0]

	filters := map[string]workload.FilterFunc{
		"passall":      workload.PassAll,
		"periodic3":    workload.Periodic(3),
		"drop-AB":      workload.DropEdge(ab),
		"bursty":       workload.Bursty(5, 11, 7),
		"per-input-1%": workload.PerInputBernoulli(0.01, 99),
		"starve-B":     func(n graph.NodeID, _ uint64, _ graph.EdgeID) bool { return n != b },
	}
	for name, f := range filters {
		for _, k := range []int{2, 3, 5} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				r, err := Apply(g, Plan{b: k})
				if err != nil {
					t.Fatal(err)
				}
				alg := cs4.NonPropagation
				base := sim.Run(g, sim.Filter(f), sim.Config{
					Inputs: inputs, Algorithm: alg,
					Intervals: intervalsFor(t, g, alg),
				})
				if !base.Completed {
					t.Fatalf("base simulation deadlocked: %v", base.Blocked)
				}
				rep := sim.Run(r.Graph(), sim.Filter(r.Filter(f)), sim.Config{
					Inputs: inputs, Algorithm: alg,
					Intervals: intervalsFor(t, r.Graph(), alg),
				})
				if !rep.Completed {
					t.Fatalf("replicated simulation deadlocked: %v", rep.Blocked)
				}
				for _, e := range g.Edges() {
					ne := r.NewEdge(e.ID)
					if base.DataMsgs[e.ID] != rep.DataMsgs[ne] {
						t.Errorf("%s→%s: base %d data msgs, replicated %d",
							g.Name(e.From), g.Name(e.To), base.DataMsgs[e.ID], rep.DataMsgs[ne])
					}
				}
				if base.SinkData != rep.SinkData {
					t.Errorf("sink: base %d, replicated %d", base.SinkData, rep.SinkData)
				}
			})
		}
	}
}

// TestMergerEmitsInSequenceOrder runs the goroutine runtime with bundled
// kernels whose replicas finish out of order (seq-dependent delays) and
// asserts the sink still observes strictly increasing sequence numbers:
// the merger's min-seq alignment re-serializes the replicas.
func TestMergerEmitsInSequenceOrder(t *testing.T) {
	const inputs = 300
	g := pipeline(2)
	work := g.MustNode("work")
	r, err := Apply(g, Plan{work: 4})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var seen []uint64
	orig := map[graph.NodeID]stream.Kernel{
		// work forwards its input after a delay that makes later replicas
		// finish before earlier ones.
		work: stream.KernelFunc(func(seq uint64, in []stream.Input) map[int]any {
			time.Sleep(time.Duration((seq%4)*50) * time.Microsecond)
			return map[int]any{0: in[0].Payload}
		}),
		g.MustNode("snk"): stream.KernelFunc(func(seq uint64, in []stream.Input) map[int]any {
			mu.Lock()
			seen = append(seen, seq)
			mu.Unlock()
			return nil
		}),
	}
	alg := cs4.Propagation
	_, err = runOnce(r.Graph(), r.Kernels(orig), stream.Config{
		Algorithm:       alg,
		Intervals:       intervalsFor(t, r.Graph(), alg),
		WatchdogTimeout: 5 * time.Second,
	}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != inputs {
		t.Fatalf("sink saw %d data firings, want %d", len(seen), inputs)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("sink order violated at %d: %d after %d", i, seen[i], seen[i-1])
		}
	}
}

// TestReplicatedRequiresProtocol documents the transform's contract: the
// round-robin splitter filters per-edge, so under upstream filtering the
// expanded graph deadlocks without dummy intervals (here Periodic(3)
// aligns with k = 3, routing every surviving input to one replica and
// starving the merger's other in-channels) and completes with them.
func TestReplicatedRequiresProtocol(t *testing.T) {
	g := pipeline(2)
	r, err := Apply(g, Plan{g.MustNode("work"): 3})
	if err != nil {
		t.Fatal(err)
	}
	f := sim.Filter(r.Filter(workload.Periodic(3)))
	res := sim.Run(r.Graph(), f, sim.Config{
		Inputs: 100, // no intervals: unsafe baseline
	})
	if res.Completed {
		t.Fatal("expected deadlock without intervals on a replicated topology")
	}
	if res.Reason != "deadlock" {
		t.Fatalf("reason = %q", res.Reason)
	}
	alg := cs4.NonPropagation
	protected := sim.Run(r.Graph(), f, sim.Config{
		Inputs: 100, Algorithm: alg,
		Intervals: intervalsFor(t, r.Graph(), alg),
	})
	if !protected.Completed {
		t.Fatalf("protected run deadlocked: %v", protected.Blocked)
	}
}

// TestKernelsBundleRoundTrip checks the bundled kernels against the
// mapped filter: running the expanded graph with Kernels() yields the
// same per-edge data counts as simulating it with Filter().
func TestKernelsBundleRoundTrip(t *testing.T) {
	const inputs = 400
	g := workload.Fig1SplitJoin(3)
	b := g.MustNode("B")
	f := workload.Periodic(2)
	r, err := Apply(g, Plan{b: 3})
	if err != nil {
		t.Fatal(err)
	}
	alg := cs4.NonPropagation
	iv := intervalsFor(t, r.Graph(), alg)

	simRes := sim.Run(r.Graph(), sim.Filter(r.Filter(f)), sim.Config{
		Inputs: inputs, Algorithm: alg, Intervals: iv,
	})
	if !simRes.Completed {
		t.Fatalf("sim deadlocked: %v", simRes.Blocked)
	}

	// Route-kernels on the ORIGINAL graph, mapped through the bundles.
	orig := make(map[graph.NodeID]stream.Kernel, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		out := g.Out(id)
		orig[id] = stream.KernelFunc(func(seq uint64, in []stream.Input) map[int]any {
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
	runRes, err := runOnce(r.Graph(), r.Kernels(orig), stream.Config{
		Algorithm: alg, Intervals: iv,
		WatchdogTimeout: 5 * time.Second,
	}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < r.Graph().NumEdges(); e++ {
		id := graph.EdgeID(e)
		if runRes.Data[id] != simRes.DataMsgs[id] {
			ed := r.Graph().Edge(id)
			t.Errorf("%s→%s: runtime %d data msgs, sim %d",
				r.Graph().Name(ed.From), r.Graph().Name(ed.To), runRes.Data[id], simRes.DataMsgs[id])
		}
	}
	if runRes.SinkData != simRes.SinkData {
		t.Errorf("sink: runtime %d, sim %d", runRes.SinkData, simRes.SinkData)
	}
}
