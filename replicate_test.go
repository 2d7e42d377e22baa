package streamdag

import (
	"testing"
	"time"
)

// fig1 is the paper's Fig. 1 split/join: A → {B, C} → D.
func fig1(t *testing.T) *Topology {
	t.Helper()
	topo := NewTopology()
	topo.Channel("A", "B", 4)
	topo.Channel("A", "C", 4)
	topo.Channel("B", "D", 4)
	topo.Channel("C", "D", 4)
	return topo
}

func TestReplicatePublicAPI(t *testing.T) {
	topo := fig1(t)
	rep, err := Replicate(topo, ReplicationPlan{"B": 3})
	if err != nil {
		t.Fatal(err)
	}
	nt := rep.Topology()
	if nt.Graph().NumNodes() != 8 { // A, C, D + B.split, B.1..3, B.merge
		t.Fatalf("nodes = %d, want 8", nt.Graph().NumNodes())
	}
	a, err := Analyze(nt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Class() != SP {
		t.Errorf("replicated Fig. 1 class = %v, want SP", a.Class())
	}
	reps, err := rep.Replicas("B")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("replicas = %v", reps)
	}
	if _, err := Replicate(topo, ReplicationPlan{"nosuch": 2}); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := Replicate(topo, ReplicationPlan{"A": 2}); err == nil {
		t.Error("source replication accepted")
	}
	if _, err := Replicate(topo, ReplicationPlan{"D": 2}); err == nil {
		t.Error("sink replication accepted")
	}
}

// TestBuildReplicatedDSL drives the whole path from topology source with
// replication annotations to a protected, expanded run.
func TestBuildReplicatedDSL(t *testing.T) {
	rep, err := BuildReplicated(`
topology scaled {
  buffer 4
  src -> seg*3 -> (faces, plates) -> fuse -> archive
  replicate fuse 2
}`)
	if err != nil {
		t.Fatal(err)
	}
	nt := rep.Topology()
	for _, name := range []string{"seg.split", "seg.1", "seg.2", "seg.3", "seg.merge", "fuse.split", "fuse.1", "fuse.2", "fuse.merge"} {
		if _, ok := nt.Graph().NodeByName(name); !ok {
			t.Errorf("missing expanded node %q", name)
		}
	}
	a, err := Analyze(nt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Class() != SP {
		t.Errorf("class = %v, want SP", a.Class())
	}
	iv, err := a.Intervals(NonPropagation)
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Filter(PerInputBernoulli(0.5, 3))
	res := Simulate(nt, f, SimConfig{Inputs: 200, Algorithm: NonPropagation, Intervals: iv})
	if !res.Completed {
		t.Fatalf("deadlocked: %v", res.Blocked)
	}

	// BuildTopology returns the same expanded shape.
	topo, err := BuildTopology(`topology p { a -> b*2 -> c }`)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Graph().NumNodes() != 6 { // a, c, b.split, b.1, b.2, b.merge
		t.Errorf("BuildTopology nodes = %d, want 6", topo.Graph().NumNodes())
	}
	// Annotations on a non-two-terminal source are rejected with the
	// replicate validation error.
	if _, err := BuildTopology(`topology bad { a -> b*2 -> c
  a2 -> c }`); err == nil {
		t.Error("accepted replication on a two-source topology")
	}
}

// TestReplicatedThreeBackendEquivalence pins identical per-edge data and
// dummy counts on a replicated Fig. 1 topology across the goroutine
// runtime, the deterministic simulator, and the TCP-distributed runtime,
// with the replicas of B spread across two workers.
func TestReplicatedThreeBackendEquivalence(t *testing.T) {
	const inputs = 300
	topo := fig1(t)
	rep, err := Replicate(topo, ReplicationPlan{"B": 3})
	if err != nil {
		t.Fatal(err)
	}
	nt := rep.Topology()
	filter := rep.Filter(PerInputBernoulli(0.35, 41))

	for _, alg := range []Algorithm{Propagation, NonPropagation} {
		a, err := Analyze(nt)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := a.Intervals(alg)
		if err != nil {
			t.Fatal(err)
		}

		simRes := Simulate(nt, filter, SimConfig{
			Inputs: inputs, Algorithm: alg, Intervals: iv,
		})
		if !simRes.Completed {
			t.Fatalf("%v: simulator deadlocked: %v", alg, simRes.Blocked)
		}

		runRes, err := runCounting(nt, inputs, WithKernels(RouteKernels(nt, filter)),
			WithAlgorithm(alg), WithWatchdog(5*time.Second))
		if err != nil {
			t.Fatalf("%v: runtime: %v", alg, err)
		}

		// Distributed: replicas of B land on different workers.
		g := nt.Graph()
		assign := make(map[string]string, g.NumNodes())
		w2 := map[string]bool{"B.2": true, "B.3": true, "B.merge": true, "D": true}
		for n := 0; n < g.NumNodes(); n++ {
			name := g.Name(NodeID(n))
			if w2[name] {
				assign[name] = "beta"
			} else {
				assign[name] = "alpha"
			}
		}
		distRes, err := runCounting(nt, inputs, WithKernels(RouteKernels(nt, filter)),
			WithAlgorithm(alg), WithWatchdog(5*time.Second),
			WithBackend(Distributed(assign)))
		if err != nil {
			t.Fatalf("%v: distributed: %v", alg, err)
		}
		distData, distDummies, distSink := distRes.Data, distRes.Dummies, distRes.SinkData

		for e := EdgeID(0); int(e) < g.NumEdges(); e++ {
			from, to, _ := nt.Edge(e)
			if runRes.Data[e] != simRes.DataMsgs[e] || distData[e] != simRes.DataMsgs[e] {
				t.Errorf("%v %s→%s: data counts runtime=%d sim=%d dist=%d",
					alg, from, to, runRes.Data[e], simRes.DataMsgs[e], distData[e])
			}
			if runRes.Dummies[e] != simRes.DummyMsgs[e] || distDummies[e] != simRes.DummyMsgs[e] {
				t.Errorf("%v %s→%s: dummy counts runtime=%d sim=%d dist=%d",
					alg, from, to, runRes.Dummies[e], simRes.DummyMsgs[e], distDummies[e])
			}
		}
		if runRes.SinkData != simRes.SinkData || distSink != simRes.SinkData {
			t.Errorf("%v sink: runtime=%d sim=%d dist=%d",
				alg, runRes.SinkData, simRes.SinkData, distSink)
		}
	}
}

// TestReplicatedBundlesOverTCP drives the payload-kernel path across
// workers: with B's replicas on different workers, SplitBundle and
// MergeBundle frames cross real TCP through the codec's gob fallback,
// and the sink must consume the same data as an in-process run.
func TestReplicatedBundlesOverTCP(t *testing.T) {
	const inputs = 200
	topo := fig1(t)
	rep, err := Replicate(topo, ReplicationPlan{"B": 2})
	if err != nil {
		t.Fatal(err)
	}
	nt := rep.Topology()
	// Payload kernels on the ORIGINAL topology: B doubles, C drops odd
	// sequence numbers, D sums whatever arrived.
	orig := map[NodeID]Kernel{
		topo.Node("A"): KernelFunc(func(seq uint64, _ []Input) map[int]any {
			return map[int]any{0: seq, 1: seq}
		}),
		topo.Node("B"): KernelFunc(func(_ uint64, in []Input) map[int]any {
			if !in[0].Present {
				return nil
			}
			return map[int]any{0: in[0].Payload.(uint64) * 2}
		}),
		topo.Node("C"): KernelFunc(func(seq uint64, in []Input) map[int]any {
			if !in[0].Present || seq%2 == 1 {
				return nil
			}
			return map[int]any{0: in[0].Payload}
		}),
	}
	g := nt.Graph()
	assign := make(map[string]string, g.NumNodes())
	beta := map[string]bool{"B.2": true, "B.merge": true, "C": true, "D": true}
	for n := 0; n < g.NumNodes(); n++ {
		name := g.Name(NodeID(n))
		if beta[name] {
			assign[name] = "beta"
		} else {
			assign[name] = "alpha"
		}
	}
	distRes, err := runCounting(nt, inputs, WithKernels(rep.Kernels(orig)),
		WithAlgorithm(NonPropagation), WithWatchdog(5*time.Second),
		WithBackend(Distributed(assign)))
	if err != nil {
		t.Fatalf("distributed: %v", err)
	}
	distSink := distRes.SinkData

	local, err := runCounting(nt, inputs, WithKernels(rep.Kernels(orig)),
		WithAlgorithm(NonPropagation), WithWatchdog(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if local.SinkData != int64(inputs) {
		t.Errorf("in-process sink = %d, want %d", local.SinkData, inputs)
	}
	if distSink != local.SinkData {
		t.Errorf("distributed sink = %d, in-process %d", distSink, local.SinkData)
	}
}

// TestReplicatedMatchesOriginalCounts pins the transform's equivalence
// claim through the public API: per-edge data counts on every surviving
// edge match the unreplicated topology's run under the same filter.
func TestReplicatedMatchesOriginalCounts(t *testing.T) {
	const inputs = 400
	topo := fig1(t)
	f := PerInputBernoulli(0.2, 7)
	rep, err := Replicate(topo, ReplicationPlan{"B": 4, "C": 2})
	if err != nil {
		t.Fatal(err)
	}

	base, err := Analyze(topo)
	if err != nil {
		t.Fatal(err)
	}
	biv, err := base.Intervals(NonPropagation)
	if err != nil {
		t.Fatal(err)
	}
	baseRes := Simulate(topo, f, SimConfig{
		Inputs: inputs, Algorithm: NonPropagation, Intervals: biv,
	})
	if !baseRes.Completed {
		t.Fatalf("base deadlocked: %v", baseRes.Blocked)
	}

	nt := rep.Topology()
	ra, err := Analyze(nt)
	if err != nil {
		t.Fatal(err)
	}
	riv, err := ra.Intervals(NonPropagation)
	if err != nil {
		t.Fatal(err)
	}
	repRes := Simulate(nt, rep.Filter(f), SimConfig{
		Inputs: inputs, Algorithm: NonPropagation, Intervals: riv,
	})
	if !repRes.Completed {
		t.Fatalf("replicated deadlocked: %v", repRes.Blocked)
	}

	for e := EdgeID(0); int(e) < topo.Graph().NumEdges(); e++ {
		ne := rep.NewEdge(e)
		if baseRes.DataMsgs[e] != repRes.DataMsgs[ne] {
			from, to, _ := topo.Edge(e)
			t.Errorf("%s→%s: base %d data msgs, replicated %d",
				from, to, baseRes.DataMsgs[e], repRes.DataMsgs[ne])
		}
		if oe, ok := rep.OriginalEdge(ne); !ok || oe != e {
			t.Errorf("OriginalEdge(NewEdge(%d)) = %d, %v", e, oe, ok)
		}
	}
	if baseRes.SinkData != repRes.SinkData {
		t.Errorf("sink: base %d, replicated %d", baseRes.SinkData, repRes.SinkData)
	}
}
