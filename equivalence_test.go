package streamdag

import (
	"testing"
	"time"

	"streamdag/internal/sim"
)

// The goroutine runtime and the deterministic simulator now drive the
// same protocol engine (internal/proto), so under any deterministic
// filter they must report identical per-edge data counts, identical
// per-edge dummy counts, and identical sink totals — the network is a
// Kahn network with bounded buffers, so counts are schedule-independent.
// These tests pin that equivalence through the public API.

// fig3ish is a two-path split/join with asymmetric buffers, a second
// shape beyond Fig. 2 for the equivalence check.
func fig3ish(t *testing.T) *Topology {
	t.Helper()
	topo := NewTopology()
	topo.Channel("src", "a", 3)
	topo.Channel("a", "join", 2)
	topo.Channel("src", "b", 2)
	topo.Channel("b", "join", 4)
	topo.Channel("join", "out", 2)
	return topo
}

// simConfig parameterizes simulate.
type simConfig struct {
	Inputs    uint64
	Algorithm Algorithm
	Intervals map[EdgeID]Interval
}

// simulate runs the deterministic simulator on a bare topology and
// filter, with no kernels or payloads: exact deadlock detection and
// schedule-independent counts, the oracle the backends are compared
// against.
func simulate(t *Topology, f Filter, cfg simConfig) *sim.Result {
	return sim.Run(t.g, sim.Filter(f), sim.Config{Inputs: cfg.Inputs, Algorithm: cfg.Algorithm, Intervals: cfg.Intervals})
}

func assertRunMatchesSimulate(t *testing.T, topo *Topology, f Filter, alg Algorithm, inputs uint64) {
	t.Helper()
	a, err := Analyze(topo)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := a.Intervals(alg)
	if err != nil {
		t.Fatal(err)
	}
	simRes := simulate(topo, f, simConfig{
		Inputs: inputs, Algorithm: alg, Intervals: iv,
	})
	if !simRes.Completed {
		t.Fatalf("simulator deadlocked: %v", simRes.Blocked)
	}
	runRes, err := runCounting(topo, inputs, WithKernels(RouteKernels(topo, f)),
		WithAlgorithm(alg), WithWatchdog(5*time.Second))
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	for e := EdgeID(0); int(e) < topo.Graph().NumEdges(); e++ {
		from, to, _ := topo.Edge(e)
		if runRes.Data[e] != simRes.DataMsgs[e] {
			t.Errorf("%s→%s: runtime sent %d data msgs, simulator %d",
				from, to, runRes.Data[e], simRes.DataMsgs[e])
		}
		if runRes.Dummies[e] != simRes.DummyMsgs[e] {
			t.Errorf("%s→%s: runtime sent %d dummies, simulator %d",
				from, to, runRes.Dummies[e], simRes.DummyMsgs[e])
		}
	}
	if runRes.SinkData != simRes.SinkData {
		t.Errorf("sink: runtime consumed %d data msgs, simulator %d",
			runRes.SinkData, simRes.SinkData)
	}
}

func TestRunSimulateEquivalenceDropEdge(t *testing.T) {
	topo := fig2(t)
	var ac EdgeID
	for e := EdgeID(0); int(e) < topo.Graph().NumEdges(); e++ {
		if from, to, _ := topo.Edge(e); from == "A" && to == "C" {
			ac = e
		}
	}
	for _, alg := range []Algorithm{Propagation, NonPropagation} {
		assertRunMatchesSimulate(t, topo, DropEdge(ac), alg, 400)
	}
}

func TestRunSimulateEquivalencePeriodic(t *testing.T) {
	for _, k := range []uint64{2, 7} {
		assertRunMatchesSimulate(t, fig2(t), Periodic(k), Propagation, 400)
		assertRunMatchesSimulate(t, fig3ish(t), Periodic(k), Propagation, 400)
	}
}

func TestRunSimulateEquivalenceComposed(t *testing.T) {
	topo := fig3ish(t)
	var sb EdgeID
	for e := EdgeID(0); int(e) < topo.Graph().NumEdges(); e++ {
		if from, to, _ := topo.Edge(e); from == "src" && to == "b" {
			sb = e
		}
	}
	assertRunMatchesSimulate(t, topo, Compose(DropEdge(sb), Periodic(3)), Propagation, 400)
}
