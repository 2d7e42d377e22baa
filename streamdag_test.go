package streamdag

import (
	"context"
	"strings"
	"testing"
	"time"

	"streamdag/internal/cycles"
)

// runCounting is the one-stream lifecycle of the tests: Build, then
// Pipeline.Run (engine up, one session, engine down) over the sequence
// numbers 0..inputs-1 with a discarding sink.
func runCounting(topo *Topology, inputs uint64, opts ...Option) (*RunStats, error) {
	p, err := Build(topo, opts...)
	if err != nil {
		return nil, err
	}
	return p.Run(context.Background(), CountingSource(inputs), nil)
}

func fig2(t *testing.T) *Topology {
	t.Helper()
	topo := NewTopology()
	topo.Channel("A", "B", 2)
	topo.Channel("B", "C", 2)
	topo.Channel("A", "C", 2)
	return topo
}

func TestTopologyBuilder(t *testing.T) {
	topo := fig2(t)
	if err := topo.g.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.Node("A") != topo.Node("A") {
		t.Error("Node not idempotent")
	}
	from, to, buf := topo.Edge(0)
	if from != "A" || to != "B" || buf != 2 {
		t.Errorf("Edge(0) = %s,%s,%d", from, to, buf)
	}
	if !strings.Contains(topo.DOT(), "digraph") {
		t.Error("DOT output malformed")
	}
}

func TestAnalyzeClasses(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Topology
		class Class
	}{
		{"fig2 SP", func() *Topology { return fig2(t) }, SP},
		{"crossed split/join CS4", func() *Topology {
			topo := NewTopology()
			topo.Channel("X", "a", 1)
			topo.Channel("X", "b", 1)
			topo.Channel("a", "Y", 1)
			topo.Channel("b", "Y", 1)
			topo.Channel("a", "b", 1)
			return topo
		}, CS4},
		{"butterfly general", butterflyTopo, General},
	}
	for _, c := range cases {
		a, err := Analyze(c.build())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if a.Class() != c.class {
			t.Errorf("%s: class = %v, want %v", c.name, a.Class(), c.class)
		}
		if c.class == CS4 && len(a.Components()) == 0 {
			t.Errorf("%s: no components", c.name)
		}
		if c.class == General && a.Witness() == "" {
			t.Errorf("%s: no witness", c.name)
		}
	}
}

func butterflyTopo() *Topology {
	topo := NewTopology()
	topo.Channel("X", "a", 2)
	topo.Channel("X", "b", 2)
	topo.Channel("a", "A", 2)
	topo.Channel("a", "B", 2)
	topo.Channel("b", "A", 2)
	topo.Channel("b", "B", 2)
	topo.Channel("A", "Y", 2)
	topo.Channel("B", "Y", 2)
	return topo
}

func TestIntervalsFastAndExhaustive(t *testing.T) {
	// SP fast path.
	a, err := Analyze(fig2(t))
	if err != nil {
		t.Fatal(err)
	}
	iv, err := a.Intervals(Propagation)
	if err != nil {
		t.Fatal(err)
	}
	if len(iv) != 3 {
		t.Fatalf("intervals = %v", iv)
	}
	// General exhaustive fallback.
	b, err := Analyze(butterflyTopo())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Intervals(NonPropagation); err != nil {
		t.Fatal(err)
	}
	b.ExhaustiveCycleLimit = 1
	if _, err := b.Intervals(NonPropagation); err == nil {
		t.Error("cycle budget of 1 should fail")
	}
}

func TestEndToEndDeadlockAndAvoidance(t *testing.T) {
	topo := fig2(t)
	a, err := Analyze(topo)
	if err != nil {
		t.Fatal(err)
	}
	drop := DropEdge(2) // A→C is edge 2 in fig2
	// Unprotected: simulator detects deadlock; runtime's watchdog agrees.
	r := simulate(topo, drop, simConfig{Inputs: 100})
	if r.Completed {
		t.Fatal("expected simulated deadlock")
	}
	if _, err := runCounting(topo, 100, WithKernels(RouteKernels(topo, drop)),
		WithoutAvoidance(), WithWatchdog(100*time.Millisecond)); err == nil {
		t.Fatal("expected runtime deadlock")
	}
	// Protected: both complete.
	for _, alg := range []Algorithm{Propagation, NonPropagation} {
		iv, err := a.Intervals(alg)
		if err != nil {
			t.Fatal(err)
		}
		r := simulate(topo, drop, simConfig{Inputs: 100, Algorithm: alg, Intervals: iv})
		if !r.Completed {
			t.Fatalf("%v: simulated deadlock: %v", alg, r.Blocked)
		}
		if _, err := runCounting(topo, 100, WithKernels(RouteKernels(topo, drop)),
			WithAlgorithm(alg)); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
}

func TestRewriteButterflyPublic(t *testing.T) {
	nt, desc, err := RewriteButterfly(butterflyTopo())
	if err != nil {
		t.Fatal(err)
	}
	if desc == "" {
		t.Error("no description")
	}
	a, err := Analyze(nt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Class() == General {
		t.Error("rewrite did not reach CS4")
	}
	if ok, witness := cycles.IsCS4(nt.g); !ok {
		t.Errorf("exhaustive check disagrees: %s", witness.Describe(nt.g))
	}
}

func TestIsCS4Exhaustive(t *testing.T) {
	g := butterflyTopo().g
	ok, witness := cycles.IsCS4(g)
	if ok || witness == nil || witness.Describe(g) == "" {
		t.Errorf("butterfly: ok=%v witness=%v", ok, witness)
	}
}
