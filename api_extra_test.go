package streamdag

import (
	"strings"
	"testing"
	"time"
)

func TestBuildTopologyDSL(t *testing.T) {
	topo, err := BuildTopology(`
topology t {
  buffer 4
  A -> (B, C) -> D
}`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(topo)
	if err != nil {
		t.Fatal(err)
	}
	if a.Class() != SP {
		t.Errorf("class = %v", a.Class())
	}
	if _, err := BuildTopology("topology bad {"); err == nil {
		t.Error("bad DSL accepted")
	}
}

func TestLoadTopologyAuto(t *testing.T) {
	dsl := "topology t { a -> b }"
	triples := "a b 1\n"
	if !LooksLikeDSL(dsl) || LooksLikeDSL(triples) {
		t.Fatal("sniffing wrong")
	}
	if !LooksLikeDSL("# comment\n\n" + dsl) {
		t.Error("comment prefix broke sniffing")
	}
	for _, src := range []string{dsl, triples} {
		topo, err := LoadTopologyAuto(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if topo.Graph().NumEdges() != 1 {
			t.Errorf("%q: %d edges", src, topo.Graph().NumEdges())
		}
	}
}

// TestDistributedPublicAPI runs a protected Fig. 2 across two TCP workers
// through the public facade.
func TestDistributedPublicAPI(t *testing.T) {
	topo := fig2(t)
	assign := map[string]string{"A": "left", "B": "right", "C": "right"}
	kernels := RouteKernels(topo, DropEdge(2)) // starve A→C
	if _, err := runCounting(topo, 100, WithKernels(kernels),
		WithAlgorithm(Propagation), WithWatchdog(5*time.Second),
		WithBackend(Distributed(assign))); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateTraceHook(t *testing.T) {
	topo := fig2(t)
	var events []string
	r := Simulate(topo, PassAll, SimConfig{
		Inputs: 5,
		Trace:  func(s string) { events = append(events, s) },
	})
	if !r.Completed {
		t.Fatal("should complete")
	}
	if len(events) == 0 {
		t.Error("no trace events")
	}
	if !strings.Contains(strings.Join(events, "\n"), "A consumes") {
		t.Errorf("trace lacks consume events: %v", events[:3])
	}
}
