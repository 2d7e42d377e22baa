package streamdag

import (
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

// TestBuildTopologyFormats: one parse reads both text formats, and
// only a first word equal to the keyword "topology" selects the DSL.
// Neither format's source here replicates, so BuildReplicated returns
// an identity mapping: every node runs as itself.
func TestBuildTopologyFormats(t *testing.T) {
	cases := []struct {
		name, src string
		edges     int // 0: the source is rejected
	}{
		{"dsl", "topology t { a -> b }", 1},
		{"dsl behind a comment", "# comment\n\ntopology t { a -> b }", 1},
		{"triples", "a b 1\nb c 2\n", 2},
		{"triple naming topology_src", "topology_src sink 4\n", 1},
		{"bad triples", "garbage", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			topo, err := BuildTopology(c.src)
			if c.edges == 0 {
				if err == nil {
					t.Fatal("accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := topo.g.Validate(); err != nil {
				t.Fatal(err)
			}
			if n := topo.Graph().NumEdges(); n != c.edges {
				t.Fatalf("BuildTopology: %d edges, want %d", n, c.edges)
			}
			rep, err := BuildReplicated(c.src)
			if err != nil {
				t.Fatal(err)
			}
			g := rep.Topology().Graph()
			if g.NumEdges() != c.edges {
				t.Fatalf("BuildReplicated: %d edges, want %d", g.NumEdges(), c.edges)
			}
			for n := 0; n < g.NumNodes(); n++ {
				name := g.Name(NodeID(n))
				if ids, err := rep.Replicas(name); err != nil || len(ids) != 1 || ids[0] != NodeID(n) {
					t.Errorf("Replicas(%q) = %v, %v; want [%d]", name, ids, err, n)
				}
			}
		})
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
