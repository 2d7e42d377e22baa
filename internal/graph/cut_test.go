package graph

import (
	"sort"
	"testing"
)

func TestArticulationDiamond(t *testing.T) {
	// No cut vertex: the diamond is one biconnected component.
	g := diamond(t)
	if comps := g.BiconnectedComponents(); len(comps) != 1 || len(comps[0]) != 4 {
		t.Errorf("diamond components = %v, want one of 4 edges", comps)
	}
}

func TestArticulationSerialDiamonds(t *testing.T) {
	// Two diamonds joined at the cut vertex m.
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	m := g.AddNode("m")
	d := g.AddNode("d")
	e := g.AddNode("e")
	z := g.AddNode("z")
	g.AddEdge(a, b, 1)
	g.AddEdge(a, c, 1)
	g.AddEdge(b, m, 1)
	g.AddEdge(c, m, 1)
	g.AddEdge(m, d, 1)
	g.AddEdge(m, e, 1)
	g.AddEdge(d, z, 1)
	g.AddEdge(e, z, 1)
	comps := g.BiconnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("got %d biconnected components, want 2", len(comps))
	}
	for _, comp := range comps {
		if len(comp) != 4 {
			t.Errorf("component size %d, want 4", len(comp))
		}
	}
}

func TestArticulationPipeline(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(a, b, 1)
	g.AddEdge(b, c, 1)
	comps := g.BiconnectedComponents()
	if len(comps) != 2 || len(comps[0]) != 1 || len(comps[1]) != 1 {
		t.Errorf("bridge components = %v", comps)
	}
}

func TestArticulationParallelEdges(t *testing.T) {
	// a =2⇒ b → c: parallel edges make {a,b} biconnected, b is the cut.
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(a, b, 1)
	g.AddEdge(a, b, 1)
	g.AddEdge(b, c, 1)
	comps := g.BiconnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("components = %v, want 2", comps)
	}
	var sizes []int
	for _, c := range comps {
		sizes = append(sizes, len(c))
	}
	sort.Ints(sizes)
	if sizes[0] != 1 || sizes[1] != 2 {
		t.Errorf("component sizes = %v, want [1 2]", sizes)
	}
}

func TestBiconnectedCoversAllEdges(t *testing.T) {
	h := diamond(t)
	x := h.AddNode("x")
	h.AddEdge(h.MustNode("D"), x, 1)
	comps := h.BiconnectedComponents()
	seen := map[EdgeID]int{}
	for _, comp := range comps {
		for _, e := range comp {
			seen[e]++
		}
	}
	if len(seen) != h.NumEdges() {
		t.Fatalf("components cover %d edges, want %d", len(seen), h.NumEdges())
	}
	for e, k := range seen {
		if k != 1 {
			t.Errorf("edge %d appears %d times", e, k)
		}
	}
}
