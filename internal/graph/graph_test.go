package graph

import (
	"strings"
	"testing"
)

// diamond builds the split/join of Fig. 1: A → {B, C} → D.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	a := g.AddNode("A")
	b := g.AddNode("B")
	c := g.AddNode("C")
	d := g.AddNode("D")
	g.AddEdge(a, b, 2)
	g.AddEdge(a, c, 3)
	g.AddEdge(b, d, 4)
	g.AddEdge(c, d, 5)
	return g
}

func TestBasicAccessors(t *testing.T) {
	g := diamond(t)
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	a := g.MustNode("A")
	if g.Name(a) != "A" {
		t.Errorf("Name(A) = %q", g.Name(a))
	}
	if got := g.OutDegree(a); got != 2 {
		t.Errorf("OutDegree(A) = %d, want 2", got)
	}
	d := g.MustNode("D")
	if got := g.InDegree(d); got != 2 {
		t.Errorf("InDegree(D) = %d, want 2", got)
	}
	if _, ok := g.NodeByName("Z"); ok {
		t.Error("NodeByName(Z) should miss")
	}
	e := g.Edge(0)
	if e.From != a || g.Name(e.To) != "B" || e.Buf != 2 {
		t.Errorf("Edge(0) = %+v", e)
	}
}

func TestSourcesSinks(t *testing.T) {
	g := diamond(t)
	if s := g.Sources(); len(s) != 1 || g.Name(s[0]) != "A" {
		t.Errorf("Sources = %v", s)
	}
	if s := g.Sinks(); len(s) != 1 || g.Name(s[0]) != "D" {
		t.Errorf("Sinks = %v", s)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if g.Source() != g.MustNode("A") || g.Sink() != g.MustNode("D") {
		t.Error("Source/Sink mismatch")
	}
}

func TestTopoOrder(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, n := range order {
		pos[n] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %v violates topo order", e)
		}
	}
}

func TestDirectedCycleDetected(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(a, b, 1)
	g.AddEdge(b, a, 1)
	if g.IsDAG() {
		t.Fatal("cycle not detected")
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("Validate = %v, want cycle error", err)
	}
}

func TestValidateRejectsMultiTerminal(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(a, c, 1)
	g.AddEdge(b, c, 1)
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "sources") {
		t.Errorf("Validate = %v, want sources error", err)
	}
	// The error names the offending nodes.
	if !strings.Contains(err.Error(), `a, b`) {
		t.Errorf("Validate = %v, want the source names a, b", err)
	}

	g2 := New()
	s := g2.AddNode("s")
	x := g2.AddNode("x")
	y := g2.AddNode("y")
	g2.AddEdge(s, x, 1)
	g2.AddEdge(s, y, 1)
	err = g2.Validate()
	if err == nil || !strings.Contains(err.Error(), "sinks") || !strings.Contains(err.Error(), "x, y") {
		t.Errorf("Validate = %v, want sinks error naming x, y", err)
	}
}

func TestValidateNamesElideLongLists(t *testing.T) {
	g := New()
	snk := g.AddNode("snk")
	for i := 0; i < 8; i++ {
		g.AddEdge(g.AddNode(string(rune('a'+i))), snk, 1)
	}
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "… 3 more") {
		t.Errorf("Validate = %v, want elided list", err)
	}
}

func TestValidateRejectsDisconnected(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(a, b, 1)
	g.AddNode("lonely")
	err := g.Validate()
	if err == nil {
		t.Error("Validate accepted disconnected graph")
	}
	if !strings.Contains(err.Error(), `"lonely"`) {
		t.Errorf("Validate = %v, want the disconnected node named", err)
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := New().Validate(); err == nil {
		t.Error("Validate accepted empty graph")
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	g := New()
	a := g.AddNode("a")
	mustPanic("dup node", func() { g.AddNode("a") })
	mustPanic("empty name", func() { g.AddNode("") })
	mustPanic("bad buf", func() { g.AddEdge(a, a, 0) })
	mustPanic("bad node", func() { g.AddEdge(a, NodeID(99), 1) })
	mustPanic("MustNode", func() { g.MustNode("zzz") })
}

func TestMultigraphParallelEdges(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(a, b, 1)
	g.AddEdge(a, b, 7)
	g.AddEdge(a, b, 3)
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	total, ok := g.ShortestBufPath(a, b)
	if !ok || total != 1 {
		t.Errorf("ShortestBufPath = %d,%v want 1,true", total, ok)
	}
}

func TestPathDP(t *testing.T) {
	g := diamond(t)
	a, d := g.MustNode("A"), g.MustNode("D")
	if got, ok := g.ShortestBufPath(a, d); !ok || got != 6 {
		t.Errorf("ShortestBufPath = %d,%v want 6 (A-B-D = 2+4)", got, ok)
	}
	if got, ok := g.LongestHopPath(a, d); !ok || got != 2 {
		t.Errorf("LongestHopPath = %d,%v want 2", got, ok)
	}
	b := g.MustNode("B")
	c := g.MustNode("C")
	if _, ok := g.ShortestBufPath(b, c); ok {
		t.Error("B→C should be unreachable")
	}
	if _, ok := g.LongestHopPath(d, a); ok {
		t.Error("D→A should be unreachable")
	}
}

func TestReachable(t *testing.T) {
	g := diamond(t)
	r := g.Reachable(g.MustNode("B"))
	if len(r) != 2 || !r[g.MustNode("B")] || !r[g.MustNode("D")] {
		t.Errorf("Reachable(B) = %v", r)
	}
}

func TestDOTAndString(t *testing.T) {
	g := diamond(t)
	dot := g.DOT()
	for _, want := range []string{"digraph", `label="A"`, "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	s := g.String()
	if !strings.Contains(s, "A->B:2") {
		t.Errorf("String = %s", s)
	}
}

func TestLinearPipelineDeep(t *testing.T) {
	// Guard against recursion limits: a 50k-node pipeline must work.
	g := New()
	prev := g.AddNode("n0")
	for i := 1; i < 50000; i++ {
		cur := g.AddNode("n" + itoa(i))
		g.AddEdge(prev, cur, 1)
		prev = cur
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if comps := g.BiconnectedComponents(); len(comps) != 49999 {
		t.Errorf("pipeline bridge components = %d, want 49999", len(comps))
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [12]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
