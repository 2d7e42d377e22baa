package cs4

import (
	"math/rand"
	"testing"

	"streamdag/internal/cycles"
	"streamdag/internal/graph"
	"streamdag/internal/ival"
	"streamdag/internal/workload"
)

func classify(t testing.TB, g *graph.Graph) *Decomposition {
	t.Helper()
	d, err := Classify(g)
	if err != nil {
		t.Fatalf("Classify: %v\n%s", err, g)
	}
	return d
}

// TestFig4Classification is experiment E7: the left graph of Fig. 4 is CS4
// but not SP; the butterfly is general.
func TestFig4Classification(t *testing.T) {
	d := classify(t, workload.Fig4CrossedSplitJoin(1))
	if d.Class != ClassCS4 {
		t.Errorf("crossed split/join class = %v, want CS4", d.Class)
	}
	if len(d.Components) != 1 || d.Components[0].Ladder == nil {
		t.Errorf("components = %+v", d.Components)
	}

	b := classify(t, workload.Fig4Butterfly(1))
	if b.Class != ClassGeneral {
		t.Errorf("butterfly class = %v, want general", b.Class)
	}
	if b.Witness == nil {
		t.Fatal("butterfly should have a multi-source witness cycle")
	}
	if n := b.Witness.NumSources(b.Graph); n < 2 {
		t.Errorf("witness sources = %d, want ≥ 2", n)
	}
	if _, err := b.Intervals(Propagation); err == nil {
		t.Error("Intervals should refuse general graphs")
	}
}

func TestClassifySPVariants(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"split/join": workload.Fig1SplitJoin(2),
		"pipeline":   workload.Pipeline(6, 1),
		"fig3":       workload.Fig3Cycle(),
	} {
		d := classify(t, g)
		if d.Class != ClassSP {
			t.Errorf("%s: class = %v, want SP", name, d.Class)
		}
	}
}

func TestClassifySerialChain(t *testing.T) {
	// SP component, then a ladder, then another SP: a genuine CS4 chain.
	g, err := graph.ParseString(`
s0 s1 2
s1 t0 1
s1 t0 3
t0 a 1
t0 b 2
a t1 1
b t1 2
a b 1
t1 z 4
`)
	if err != nil {
		t.Fatal(err)
	}
	d := classify(t, g)
	if d.Class != ClassCS4 {
		t.Fatalf("class = %v, want CS4", d.Class)
	}
	var ladders, sps int
	for _, c := range d.Components {
		if c.Ladder != nil {
			ladders++
		}
		if c.Tree != nil {
			sps++
		}
	}
	if ladders != 1 {
		t.Errorf("ladders = %d, want 1", ladders)
	}
	if sps != len(d.Components)-1 {
		t.Errorf("sp components = %d of %d", sps, len(d.Components))
	}
}

func TestClassifyRejectsInvalid(t *testing.T) {
	g, err := graph.ParseString("a c 1\nb c 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Classify(g); err == nil {
		t.Error("Classify accepted a two-source graph")
	}
}

func equalIvals(t *testing.T, g *graph.Graph, got, want map[graph.EdgeID]ival.Interval, label string) {
	t.Helper()
	for _, e := range g.Edges() {
		if !got[e.ID].Equal(want[e.ID]) {
			t.Fatalf("%s: edge %s->%s: got %v want %v\n%s",
				label, g.Name(e.From), g.Name(e.To), got[e.ID], want[e.ID], g)
		}
	}
}

// TestCS4MatchesExhaustive is E14 at the top level: random CS4 chains,
// both algorithms, against the exponential baseline.
func TestCS4MatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	tested := 0
	for trial := 0; trial < 200; trial++ {
		g := workload.RandomCS4(rng, 1+rng.Intn(4), 5, 0.5)
		d := classify(t, g)
		if d.Class == ClassGeneral {
			t.Fatalf("trial %d: generator produced non-CS4 graph:\n%s", trial, g)
		}
		refP, err := cycles.PropagationIntervalsLimit(g, 100000)
		if err != nil {
			continue
		}
		tested++
		gotP, err := d.Intervals(Propagation)
		if err != nil {
			t.Fatal(err)
		}
		equalIvals(t, g, gotP, refP, "propagation")
		gotN, err := d.Intervals(NonPropagation)
		if err != nil {
			t.Fatal(err)
		}
		refN := cycles.NonPropagationIntervals(g)
		equalIvals(t, g, gotN, refN, "non-propagation")
	}
	if tested < 80 {
		t.Fatalf("only %d instances cross-validated", tested)
	}
}

func TestIntervalsExhaustiveDispatch(t *testing.T) {
	g := workload.Fig4Butterfly(2)
	iv, err := IntervalsExhaustive(g, Propagation, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if len(iv) != g.NumEdges() {
		t.Errorf("intervals for %d edges, want %d", len(iv), g.NumEdges())
	}
	if _, err := IntervalsExhaustive(g, NonPropagation, 1); err == nil {
		t.Error("budget of 1 should fail on the butterfly")
	}
}

// TestButterflyRewrite is E13: the conclusion's rewrite turns the
// butterfly into a CS4 (ladder) topology.
func TestButterflyRewrite(t *testing.T) {
	g := workload.Fig4Butterfly(2)
	ng, desc, err := RewriteButterfly(g)
	if err != nil {
		t.Fatal(err)
	}
	if desc == "" {
		t.Error("empty description")
	}
	if ng.NumEdges() != g.NumEdges() {
		t.Errorf("edge count changed: %d → %d", g.NumEdges(), ng.NumEdges())
	}
	d := classify(t, ng)
	if d.Class == ClassGeneral {
		t.Fatalf("rewritten butterfly still general:\n%s", ng)
	}
	if ok, w := cycles.IsCS4(ng); !ok {
		t.Fatalf("rewritten graph not CS4; witness %s", w.Describe(ng))
	}
	// And the efficient algorithms now apply end to end.
	if _, err := d.Intervals(Propagation); err != nil {
		t.Fatal(err)
	}
}

func TestRerouteEdgeErrors(t *testing.T) {
	g := workload.Fig1SplitJoin(1)
	a, b, c := g.MustNode("A"), g.MustNode("B"), g.MustNode("C")
	if _, err := RerouteEdge(g, b, a, c); err == nil {
		t.Error("missing edge accepted")
	}
	if _, err := RerouteEdge(g, a, b, g.MustNode("D")); err == nil {
		t.Error("via not a successor accepted")
	}
	// Rerouting A→B via C is structurally fine here (C is a successor of
	// A and C→B does not create a cycle).
	ng, err := RerouteEdge(g, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumEdges() != g.NumEdges() {
		t.Error("edge count changed")
	}
}

func TestRewriteButterflyNoCrossing(t *testing.T) {
	if _, _, err := RewriteButterfly(workload.Pipeline(4, 1)); err == nil {
		t.Error("pipeline has no crossing; rewrite should fail")
	}
}

// BenchmarkClassify times Classify on the harness's splitjoin_filter graph
// (12 nodes, 14 edges, one SP component) and on a 5-node chain (four
// serial components), the set-up cost every Build pays before its
// intervals.
func BenchmarkClassify(b *testing.B) {
	for _, c := range goldenCorpus(b) {
		if c.name != "splitjoin-filter" && c.name != "pipeline5" {
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Classify(c.g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
