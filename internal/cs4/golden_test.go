package cs4

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"streamdag/internal/graph"
	"streamdag/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/classify.golden")

// goldenCorpus is the graph set TestClassifyGolden pins: the paper's
// figures, generated SP, ladder and CS4 graphs over fixed seeds,
// multi-edge and serial-chain shapes, and graphs rejected as general.
func goldenCorpus(t testing.TB) []struct {
	name string
	g    *graph.Graph
} {
	type entry = struct {
		name string
		g    *graph.Graph
	}
	parse := func(s string) *graph.Graph {
		g, err := graph.ParseString(s)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	c := []entry{
		{"fig1", workload.Fig1SplitJoin(2)},
		{"fig2", workload.Fig2Triangle(1)},
		{"fig3", workload.Fig3Cycle()},
		{"fig4-crossed", workload.Fig4CrossedSplitJoin(2)},
		{"fig4-butterfly", workload.Fig4Butterfly(1)},
		{"pipeline5", workload.Pipeline(5, 256)},
		{"splitjoin4", workload.SplitJoin(4, 3)},
		{"splitjoin-filter", parse(`in split 64
split b0a 64
b0a b0b 64
b0b join 64
split b1a 64
b1a b1b 64
b1b join 64
split b2a 64
b2a b2b 64
b2b join 64
split b3a 64
b3a b3b 64
b3b join 64
join out 64`)},
		{"multi-edge", parse("a b 1\na b 2\na b 3")},
		{"multi-edge-series", parse("a b 1\na b 4\nb c 2\nb c 2\nb c 5\nc d 1")},
		{"multi-edge-diamond", parse("a b 1\na b 2\na c 3\nb d 1\nc d 2\nc d 6")},
		{"serial-chain", parse("s0 s1 2\ns1 t0 1\ns1 t0 3\nt0 a 1\nt0 b 2\na t1 1\nb t1 2\na b 1\nt1 z 4")},
		{"two-ladders", parse("x a 1\nx b 2\na y 3\nb y 1\na b 2\ny c 2\ny d 1\nc z 1\nd z 4\nd c 3")},
		{"k4", parse("a b 1\na c 1\na d 1\nb c 1\nb d 1\nc d 1")},
		{"two-source-cycle", parse("s a 1\ns b 1\na c 1\nb c 1\nb d 1\na d 1\nc t 1\nd t 1")},
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c = append(c, entry{fmt.Sprintf("random-sp-%d", seed), workload.RandomSP(rng, 2+int(seed)*3, 6)})
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		c = append(c, entry{fmt.Sprintf("random-ladder-%d", seed), workload.RandomLadder(rng, 1+int(seed)%4, 5, 0.3, 0.5)})
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		c = append(c, entry{fmt.Sprintf("random-cs4-%d", seed), workload.RandomCS4(rng, 1+int(seed)%4, 5, 0.5)})
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		c = append(c, entry{fmt.Sprintf("random-layered-%d", seed), workload.RandomLayeredDAG(rng, 3, 3, 4, 0.6)})
	}
	return c
}

// describe renders what classification decided for g: the class, each
// component's terminals with its tree or its ladder's rung count and
// fragment trees (sorted, so the walk direction around the ladder's
// outer cycle does not show), and both protocols' intervals by edge.
func describe(t *testing.T, g *graph.Graph) string {
	var b bytes.Buffer
	d, err := Classify(g)
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
		return b.String()
	}
	fmt.Fprintf(&b, "class: %v\n", d.Class)
	for i, c := range d.Components {
		fmt.Fprintf(&b, "component %d: %s→%s ", i, g.Name(c.Src), g.Name(c.Snk))
		switch {
		case c.Tree != nil:
			fmt.Fprintf(&b, "sp %s\n", c.Tree)
		case c.Ladder != nil:
			var frags []string
			for _, f := range c.Ladder.Fragments() {
				frags = append(frags, fmt.Sprintf("%s→%s %s", g.Name(f.From), g.Name(f.To), f.Tree))
			}
			sort.Strings(frags)
			fmt.Fprintf(&b, "ladder K=%d\n", c.Ladder.K)
			for _, f := range frags {
				fmt.Fprintf(&b, "  %s\n", f)
			}
		default:
			b.WriteString("undecomposed\n")
		}
	}
	if d.Class == ClassGeneral {
		return b.String()
	}
	for _, alg := range []Algorithm{Propagation, NonPropagation} {
		iv, err := d.Intervals(alg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%v:", alg)
		for _, e := range g.Edges() {
			fmt.Fprintf(&b, " e%d=%v", e.ID, iv[e.ID])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestClassifyGolden pins, for every graph of goldenCorpus, the class,
// the serial components, their decomposition trees and both protocols'
// intervals.  A change to the classifier's internals must leave this file
// as it is; regenerate with -update only when a decomposition is meant to
// change.
func TestClassifyGolden(t *testing.T) {
	var out bytes.Buffer
	for _, c := range goldenCorpus(t) {
		fmt.Fprintf(&out, "== %s\n%s", c.name, describe(t, c.g))
	}
	const golden = "testdata/classify.golden"
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("classification differs from %s (rerun with -update if the change is meant):\n%s", golden, out.Bytes())
	}
}
