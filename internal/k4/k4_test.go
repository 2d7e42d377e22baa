package k4_test

import (
	"math/rand"
	"testing"

	"streamdag/internal/cs4"
	"streamdag/internal/cycles"
	"streamdag/internal/graph"
	"streamdag/internal/k4"
	"streamdag/internal/workload"
)

func TestButterflyHasK4(t *testing.T) {
	g := workload.Fig4Butterfly(1)
	has, core := k4.HasK4Subdivision(g)
	if !has {
		t.Fatal("butterfly must contain a K4 subdivision (Lemma V.1)")
	}
	if len(core) < 4 {
		t.Errorf("core = %v, want ≥ 4 vertices", core)
	}
}

func TestCS4FamiliesAreK4Free(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 150; trial++ {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = workload.RandomSP(rng, 1+rng.Intn(30), 4)
		case 1:
			g = workload.RandomLadder(rng, 1+rng.Intn(5), 4, 0.3, 0.3)
		default:
			g = workload.RandomCS4(rng, 1+rng.Intn(4), 4, 0.5)
		}
		if has, core := k4.HasK4Subdivision(g); has {
			t.Fatalf("trial %d: CS4-family graph flagged with core %v:\n%s", trial, core, g)
		}
	}
}

func TestK4Itself(t *testing.T) {
	// An acyclically oriented K4.
	g := graph.New()
	var v [4]graph.NodeID
	for i := range v {
		v[i] = g.AddNode(string(rune('a' + i)))
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(v[i], v[j], 1)
		}
	}
	has, core := k4.HasK4Subdivision(g)
	if !has || len(core) != 4 {
		t.Fatalf("K4: has=%v core=%v", has, core)
	}
}

func TestSubdividedK4(t *testing.T) {
	// K4 with every connection a 2-hop path: still a subdivision.
	g := graph.New()
	var v [4]graph.NodeID
	for i := range v {
		v[i] = g.AddNode(string(rune('a' + i)))
	}
	mid := 0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			m := g.AddNode("m" + string(rune('0'+mid)))
			mid++
			g.AddEdge(v[i], m, 1)
			g.AddEdge(m, v[j], 1)
		}
	}
	has, core := k4.HasK4Subdivision(g)
	if !has {
		t.Fatal("subdivided K4 not detected")
	}
	// The core collapses back to the four branch vertices.
	if len(core) != 4 {
		t.Errorf("core = %v, want the 4 branch vertices", core)
	}
}

func TestParallelEdgesAreNotK4(t *testing.T) {
	g, err := graph.ParseString("a b 1\na b 1\na b 1\nb c 1\nb c 1")
	if err != nil {
		t.Fatal(err)
	}
	if has, _ := k4.HasK4Subdivision(g); has {
		t.Error("parallel-edge bundles are K4-free")
	}
}

// TestAgreesWithExhaustiveOnGenerals: for random layered DAGs, whenever
// the K4 prefilter says "impossible", the exhaustive CS4 checker must
// also reject — Lemma V.1's direction, machine-checked.
func TestAgreesWithExhaustiveOnGenerals(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	flagged, tested := 0, 0
	for trial := 0; trial < 80; trial++ {
		g := workload.RandomLayeredDAG(rng, 1+rng.Intn(3), 1+rng.Intn(3), 4, 0.6)
		has, _ := k4.HasK4Subdivision(g)
		ok, _ := cycles.IsCS4(g)
		tested++
		if has {
			flagged++
			if ok {
				t.Fatalf("trial %d: prefilter rejected a CS4 graph (Lemma V.1 violated):\n%s",
					trial, g)
			}
		}
	}
	if flagged == 0 {
		t.Log("no instance contained K4; prefilter untested against positives here (butterfly test covers it)")
	}
	t.Logf("prefilter rejected %d/%d layered DAGs", flagged, tested)
}

// TestPrefilterConsistentWithClassifier: classification and the prefilter
// never contradict (prefilter false ⇒ class general).
func TestPrefilterConsistentWithClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		g := workload.RandomLayeredDAG(rng, 1+rng.Intn(3), 2, 4, 0.5)
		has, _ := k4.HasK4Subdivision(g)
		d, err := cs4.Classify(g)
		if err != nil {
			t.Fatal(err)
		}
		if has && d.Class != cs4.ClassGeneral {
			t.Fatalf("trial %d: prefilter impossible but class %v:\n%s", trial, d.Class, g)
		}
	}
}
