package sim

import (
	"math/rand"
	"strings"
	"testing"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/workload"
)

func edgeByNames(t testing.TB, g *graph.Graph, from, to string) graph.EdgeID {
	t.Helper()
	f, k := g.MustNode(from), g.MustNode(to)
	for _, e := range g.Edges() {
		if e.From == f && e.To == k {
			return e.ID
		}
	}
	t.Fatalf("no edge %s->%s", from, to)
	return 0
}

func TestPipelineCompletes(t *testing.T) {
	g := workload.Pipeline(5, 2)
	r := Run(g, EmitAll, Config{Inputs: 100})
	if !r.Completed {
		t.Fatalf("pipeline did not complete: %s %v", r.Reason, r.Blocked)
	}
	if got := r.TotalData(); got != 400 {
		t.Errorf("data messages = %d, want 400 (100 × 4 edges)", got)
	}
	if r.TotalDummy() != 0 {
		t.Errorf("dummies = %d, want 0", r.TotalDummy())
	}
}

func TestSplitJoinNoFilterCompletes(t *testing.T) {
	// Without filtering, SDF-style split/join never deadlocks (§I).
	g := workload.Fig1SplitJoin(1)
	r := Run(g, EmitAll, Config{Inputs: 500})
	if !r.Completed {
		t.Fatalf("did not complete: %s %v", r.Reason, r.Blocked)
	}
}

// TestFig2Deadlock is experiment E2: the triangle of Fig. 2 deadlocks when
// A filters everything toward C and buffers are finite.
func TestFig2Deadlock(t *testing.T) {
	g := workload.Fig2Triangle(2)
	drop := workload.DropEdge(edgeByNames(t, g, "A", "C"))
	r := Run(g, Filter(drop), Config{Inputs: 100})
	if r.Completed {
		t.Fatal("expected deadlock")
	}
	if r.Reason != "deadlock" {
		t.Fatalf("reason = %q", r.Reason)
	}
	// The blocked report must show the Fig. 2 pattern: C waiting on the
	// empty A→C channel.
	found := false
	for _, b := range r.Blocked {
		if strings.Contains(b, "C waiting") && strings.Contains(b, "A→C") {
			found = true
		}
	}
	if !found {
		t.Errorf("blocked report %v lacks C waiting on A→C", r.Blocked)
	}
}

// TestFig2Avoidance: with Propagation intervals computed by the paper's
// algorithm, the same adversarial run completes.
func TestFig2Avoidance(t *testing.T) {
	g := workload.Fig2Triangle(2)
	drop := workload.DropEdge(edgeByNames(t, g, "A", "C"))
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []cs4.Algorithm{cs4.Propagation, cs4.NonPropagation} {
		iv, err := d.Intervals(alg)
		if err != nil {
			t.Fatal(err)
		}
		r := Run(g, Filter(drop), Config{Algorithm: alg, Intervals: iv, Inputs: 200})
		if !r.Completed {
			t.Fatalf("%v: deadlocked despite dummies: %v", alg, r.Blocked)
		}
		if r.TotalDummy() == 0 {
			t.Errorf("%v: no dummies sent", alg)
		}
	}
}

// TestDeadlockNeedsEnoughInputs: with few inputs the buffers absorb the
// imbalance and the run drains at EOS.
func TestDeadlockNeedsEnoughInputs(t *testing.T) {
	g := workload.Fig2Triangle(8)
	drop := workload.DropEdge(edgeByNames(t, g, "A", "C"))
	r := Run(g, Filter(drop), Config{Inputs: 4})
	if !r.Completed {
		t.Fatalf("short run should drain: %v", r.Blocked)
	}
}

func TestStepBudget(t *testing.T) {
	g := workload.Pipeline(3, 1)
	r := Run(g, EmitAll, Config{Inputs: 1000, MaxSteps: 10})
	if r.Completed || r.Reason != "step budget" {
		t.Errorf("got %v/%q", r.Completed, r.Reason)
	}
}

func TestEOSDrainsFilteredSink(t *testing.T) {
	// Everything filtered mid-pipeline: the sink sees only EOS, and the
	// run still completes (EOS is broadcast, never filtered).
	g := workload.Pipeline(3, 2)
	mid := g.MustNode("s1")
	f := func(n graph.NodeID, seq uint64, e graph.EdgeID) bool { return n != mid }
	r := Run(g, f, Config{Inputs: 50})
	if !r.Completed {
		t.Fatalf("did not complete: %v", r.Blocked)
	}
	last := edgeByNames(t, g, "s1", "s2")
	if r.DataMsgs[last] != 0 {
		t.Errorf("sink received %d data messages, want 0", r.DataMsgs[last])
	}
}

func TestProofOfPropagation(t *testing.T) {
	// In a two-level pipeline of triangles, dummies injected upstream
	// must propagate through interior nodes under the Propagation
	// algorithm.  Construct: A→B→C triangle followed by C→D→E triangle.
	g, err := graph.ParseString(`
A B 2
B C 2
A C 2
C D 2
D E 2
C E 2
`)
	if err != nil {
		t.Fatal(err)
	}
	// A drops toward C and C drops toward E: both chords starve.
	f := workload.Compose(
		workload.DropEdge(edgeByNames(t, g, "A", "C")),
		workload.DropEdge(edgeByNames(t, g, "C", "E")),
	)
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := d.Intervals(cs4.Propagation)
	if err != nil {
		t.Fatal(err)
	}
	r := Run(g, Filter(f), Config{Algorithm: cs4.Propagation, Intervals: iv, Inputs: 300})
	if !r.Completed {
		t.Fatalf("deadlocked: %v", r.Blocked)
	}
}

// TestSafetyPropertyRandom is experiment E10: on random SP and CS4 graphs,
// runs with computed intervals never deadlock; E11: with dummies disabled,
// some do.  Non-Propagation is exercised with fully adversarial per-edge
// filtering; Propagation with its soundness class — per-output routing at
// the source, all-or-nothing filtering elsewhere (see DESIGN.md, "Protocol
// soundness", and TestPropagationInteriorSplitCounterexample).
func TestSafetyPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	deadlocksWithout := 0
	for trial := 0; trial < 120; trial++ {
		var g *graph.Graph
		if trial%2 == 0 {
			g = workload.RandomSP(rng, 2+rng.Intn(8), 3)
		} else {
			g = workload.RandomCS4(rng, 1+rng.Intn(2), 3, 0.7)
		}
		var perEdge workload.FilterFunc
		switch trial % 3 {
		case 0:
			perEdge = workload.Bernoulli(0.5, uint64(trial))
		case 1:
			perEdge = workload.Bernoulli(0.15, uint64(trial))
		default:
			// Adversarial: starve one random out-edge of a split node.
			var split []graph.EdgeID
			for n := 0; n < g.NumNodes(); n++ {
				if g.OutDegree(graph.NodeID(n)) >= 2 {
					split = append(split, g.Out(graph.NodeID(n))[0])
				}
			}
			if len(split) == 0 {
				perEdge = workload.PassAll
			} else {
				perEdge = workload.DropEdge(split[rng.Intn(len(split))])
			}
		}
		propFilter := workload.SourceRouting(g.Source(), perEdge,
			workload.PerInputBernoulli(0.6, uint64(trial)))
		d, err := cs4.Classify(g)
		if err != nil || d.Class == cs4.ClassGeneral {
			t.Fatalf("trial %d: bad generator output: %v", trial, err)
		}
		cases := []struct {
			alg    cs4.Algorithm
			filter workload.FilterFunc
		}{
			{cs4.Propagation, propFilter},
			{cs4.NonPropagation, perEdge},
		}
		for _, c := range cases {
			iv, err := d.Intervals(c.alg)
			if err != nil {
				t.Fatal(err)
			}
			r := Run(g, Filter(c.filter), Config{
				Algorithm: c.alg, Intervals: iv, Inputs: 150, MaxSteps: 2_000_000,
			})
			if !r.Completed {
				t.Fatalf("trial %d alg %v: run failed (%s)\nblocked: %v\ngraph: %s",
					trial, c.alg, r.Reason, r.Blocked, g)
			}
		}
		r := Run(g, Filter(perEdge), Config{Inputs: 150, MaxSteps: 2_000_000})
		if !r.Completed && r.Reason == "deadlock" {
			deadlocksWithout++
		}
	}
	// E11: the hazard is real — a meaningful share of unprotected runs
	// deadlock.  (The exact count is deterministic given the seed.)
	if deadlocksWithout == 0 {
		t.Error("no unprotected run deadlocked; filters too benign for E11")
	}
	t.Logf("unprotected deadlocks: %d/120", deadlocksWithout)
}

// TestPropagationInteriorSplitCounterexample pins a reproduction finding:
// under the published Propagation discipline (interval timers only at
// cycle sources, dummies forwarded, fully filtered inputs cascaded), an
// interior split that filters per-output can still deadlock a CS4 graph.
// In this 8-node ladder, node lu2_0's rung carries interval 3 (from the
// cycle lu2_0 sources) but lies interior to the cycle t0–lu2_0–lv2_0,
// whose full side holds only 2 messages; Bernoulli routing at lu2_0
// starves the rung for 3 sequence numbers while t0's side fills.  The
// Non-Propagation algorithm, whose timers bound every cycle edge, handles
// the identical run.
func TestPropagationInteriorSplitCounterexample(t *testing.T) {
	g, err := graph.ParseString(`
t0 lu2_0 1
lu2_0 lu2_1 3
lu2_1 lu2_2 1
lu2_2 t1 2
t0 lv2_0 2
lv2_0 lv2_1 1
lv2_1 lv2_2 3
lv2_2 t1 1
lu2_0 lv2_0 3
lv2_1 lu2_1 1
lu2_2 lv2_2 1
`)
	if err != nil {
		t.Fatal(err)
	}
	filter := workload.Bernoulli(0.5, 15)
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	ivP, err := d.Intervals(cs4.Propagation)
	if err != nil {
		t.Fatal(err)
	}
	r := Run(g, Filter(filter), Config{
		Algorithm: cs4.Propagation, Intervals: ivP, Inputs: 150, MaxSteps: 2_000_000,
	})
	if r.Completed {
		t.Error("expected the interior-split counterexample to deadlock under Propagation")
	}
	ivN, err := d.Intervals(cs4.NonPropagation)
	if err != nil {
		t.Fatal(err)
	}
	rn := Run(g, Filter(filter), Config{
		Algorithm: cs4.NonPropagation, Intervals: ivN, Inputs: 150, MaxSteps: 2_000_000,
	})
	if !rn.Completed {
		t.Errorf("Non-Propagation should complete: %s %v", rn.Reason, rn.Blocked)
	}
}

// TestRoundingPolicy probes E10's rounding question on Fig. 3: ceiling
// the 8/3 interval is the paper's published policy; verify it is safe in
// this runtime on the Fig. 3 topology under full starvation of one path.
func TestRoundingPolicy(t *testing.T) {
	g := workload.Fig3Cycle()
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := d.Intervals(cs4.NonPropagation)
	if err != nil {
		t.Fatal(err)
	}
	// Starve the a→c path entirely.
	drop := workload.DropEdge(edgeByNames(t, g, "a", "c"))
	r := Run(g, Filter(drop), Config{Algorithm: cs4.NonPropagation, Intervals: iv, Inputs: 500})
	if !r.Completed {
		t.Fatalf("ceiling deadlocked: %v", r.Blocked)
	}
}

func TestOverheadStats(t *testing.T) {
	g := workload.Fig2Triangle(2)
	drop := workload.DropEdge(edgeByNames(t, g, "A", "C"))
	d, _ := cs4.Classify(g)
	iv, _ := d.Intervals(cs4.Propagation)
	r := Run(g, Filter(drop), Config{Algorithm: cs4.Propagation, Intervals: iv, Inputs: 100})
	if !r.Completed {
		t.Fatal("deadlocked")
	}
	if r.Overhead() <= 0 {
		t.Errorf("overhead = %v, want > 0", r.Overhead())
	}
	if r.TotalData() == 0 || r.Steps == 0 {
		t.Error("stats not recorded")
	}
}

// TestCS4WitnessDeadlock demonstrates that the butterfly (outside CS4) can
// deadlock under crossing-starvation filtering, motivating the rewrite.
func TestCS4WitnessDeadlock(t *testing.T) {
	g := workload.Fig4Butterfly(2)
	f := workload.Compose(
		workload.DropEdge(edgeByNames(t, g, "a", "B")),
		workload.DropEdge(edgeByNames(t, g, "b", "A")),
	)
	r := Run(g, Filter(f), Config{Inputs: 200})
	if r.Completed {
		t.Skip("butterfly run completed; filter did not provoke deadlock")
	}
	if r.Reason != "deadlock" {
		t.Errorf("reason = %s", r.Reason)
	}
}
