// Experiments regenerates every figure-level artifact of the paper, run
// end to end and printed as markdown tables (bench_test.go's header is the
// per-experiment index), and checks the ones that state a result: it exits
// non-zero when Fig. 3's intervals differ from the paper's, Fig. 2 does not
// deadlock unprotected or does under either protocol, the safety sweep
// deadlocks a protected run, or the fast algorithms disagree with the
// exhaustive baseline.  The timing tables (E4–E9) are informational.
//
//	go run ./cmd/experiments > experiments.out.md
package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"streamdag/internal/cs4"
	"streamdag/internal/cycles"
	"streamdag/internal/graph"
	"streamdag/internal/ival"
	"streamdag/internal/ladder"
	"streamdag/internal/sim"
	"streamdag/internal/sp"
	"streamdag/internal/workload"
)

// checks are the experiments whose result the paper states: each prints
// its table and returns an error when this run does not reproduce it.
var checks = []func() error{e3, e2e11, e10, e14}

func main() {
	fmt.Println("# streamdag experiment run")
	fmt.Printf("\ngenerated %s\n", time.Now().UTC().Format(time.RFC3339))
	var errs []error
	for _, check := range checks {
		errs = append(errs, check())
	}
	e7()
	e8()
	e45()
	e9()
	e6()
	e12()
	e13()
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: the paper's results did not reproduce:\n%v\n", err)
		os.Exit(1)
	}
}

func header(id, title string) {
	fmt.Printf("\n## %s — %s\n\n", id, title)
}

// e3 prints the Fig. 3 interval table next to the paper's values and
// fails on every cell that differs.
func e3() error {
	header("E3", "Fig. 3 worked intervals")
	g := workload.Fig3Cycle()
	prop, err := sp.PropagationIntervals(g)
	if err != nil {
		return fmt.Errorf("E3: propagation intervals: %w", err)
	}
	np, err := sp.NonPropagationIntervals(g)
	if err != nil {
		return fmt.Errorf("E3: non-propagation intervals: %w", err)
	}
	paperProp := map[string]string{"a->b": "6", "a->c": "8"}
	paperNP := map[string]string{
		"a->b": "2", "b->e": "2", "e->f": "2",
		"a->c": "8/3", "c->d": "8/3", "d->f": "8/3",
	}
	fmt.Println("| edge | paper prop | ours prop | paper non-prop | ours non-prop |")
	fmt.Println("|---|---|---|---|---|")
	var errs []error
	for _, e := range g.Edges() {
		name := g.Name(e.From) + "->" + g.Name(e.To)
		pp := paperProp[name]
		if pp == "" {
			pp = "∞"
		}
		fmt.Printf("| %s | %s | %v | %s | %v |\n", name, pp, prop[e.ID], paperNP[name], np[e.ID])
		if got := prop[e.ID].String(); got != pp {
			errs = append(errs, fmt.Errorf("E3: propagation interval of %s is %s, the paper's is %s", name, got, pp))
		}
		if got := np[e.ID].String(); got != paperNP[name] {
			errs = append(errs, fmt.Errorf("E3: non-propagation interval of %s is %s, the paper's is %s", name, got, paperNP[name]))
		}
	}
	return errors.Join(errs...)
}

// e2e11 demonstrates the Fig. 2 deadlock and both remedies: the
// unprotected run must deadlock and both protected runs complete.  The
// unprotected run's blocked-node snapshot is printed under the table.
func e2e11() error {
	header("E2/E11", "Fig. 2 deadlock and avoidance")
	g := workload.Fig2Triangle(2)
	var ac graph.EdgeID
	for _, e := range g.Edges() {
		if g.Name(e.From) == "A" && g.Name(e.To) == "C" {
			ac = e.ID
		}
	}
	filter := workload.DropEdge(ac)
	d, err := cs4.Classify(g)
	if err != nil {
		return fmt.Errorf("E2/E11: classify Fig. 2: %w", err)
	}
	fmt.Println("| protection | completed | data msgs | dummy msgs |")
	fmt.Println("|---|---|---|---|")
	var errs []error
	run := func(label string, alg cs4.Algorithm, iv map[graph.EdgeID]ival.Interval) *sim.Result {
		r := sim.Run(g, sim.Filter(filter), sim.Config{
			Algorithm: alg, Intervals: iv, Inputs: 1000,
		})
		fmt.Printf("| %s | %v | %d | %d |\n", label, r.Completed, r.TotalData(), r.TotalDummy())
		if protected := iv != nil; r.Completed != protected {
			errs = append(errs, fmt.Errorf("E2/E11: Fig. 2 with protection %q: completed = %v, want %v", label, r.Completed, protected))
		}
		return r
	}
	unprotected := run("none", cs4.Propagation, nil)
	for _, alg := range []cs4.Algorithm{cs4.Propagation, cs4.NonPropagation} {
		iv, err := d.Intervals(alg)
		if err != nil {
			return fmt.Errorf("E2/E11: %v intervals: %w", alg, err)
		}
		run(alg.String(), alg, iv)
	}
	fmt.Printf("\nunprotected: %s after %d steps\n\n", unprotected.Reason, unprotected.Steps)
	for _, b := range unprotected.Blocked {
		fmt.Printf("- %s\n", b)
	}
	return errors.Join(errs...)
}

// e7 classifies the two Fig. 4 graphs.
func e7() {
	header("E7", "Fig. 4 classification")
	for name, g := range map[string]*graph.Graph{
		"crossed split/join": workload.Fig4CrossedSplitJoin(1),
		"butterfly":          workload.Fig4Butterfly(1),
	} {
		d, _ := cs4.Classify(g)
		w := ""
		if d.Witness != nil {
			w = d.Witness.Describe(g)
		}
		fmt.Printf("- %s: class **%v** %s\n", name, d.Class, w)
	}
}

// e8 decomposes a Fig. 5-style ladder.
func e8() {
	header("E8", "ladder decomposition (Fig. 5/6 structure)")
	g := workload.RandomLadder(rand.New(rand.NewSource(5)), 4, 4, 0.3, 0.4)
	edges := make([]graph.EdgeID, g.NumEdges())
	for i := range edges {
		edges[i] = graph.EdgeID(i)
	}
	l, err := ladder.Recognize(g, edges, g.Source(), g.Sink())
	if err != nil {
		fmt.Printf("recognition failed: %v\n", err)
		return
	}
	fmt.Printf("random 4-rung ladder (%d nodes, %d edges): %s\n",
		g.NumNodes(), g.NumEdges(), l)
}

// e45 measures SP interval computation across sizes.
func e45() {
	header("E4/E5", "SP-DAG interval computation scaling")
	fmt.Println("| leaves | edges | propagation | non-propagation |")
	fmt.Println("|---|---|---|---|")
	for _, n := range []int{256, 1024, 4096, 16384} {
		g := workload.RandomSP(rand.New(rand.NewSource(int64(n))), n, 8)
		tp := timeIt(func() { sp.PropagationIntervals(g) })
		tn := timeIt(func() { sp.NonPropagationIntervals(g) })
		fmt.Printf("| %d | %d | %v | %v |\n", n, g.NumEdges(), tp, tn)
	}
}

// e9 measures ladder interval computation across rung counts.
func e9() {
	header("E9", "SP-ladder interval computation scaling")
	fmt.Println("| rungs | edges | prop (linear) | prop (pairs) | non-prop |")
	fmt.Println("|---|---|---|---|---|")
	for _, rungs := range []int{16, 64, 256} {
		g := workload.RandomLadder(rand.New(rand.NewSource(int64(rungs))), rungs, 8, 0.2, 0.3)
		edges := make([]graph.EdgeID, g.NumEdges())
		for i := range edges {
			edges[i] = graph.EdgeID(i)
		}
		l, err := ladder.Recognize(g, edges, g.Source(), g.Sink())
		if err != nil {
			fmt.Printf("| %d | - | recognition failed: %v |\n", rungs, err)
			continue
		}
		out := make(map[graph.EdgeID]ival.Interval, g.NumEdges())
		tl := timeIt(func() { l.PropagationIntervalsLinear(out) })
		tp := timeIt(func() { l.PropagationIntervals(out) })
		tn := timeIt(func() { l.NonPropagationIntervals(out) })
		fmt.Printf("| %d | %d | %v | %v | %v |\n", rungs, g.NumEdges(), tl, tp, tn)
	}
}

// e6 measures the exponential baseline.
func e6() {
	header("E6", "exhaustive general-DAG baseline")
	fmt.Println("| layers | edges | cycles | time |")
	fmt.Println("|---|---|---|---|")
	for _, layers := range []int{2, 3, 4, 5} {
		g := workload.RandomLayeredDAG(rand.New(rand.NewSource(int64(layers))), layers, 3, 8, 0.5)
		n := cycles.Count(g)
		t := timeIt(func() { cycles.PropagationIntervals(g) })
		fmt.Printf("| %d | %d | %d | %v |\n", layers, g.NumEdges(), n, t)
	}
}

// e10 runs the safety sweep: no protected run may fail to complete.
func e10() error {
	header("E10/E11", "safety sweep on random SP/CS4 topologies")
	rng := rand.New(rand.NewSource(97))
	const trials = 120
	protectedFailures := 0
	unprotectedDeadlocks := 0
	for trial := 0; trial < trials; trial++ {
		var g *graph.Graph
		if trial%2 == 0 {
			g = workload.RandomSP(rng, 2+rng.Intn(8), 3)
		} else {
			g = workload.RandomCS4(rng, 1+rng.Intn(2), 3, 0.7)
		}
		perEdge := workload.Bernoulli(0.3, uint64(trial))
		d, err := cs4.Classify(g)
		if err != nil {
			return fmt.Errorf("E10: classify trial %d: %w", trial, err)
		}
		iv, err := d.Intervals(cs4.NonPropagation)
		if err != nil {
			return fmt.Errorf("E10: intervals of trial %d: %w", trial, err)
		}
		r := sim.Run(g, sim.Filter(perEdge), sim.Config{
			Algorithm: cs4.NonPropagation, Intervals: iv, Inputs: 150, MaxSteps: 2_000_000,
		})
		if !r.Completed {
			protectedFailures++
		}
		r = sim.Run(g, sim.Filter(perEdge), sim.Config{Inputs: 150, MaxSteps: 2_000_000})
		if !r.Completed && r.Reason == "deadlock" {
			unprotectedDeadlocks++
		}
	}
	fmt.Printf("- %d random topologies, adversarial per-edge Bernoulli(0.3) filtering\n", trials)
	fmt.Printf("- protected (non-propagation): **%d deadlocks**\n", protectedFailures)
	fmt.Printf("- unprotected: **%d deadlocks** (%d%%)\n",
		unprotectedDeadlocks, unprotectedDeadlocks*100/trials)
	if protectedFailures > 0 {
		return fmt.Errorf("E10: %d of %d protected runs did not complete", protectedFailures, trials)
	}
	return nil
}

// e12 sweeps dummy overhead against filter rate for both protocols.
func e12() {
	header("E12", "dummy-message overhead vs filtering rate (Fig. 1 topology)")
	g := workload.Fig1SplitJoin(8)
	d, _ := cs4.Classify(g)
	fmt.Println("| pass rate | propagation overhead | non-propagation overhead |")
	fmt.Println("|---|---|---|")
	for _, rate := range []float64{0.9, 0.7, 0.5, 0.3, 0.1, 0.05} {
		row := fmt.Sprintf("| %.2f |", rate)
		for _, alg := range []cs4.Algorithm{cs4.Propagation, cs4.NonPropagation} {
			iv, _ := d.Intervals(alg)
			filter := workload.SourceRouting(g.Source(),
				workload.PassAll, workload.PerInputBernoulli(rate, 12))
			r := sim.Run(g, sim.Filter(filter), sim.Config{
				Algorithm: alg, Intervals: iv, Inputs: 20000,
			})
			row += fmt.Sprintf(" %.4f |", r.Overhead())
		}
		fmt.Println(row)
	}
}

// e13 reports the butterfly rewrite.
func e13() {
	header("E13", "conclusion's butterfly rewrite")
	g := workload.Fig4Butterfly(2)
	ng, desc, err := cs4.RewriteButterfly(g)
	if err != nil {
		fmt.Println("failed:", err)
		return
	}
	d, _ := cs4.Classify(ng)
	ok, _ := cycles.IsCS4(ng)
	fmt.Printf("- %s → class **%v**, exhaustive CS4 check: %v\n", desc, d.Class, ok)
}

// e14 cross-validates the fast algorithms against the baseline: any
// instance on which they disagree is a failure.
func e14() error {
	header("E14", "cross-validation: fast algorithms vs exhaustive baseline")
	rng := rand.New(rand.NewSource(83))
	tested, mismatches := 0, 0
	for trial := 0; trial < 150; trial++ {
		g := workload.RandomCS4(rng, 1+rng.Intn(4), 5, 0.5)
		d, err := cs4.Classify(g)
		if err != nil || d.Class == cs4.ClassGeneral {
			continue
		}
		ref, err := cycles.PropagationIntervalsLimit(g, 100000)
		if err != nil {
			continue
		}
		tested++
		got, _ := d.Intervals(cs4.Propagation)
		for e, v := range ref {
			if !got[e].Equal(v) {
				mismatches++
				break
			}
		}
		refN := cycles.NonPropagationIntervals(g)
		gotN, _ := d.Intervals(cs4.NonPropagation)
		for e, v := range refN {
			if !gotN[e].Equal(v) {
				mismatches++
				break
			}
		}
	}
	fmt.Printf("- %d random CS4 instances, both algorithms: **%d mismatches**\n", tested, mismatches)
	if mismatches > 0 || tested == 0 {
		return fmt.Errorf("E14: %d mismatches against the exhaustive baseline in %d instances tested", mismatches, tested)
	}
	return nil
}

func timeIt(f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best.Round(time.Microsecond)
}
