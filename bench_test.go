package streamdag

// These benchmarks regenerate every figure-level claim of the paper
// (`go run ./cmd/experiments` prints the results as tables and checks
// them):
//
//	E2   Fig. 2 deadlock demonstration
//	E3   Fig. 3 worked intervals
//	E4   §IV-A  Propagation on SP-DAGs, O(|G|)
//	E5   §IV-B  Non-Propagation on SP-DAGs, O(|G|²)
//	E6   §II    exponential general-DAG baseline
//	E7   Fig. 4 classification (CS4 vs general)
//	E8   Fig. 5/6 ladder decomposition
//	E9   §VI    ladder algorithms, O(|G|) and O(|G|³)
//	E10  safety sweep under the protocols
//	E12  dummy-traffic overhead, Propagation vs Non-Propagation
//	E13  conclusion's butterfly rewrite
//
// plus the design-decision ablations.  Complexity claims show up as how
// ns/op scales across the size sub-benchmarks.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"streamdag/internal/cs4"
	"streamdag/internal/cycles"
	"streamdag/internal/graph"
	"streamdag/internal/ival"
	"streamdag/internal/ladder"
	"streamdag/internal/sim"
	"streamdag/internal/sp"
	"streamdag/internal/workload"
)

func BenchmarkE2_DeadlockDemo(b *testing.B) {
	g := workload.Fig2Triangle(2)
	var drop graph.EdgeID
	for _, e := range g.Edges() {
		if g.Name(e.From) == "A" && g.Name(e.To) == "C" {
			drop = e.ID
		}
	}
	filter := workload.DropEdge(drop)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := sim.Run(g, sim.Filter(filter), sim.Config{Inputs: 100})
		if r.Completed {
			b.Fatal("expected deadlock")
		}
	}
}

func BenchmarkE3_Fig3Intervals(b *testing.B) {
	g := workload.Fig3Cycle()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := sp.PropagationIntervals(g)
		if err != nil {
			b.Fatal(err)
		}
		n, err := sp.NonPropagationIntervals(g)
		if err != nil {
			b.Fatal(err)
		}
		if len(p) != 6 || len(n) != 6 {
			b.Fatal("wrong edge count")
		}
	}
}

func spSizes() []int { return []int{256, 1024, 4096, 16384} }

func BenchmarkE4_SPPropagation(b *testing.B) {
	for _, n := range spSizes() {
		g := workload.RandomSP(rand.New(rand.NewSource(int64(n))), n, 8)
		b.Run(fmt.Sprintf("leaves=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sp.PropagationIntervals(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE5_SPNonPropagation(b *testing.B) {
	for _, n := range spSizes() {
		g := workload.RandomSP(rand.New(rand.NewSource(int64(n))), n, 8)
		b.Run(fmt.Sprintf("leaves=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sp.NonPropagationIntervals(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE6_ExhaustiveBaseline(b *testing.B) {
	for _, layers := range []int{2, 3, 4} {
		g := workload.RandomLayeredDAG(rand.New(rand.NewSource(int64(layers))), layers, 3, 8, 0.5)
		nc := cycles.Count(g)
		b.Run(fmt.Sprintf("layers=%d/cycles=%d", layers, nc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cycles.PropagationIntervals(g)
			}
		})
	}
}

func BenchmarkE7_Fig4(b *testing.B) {
	cross := workload.Fig4CrossedSplitJoin(2)
	fly := workload.Fig4Butterfly(2)
	b.Run("crossed-splitjoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, err := cs4.Classify(cross)
			if err != nil || d.Class != cs4.ClassCS4 {
				b.Fatalf("class=%v err=%v", d.Class, err)
			}
		}
	})
	b.Run("butterfly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, err := cs4.Classify(fly)
			if err != nil || d.Class != cs4.ClassGeneral {
				b.Fatalf("class=%v err=%v", d.Class, err)
			}
		}
	})
}

func BenchmarkE8_LadderDecompose(b *testing.B) {
	g := workload.RandomLadder(rand.New(rand.NewSource(8)), 64, 8, 0.2, 0.3)
	edges := make([]graph.EdgeID, g.NumEdges())
	for i := range edges {
		edges[i] = graph.EdgeID(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ladder.Recognize(g, edges, g.Source(), g.Sink()); err != nil {
			b.Fatal(err)
		}
	}
}

func ladders(b *testing.B, rungs int) *ladder.Ladder {
	g := workload.RandomLadder(rand.New(rand.NewSource(int64(rungs))), rungs, 8, 0.2, 0.3)
	edges := make([]graph.EdgeID, g.NumEdges())
	for i := range edges {
		edges[i] = graph.EdgeID(i)
	}
	l, err := ladder.Recognize(g, edges, g.Source(), g.Sink())
	if err != nil {
		b.Fatal(err)
	}
	return l
}

func BenchmarkE9_LadderPropagation(b *testing.B) {
	for _, rungs := range []int{16, 64, 256, 1024} {
		l := ladders(b, rungs)
		b.Run(fmt.Sprintf("rungs=%d", rungs), func(b *testing.B) {
			out := make(map[graph.EdgeID]ival.Interval, l.G.NumEdges())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.PropagationIntervalsLinear(out)
			}
		})
	}
}

func BenchmarkE9_LadderNonProp(b *testing.B) {
	for _, rungs := range []int{8, 16, 32, 64} {
		l := ladders(b, rungs)
		b.Run(fmt.Sprintf("rungs=%d", rungs), func(b *testing.B) {
			out := make(map[graph.EdgeID]ival.Interval, l.G.NumEdges())
			for i := 0; i < b.N; i++ {
				l.NonPropagationIntervals(out)
			}
		})
	}
}

func BenchmarkE10_SafetySweep(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	g := workload.RandomSP(rng, 24, 4)
	d, err := cs4.Classify(g)
	if err != nil {
		b.Fatal(err)
	}
	iv, err := d.Intervals(cs4.NonPropagation)
	if err != nil {
		b.Fatal(err)
	}
	filter := workload.Bernoulli(0.3, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := sim.Run(g, sim.Filter(filter), sim.Config{
			Algorithm: cs4.NonPropagation, Intervals: iv, Inputs: 500,
		})
		if !r.Completed {
			b.Fatal("deadlocked")
		}
	}
}

// BenchmarkE12_DummyOverhead reports dummy-per-data overhead as a custom
// metric across filter rates, for both protocols, on the Fig. 1 topology.
func BenchmarkE12_DummyOverhead(b *testing.B) {
	g := workload.Fig1SplitJoin(8)
	d, err := cs4.Classify(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range []cs4.Algorithm{cs4.Propagation, cs4.NonPropagation} {
		iv, err := d.Intervals(alg)
		if err != nil {
			b.Fatal(err)
		}
		for _, rate := range []float64{0.9, 0.5, 0.1} {
			name := fmt.Sprintf("%v/pass=%.1f", alg, rate)
			b.Run(name, func(b *testing.B) {
				filter := workload.SourceRouting(g.Source(),
					workload.PassAll, workload.PerInputBernoulli(rate, 12))
				var overhead float64
				for i := 0; i < b.N; i++ {
					r := sim.Run(g, sim.Filter(filter), sim.Config{
						Algorithm: alg, Intervals: iv, Inputs: 2000,
					})
					if !r.Completed {
						b.Fatal("deadlocked")
					}
					overhead = r.Overhead()
				}
				b.ReportMetric(overhead, "dummies/data")
			})
		}
	}
}

func BenchmarkE13_Rewrite(b *testing.B) {
	g := workload.Fig4Butterfly(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ng, _, err := cs4.RewriteButterfly(g)
		if err != nil {
			b.Fatal(err)
		}
		d, err := cs4.Classify(ng)
		if err != nil || d.Class == cs4.ClassGeneral {
			b.Fatal("rewrite failed")
		}
	}
}

// Ablation 2 of DESIGN.md: top-down SETIVALS vs the naive bottom-up
// formulation.
func BenchmarkAblation_SetivalsVsNaive(b *testing.B) {
	g := workload.RandomSP(rand.New(rand.NewSource(2048)), 2048, 8)
	b.Run("setivals", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sp.PropagationIntervals(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sp.PropagationIntervalsNaive(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation 3: per-leaf walk-up vs materialized h(H,e) tables.
func BenchmarkAblation_NonPropWalkupVsTable(b *testing.B) {
	g := workload.RandomSP(rand.New(rand.NewSource(1024)), 1024, 8)
	b.Run("walkup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sp.NonPropagationIntervals(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sp.NonPropagationIntervalsTable(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: O(K²) face-pair enumeration vs the paper's O(|G|) recurrences
// for ladder propagation.
func BenchmarkAblation_LadderLinearVsPairs(b *testing.B) {
	l := ladders(b, 512)
	out := make(map[graph.EdgeID]ival.Interval, l.G.NumEdges())
	b.Run("pairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l.PropagationIntervals(out)
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l.PropagationIntervalsLinear(out)
		}
	})
}

// BenchmarkRuntimeThroughput measures the goroutine runtime end to end on
// a protected pipeline (messages/second as items processed per op).  It
// is the profiling entry point for the runtime — `go test -run '^$' -bench
// RuntimeThroughput -cpuprofile|-memprofile|-blockprofile <file> .` —
// and reports no figure the docs quote: throughput claims come from
// `bash bench/run.sh` (DESIGN.md "Cost budget").
func BenchmarkRuntimeThroughput(b *testing.B) {
	topo := NewTopology()
	topo.Channel("s0", "s1", 64)
	topo.Channel("s1", "s2", 64)
	topo.Channel("s2", "s3", 64)
	p, err := Build(topo, WithAlgorithm(NonPropagation))
	if err != nil {
		b.Fatal(err)
	}
	const items = 20000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stats, err := p.Run(context.Background(), CountingSource(items), nil)
		if err != nil {
			b.Fatal(err)
		}
		if stats.SinkData != items {
			b.Fatalf("sink saw %d", stats.SinkData)
		}
	}
	b.ReportMetric(float64(items*b.N)/b.Elapsed().Seconds(), "msgs/s")
}
