// Bioinformatics models a BLAST-style sequence-search accelerator in the
// style of the authors' Mercury BLAST work, and demonstrates where the
// two API tiers meet:
//
//  1. The typed Flow builder expresses the accelerator's series-parallel
//     core — a heavily filtering seed matcher feeding two parallel
//     scoring paths that rejoin at a reporter — with the ungapped score
//     riding inside the candidate, so the "hint" is local to the
//     payload.
//
//  2. The kernel tier expresses what the stage vocabulary cannot: the
//     real accelerator's one-way hint channel linking the two scoring
//     paths.  That cross-link makes the topology CS4 but not
//     series-parallel (the paper's Fig. 4 left), exercising the
//     SP-ladder algorithms of §VI — exactly the irregular-topology case
//     the kernel API remains for.
//
// Reads stream in through a typed Source; reported alignments stream out
// through a Sink.
//
//	go run ./examples/bioinformatics
package main

import (
	"context"
	"fmt"
	"log"

	"streamdag"
)

type candidate struct {
	query  uint64
	score  int
	hinted bool
}

func hash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

const reads = 20_000

func main() {
	flowTier()
	kernelTier()
}

// reader supplies a fresh typed Source per run.
func reader() streamdag.Source {
	var next uint64
	return streamdag.TypedSource(func(context.Context) (candidate, bool, error) {
		if next >= reads {
			return candidate{}, false, nil
		}
		c := candidate{query: next}
		next++
		return c, true, nil
	})
}

// flowTier builds the series-parallel core with typed stages: seeder →
// ungapped scorer → {report path, gapped path} → reporter.
func flowTier() {
	// The seeder filters ~85% of reads (no seed hit) — the paper's
	// headline filtering behavior.
	seeder := streamdag.FilterStage("seeder", func(c candidate) bool {
		return hash(c.query)%100 >= 85
	})
	// Ungapped extension scores every surviving read; the score rides in
	// the candidate, so the downstream gapped stage sees its "hint"
	// without a cross-link.
	ungapped := streamdag.Map("ungapped", func(c candidate) candidate {
		c.score = int(hash(c.query^0xbeef) % 100)
		return c
	})
	// Fast path: report strong ungapped hits directly.
	report := streamdag.FilterStage("ungapped.report", func(c candidate) bool {
		return c.score >= 50
	})
	// Slow path: gapped alignment; hinted queries always align, others
	// rarely do.
	gapped := streamdag.FilterMap("gapped", func(c candidate) (candidate, bool) {
		c.hinted = c.score >= 90
		if !c.hinted && hash(c.query^0xfeed)%100 < 70 {
			return candidate{}, false
		}
		return c, true
	})
	reporter := streamdag.Merge2("reporter",
		func(u streamdag.Maybe[candidate], g streamdag.Maybe[candidate]) (candidate, bool) {
			switch {
			case u.OK && g.OK && g.Value.score > u.Value.score:
				return g.Value, true
			case u.OK:
				return u.Value, true
			case g.OK:
				return g.Value, true
			}
			return candidate{}, false
		})

	flow := streamdag.NewFlow[candidate, candidate]().Buffer(16).
		Then(seeder).
		Then(ungapped).
		Then(streamdag.Split(reporter, report, gapped))
	pipe, err := flow.Compile(streamdag.WithAlgorithm(streamdag.Propagation))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- Flow tier (typed stages) ---\nclass: %v\n", pipe.Class())

	var col streamdag.TypedCollector[candidate]
	stats, err := pipe.Run(context.Background(), reader(), &col)
	if err != nil {
		log.Fatal(err)
	}
	strong := 0
	for _, c := range col.Values() {
		if c.score >= 90 {
			strong++
		}
	}
	fmt.Printf("processed %d reads: %d alignments reported (%d scoring ≥ 90), %d dummies (%.3f/read), %.1fms\n\n",
		reads, len(col.Emissions()), strong, stats.TotalDummies(),
		float64(stats.TotalDummies())/reads, float64(stats.Elapsed.Microseconds())/1000)
}

// kernelTier wires the real accelerator shape by hand: the hint channel
// ungapped → gapped is a cross-link no split/merge vocabulary expresses,
// and it turns the topology into an SP-ladder (CS4 but not SP).
func kernelTier() {
	topo := streamdag.NewTopology()
	// reads → seeder, then two scoring paths that rejoin at the reporter:
	//   seeder → ungapped → reporter        (fast path)
	//   seeder → gapped   → reporter        (slow path)
	// plus the hint channel ungapped → gapped: a high-scoring ungapped
	// hit tells the gapped stage to prioritize the same query.
	topo.Channel("reads", "seeder", 16)
	topo.Channel("seeder", "ungapped", 16)
	topo.Channel("seeder", "gapped", 16)
	topo.Channel("ungapped", "reporter", 16)
	topo.Channel("gapped", "reporter", 16)
	topo.Channel("ungapped", "gapped", 4) // the cross-link
	topo.Channel("reporter", "results", 16)

	pipe, err := streamdag.Build(topo,
		append(kernelOptions(),
			streamdag.WithAlgorithm(streamdag.NonPropagation))...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- kernel tier (hand-wired hint cross-link) ---\nclass: %v\n", pipe.Class())
	for _, c := range pipe.Analysis().Components() {
		fmt.Printf("  component: %s\n", c)
	}
	fmt.Println("non-propagation intervals on the ladder:")
	for e, iv := range pipe.Intervals() {
		from, to, _ := topo.Edge(e)
		fmt.Printf("  [%s→%s] = %v\n", from, to, iv)
	}

	var reported int
	sink := streamdag.SinkFunc(func(_ context.Context, _ uint64, payload any) error {
		if _, ok := payload.(candidate); ok {
			reported++
		}
		return nil
	})
	stats, err := pipe.Run(context.Background(), reader(), sink)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprocessed %d reads: %d alignments reported, %d dummies (%.3f/read), %.1fms\n",
		reads, reported, stats.TotalDummies(),
		float64(stats.TotalDummies())/reads, float64(stats.Elapsed.Microseconds())/1000)
}

func kernelOptions() []streamdag.Option {
	// reads forwards each ingested candidate into the accelerator.
	readsK := streamdag.KernelFunc(func(_ uint64, in []streamdag.Input) map[int]any {
		return map[int]any{0: in[0].Payload}
	})
	// The seeder filters ~85% of reads (no seed hit) and routes survivors
	// to both paths.
	seeder := streamdag.KernelFunc(func(_ uint64, in []streamdag.Input) map[int]any {
		if !in[0].Present {
			return nil
		}
		c := in[0].Payload.(candidate)
		if hash(c.query)%100 < 85 {
			return nil // no seed: drop the read entirely
		}
		return map[int]any{0: c, 1: c}
	})
	// Ungapped extension: scores quickly; ~half die.  High scorers also
	// emit a hint on the cross-link.
	ungapped := streamdag.KernelFunc(func(_ uint64, in []streamdag.Input) map[int]any {
		if !in[0].Present {
			return nil
		}
		c := in[0].Payload.(candidate)
		c.score = int(hash(c.query^0xbeef) % 100)
		out := map[int]any{}
		if c.score >= 50 {
			out[0] = c // forward to reporter
		}
		if c.score >= 90 {
			out[1] = c // hint the gapped stage
		}
		if len(out) == 0 {
			return nil
		}
		return out
	})
	// Gapped alignment: consumes seeds and hints (aligned by read id).
	gapped := streamdag.KernelFunc(func(_ uint64, in []streamdag.Input) map[int]any {
		var c candidate
		have := false
		for _, i := range in {
			if i.Present {
				p := i.Payload.(candidate)
				if !have || p.score > c.score {
					c = p
				}
				have = true
				if p.score >= 90 {
					c.hinted = true
				}
			}
		}
		if !have {
			return nil
		}
		// Hinted queries always align; others rarely do.
		if !c.hinted && hash(c.query^0xfeed)%100 < 70 {
			return nil
		}
		return map[int]any{0: c}
	})
	reporter := streamdag.KernelFunc(func(_ uint64, in []streamdag.Input) map[int]any {
		best := candidate{score: -1}
		have := false
		for _, i := range in {
			if i.Present {
				p := i.Payload.(candidate)
				if p.score > best.score {
					best = p
				}
				have = true
			}
		}
		if !have {
			return nil
		}
		return map[int]any{0: best}
	})
	return []streamdag.Option{
		streamdag.WithKernel("reads", readsK),
		streamdag.WithKernel("seeder", seeder),
		streamdag.WithKernel("ungapped", ungapped),
		streamdag.WithKernel("gapped", gapped),
		streamdag.WithKernel("reporter", reporter),
	}
}
