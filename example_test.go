package streamdag_test

import (
	"context"
	"fmt"
	"log"

	"streamdag"
)

// ExampleNewFlow builds a typed pipeline with the Flow API: a Map stage,
// a replicated hot stage, and a FilterStage — the paper's filtering as a
// first-class typed operation.  Compile lowers the stages to a topology,
// classifies it, and computes the dummy intervals that make the
// filtering deadlock-free.
func ExampleNewFlow() {
	flow := streamdag.NewFlow[int, int]().
		Then(streamdag.Map("triple", func(v int) int { return 3 * v })).
		Then(streamdag.Map("work", func(v int) int { return v + 1 }).Replicate(4)).
		Then(streamdag.FilterStage("evens", func(v int) bool { return v%2 == 0 }))

	pipe, err := flow.Compile()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("class:", pipe.Class())

	var col streamdag.TypedCollector[int]
	stats, err := pipe.Run(context.Background(),
		streamdag.SliceSource(0, 1, 2, 3, 4, 5), &col)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("evens:", col.Values())
	fmt.Println("sink data:", stats.SinkData)
	// Output:
	// class: series-parallel
	// evens: [4 10 16]
	// sink data: 3
}

// ExampleBuild wires the same shape at the kernel tier: an explicit
// topology and a Kernel whose absent out-keys filter.  This tier
// expresses irregular topologies (cross-links, ladders) the stage
// vocabulary cannot.
func ExampleBuild() {
	topo := streamdag.NewTopology()
	topo.Channel("gen", "keep", 4)
	topo.Channel("keep", "out", 4)

	pipe, err := streamdag.Build(topo,
		streamdag.WithAlgorithm(streamdag.Propagation),
		streamdag.WithKernel("keep", streamdag.KernelFunc(
			func(_ uint64, in []streamdag.Input) map[int]any {
				if v := in[0].Payload.(uint64); v%3 == 0 {
					return map[int]any{0: v} // forward multiples of three
				}
				return nil // filtered with respect to every output
			})),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("class:", pipe.Class())

	var col streamdag.Collector
	stats, err := pipe.Run(context.Background(), streamdag.CountingSource(10), &col)
	if err != nil {
		log.Fatal(err)
	}
	var kept []any
	for _, e := range col.Emissions() {
		kept = append(kept, e.Payload)
	}
	fmt.Println("kept:", kept)
	fmt.Println("sink data:", stats.SinkData)
	// Output:
	// class: series-parallel
	// kept: [0 3 6 9]
	// sink data: 4
}
