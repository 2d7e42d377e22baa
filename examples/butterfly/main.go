// Butterfly walks through §V and the paper's conclusion: the FFT-style
// butterfly topology of Fig. 4 is not CS4 (it has a cycle with two
// sources and two sinks), so the efficient interval algorithms do not
// apply; re-routing one crossing channel through an extra hop turns it
// into an SP-ladder where they do.  Both the exhaustive fallback and the
// rewritten ladder run through the Pipeline API — the butterfly on the
// general-DAG (exponential) interval path, the ladder on the efficient
// one and the deterministic Simulator backend.
//
//	go run ./examples/butterfly
package main

import (
	"context"
	"fmt"
	"log"

	"streamdag"
)

func main() {
	topo := streamdag.NewTopology()
	topo.Channel("X", "a", 2)
	topo.Channel("X", "b", 2)
	topo.Channel("a", "c", 2)
	topo.Channel("a", "d", 2)
	topo.Channel("b", "c", 2)
	topo.Channel("b", "d", 2)
	topo.Channel("c", "Y", 2)
	topo.Channel("d", "Y", 2)

	// The exhaustive (exponential) fallback still works at this size:
	// Build computes intervals even for a general-class topology.
	pipe, err := streamdag.Build(topo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("butterfly class: %v\n", pipe.Class())
	fmt.Printf("witness cycle with multiple sources: %s\n", pipe.Analysis().Witness())
	fmt.Println("exhaustive propagation intervals:")
	for e, iv := range pipe.Intervals() {
		from, to, _ := topo.Edge(e)
		fmt.Printf("  [%s→%s] = %v\n", from, to, iv)
	}

	// Conclusion's rewrite: route one crossing channel via the opposite
	// downstream node.
	ladder, desc, err := streamdag.RewriteButterfly(topo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrewrite: %s\nrewritten topology (Graphviz):\n%s", desc, ladder.DOT())

	// Run the rewritten topology under adversarial routing at the
	// source, on the deterministic simulator backend.
	filter := streamdag.SourceRouting(ladder.Node("X"),
		streamdag.Bernoulli(0.5, 7), streamdag.PerInputBernoulli(0.8, 7))
	lp, err := streamdag.Build(ladder,
		streamdag.WithRouting(filter),
		streamdag.WithBackend(streamdag.Simulator()),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rewritten class: %v\n", lp.Class())
	for _, c := range lp.Analysis().Components() {
		fmt.Printf("  component: %s\n", c)
	}
	fmt.Println("efficient propagation intervals on the ladder:")
	for e, iv := range lp.Intervals() {
		from, to, _ := ladder.Edge(e)
		fmt.Printf("  [%s→%s] = %v\n", from, to, iv)
	}

	stats, err := lp.Run(context.Background(), streamdag.CountingSource(50_000), nil)
	if err != nil {
		log.Fatal(err)
	}
	var data, dummies int64
	for _, n := range stats.Data {
		data += n
	}
	dummies = stats.TotalDummies()
	fmt.Printf("\nsimulated 50000 inputs on the rewritten ladder: sink received %d, dummy overhead=%.3f\n",
		stats.SinkData, float64(dummies)/float64(data))
}
