// Quickstart: build the split/join topology of the paper's Fig. 1 with
// the typed Flow builder, inspect its classification and dummy
// intervals, and stream real payloads through it safely under filtering.
//
// Fig. 1: A analyzes a frame and forwards it to recognizers B and C; D
// joins their (possibly filtered) verdicts.  With the Flow API the
// filtering recognizer is a FilterStage — a typed predicate — and the
// library computes the dummy intervals that keep the join from wedging.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"streamdag"
)

// hash drives C's content-dependent filtering deterministically.
func hash(x int) int {
	return int(uint32(x) * 2654435761 % 251)
}

func main() {
	// The stage graph: A broadcasts every frame to both recognizers, B
	// fires on every frame, C on ~20% of them, and D fuses whatever
	// verdicts arrived for a frame.
	flow := streamdag.NewFlow[int, string]().Buffer(4).
		Then(streamdag.Map("A", func(frame int) int { return frame })).
		Then(streamdag.Split(
			streamdag.Merge2("D", func(b streamdag.Maybe[string], c streamdag.Maybe[string]) (string, bool) {
				switch {
				case b.OK && c.OK:
					return b.Value + "+" + c.Value, true
				case b.OK:
					return b.Value, true
				case c.OK:
					return c.Value, true
				}
				return "", false
			}),
			streamdag.Map("B", func(frame int) string {
				return fmt.Sprintf("B:frame-%d", frame)
			}),
			streamdag.Sequence(
				streamdag.FilterStage("C", func(frame int) bool { return hash(frame)%5 == 0 }),
				streamdag.Map("C.verdict", func(frame int) string {
					return fmt.Sprintf("C:frame-%d", frame)
				}),
			),
		))

	// Compile lowers the stages to a topology, validates and classifies
	// it, and computes the per-edge dummy intervals in one step; the same
	// Pipeline also runs on the Simulator() and Distributed(...) backends.
	pipe, err := flow.Compile(streamdag.WithAlgorithm(streamdag.Propagation))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology class: %v\n", pipe.Class())

	topo := pipe.Topology()
	for _, alg := range []streamdag.Algorithm{streamdag.Propagation, streamdag.NonPropagation} {
		iv, err := pipe.Analysis().Intervals(alg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%v dummy intervals:\n", alg)
		ids := make([]streamdag.EdgeID, 0, len(iv))
		for e := range iv {
			ids = append(ids, e)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, e := range ids {
			from, to, buf := topo.Edge(e)
			fmt.Printf("  %s→%s (buf %d): [e] = %v\n", from, to, buf, iv[e])
		}
	}

	// Stream 10k frames through the pipeline: typed payloads in through a
	// channel Source, D's fused verdicts out through a typed Sink.
	frames := make(chan int, 64)
	go func() {
		defer close(frames)
		for i := 0; i < 10_000; i++ {
			frames <- i
		}
	}()
	var lastSeq uint64
	var lastVerdict string
	sink := streamdag.TypedSink(func(_ context.Context, seq uint64, verdict string) error {
		lastSeq, lastVerdict = seq, verdict
		return nil
	})
	stats, err := pipe.Run(context.Background(), streamdag.ChannelSource(frames), sink)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nran 10000 frames: sink consumed %d data messages (last %q @%d), %d dummies sent, %.1fms\n",
		stats.SinkData, lastVerdict, lastSeq, stats.TotalDummies(),
		float64(stats.Elapsed.Microseconds())/1000)
}
