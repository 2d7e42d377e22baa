package stream_test

import (
	"testing"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/sim"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

// TestParallelEdgesRuntime: alignment with a true multigraph — a node
// with two parallel in-channels from the same upstream receives both as
// separate kernel inputs for the same sequence number.
func TestParallelEdgesRuntime(t *testing.T) {
	g, err := graph.ParseString("a b 2\na b 3\nb c 2")
	if err != nil {
		t.Fatal(err)
	}
	var pairs int
	ks := map[graph.NodeID]stream.Kernel{
		g.MustNode("a"): stream.KernelFunc(func(seq uint64, _ []stream.Input) map[int]any {
			// Send distinct payloads on the two parallel channels.
			return map[int]any{0: seq * 2, 1: seq*2 + 1}
		}),
		g.MustNode("b"): stream.KernelFunc(func(seq uint64, in []stream.Input) map[int]any {
			if in[0].Present && in[1].Present {
				if in[0].Payload.(uint64) == seq*2 && in[1].Payload.(uint64) == seq*2+1 {
					pairs++
				}
			}
			return map[int]any{0: seq}
		}),
	}
	if _, err := runOnce(g, ks, stream.Config{}, 64); err != nil {
		t.Fatal(err)
	}
	if pairs != 64 {
		t.Fatalf("aligned pairs = %d, want 64", pairs)
	}
}

// TestParallelEdgeDeadlockAvoidance: one parallel channel starved, the
// other flooded — the multi-edge base case of the interval computation in
// action at runtime.
func TestParallelEdgeDeadlockAvoidance(t *testing.T) {
	g, err := graph.ParseString("a b 2\na b 2\nb c 2")
	if err != nil {
		t.Fatal(err)
	}
	drop := workload.DropEdge(graph.EdgeID(1))
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := d.Intervals(cs4.NonPropagation)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth first.
	r := sim.Run(g, sim.Filter(drop), sim.Config{Inputs: 100})
	if r.Completed {
		t.Fatal("expected unprotected deadlock in simulator")
	}
	r = sim.Run(g, sim.Filter(drop), sim.Config{
		Algorithm: cs4.NonPropagation, Intervals: iv, Inputs: 100,
	})
	if !r.Completed {
		t.Fatalf("protected simulator run deadlocked: %v", r.Blocked)
	}
	// Runtime agrees.
	ks := make(map[graph.NodeID]stream.Kernel)
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		out := g.Out(id)
		ks[id] = stream.KernelFunc(func(seq uint64, in []stream.Input) map[int]any {
			outs := make(map[int]any, len(out))
			for i, e := range out {
				if drop(id, seq, e) {
					outs[i] = seq
				}
			}
			return outs
		})
	}
	if _, err := runOnce(g, ks, stream.Config{
		Algorithm: cs4.NonPropagation, Intervals: iv,
	}, 100); err != nil {
		t.Fatalf("protected runtime run failed: %v", err)
	}
}
