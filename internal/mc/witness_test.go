package mc

import (
	"strings"
	"testing"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/ival"
	"streamdag/internal/sim"
	"streamdag/internal/workload"
)

// propagationWitness is a four-node series-parallel graph on which the
// Propagation protocol, with its computed intervals, deadlocks once every
// node filters per out-edge: n2 sits inside the outer cycle src→snk
// against src→n2→snk and is the split of its own cycle n2→n3→snk against
// n2→snk, so data it routes only to n3 leaves n2→snk silent for up to
// its interval of 4 sequence numbers, longer than src→snk (buffer 2) can
// absorb.  Under Propagation an interval constrains only the first edge
// of each directed run of a cycle, and the cascade covers interior edges
// only for a firing that emits data on no out-edge.
const propagationWitness = `
src n2 2
src snk 2
n2 n3 2
n2 snk 1
n3 snk 2
`

// TestPropagationWitnessDeadlocks pins ROADMAP item 23's witness as the
// protocol stands: with Bernoulli(0.6, 1) filtering every out-edge of
// every node, the simulator wedges at 63 inputs (and completes at 62),
// and every schedule the model checker explores ends in that deadlock;
// Non-propagation completes.  At 200 inputs, 19 of seeds 1–20 wedge.
// The fix item 23 asks for flips the first
// two: this test then asserts completion under both algorithms.
func TestPropagationWitnessDeadlocks(t *testing.T) {
	g, err := graph.ParseString(propagationWitness)
	if err != nil {
		t.Fatal(err)
	}
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := d.Intervals(cs4.Propagation)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"src→n2": "2", "src→snk": "3", "n2→n3": "1", "n2→snk": "4", "n3→snk": "∞"}
	for _, e := range g.Edges() {
		name := g.Name(e.From) + "→" + g.Name(e.To)
		if got := prop[e.ID].String(); got != want[name] {
			t.Errorf("Propagation interval of %s = %s, want %s", name, got, want[name])
		}
	}
	f := sim.Filter(workload.Bernoulli(0.6, 1))
	run := func(alg cs4.Algorithm, iv map[graph.EdgeID]ival.Interval, inputs uint64) *sim.Result {
		return sim.Run(g, f, sim.Config{Algorithm: alg, Intervals: iv, Inputs: inputs})
	}
	if r := run(cs4.Propagation, prop, 62); !r.Completed {
		t.Fatalf("Propagation at 62 inputs: %s, want completed", r.Reason)
	}
	r := run(cs4.Propagation, prop, 63)
	if r.Completed || r.Reason != "deadlock" {
		t.Fatalf("Propagation at 63 inputs: completed=%v reason %q, want a deadlock", r.Completed, r.Reason)
	}
	if blocked := strings.Join(r.Blocked, "; "); !strings.Contains(blocked, "src→snk (full)") {
		t.Errorf("Propagation wedge: %s; want src blocked on a full src→snk", blocked)
	}
	m := explore(t, g, f, Config{Algorithm: cs4.Propagation, Intervals: prop, Inputs: 63, MaxStates: 100000})
	if !m.Confluent || m.Terminals[Deadlocked] == 0 || m.Terminals[Completed] != 0 {
		t.Fatalf("model checker over %d states: terminals %v, want only deadlocked", m.States, m.Terminals)
	}
	np, err := d.Intervals(cs4.NonPropagation)
	if err != nil {
		t.Fatal(err)
	}
	for _, inputs := range []uint64{63, 200} {
		if r := run(cs4.NonPropagation, np, inputs); !r.Completed {
			t.Errorf("Non-propagation at %d inputs: %s, want completed", inputs, r.Reason)
		}
	}
	wedged := 0
	for seed := uint64(1); seed <= 20; seed++ {
		r := sim.Run(g, sim.Filter(workload.Bernoulli(0.6, seed)), sim.Config{Algorithm: cs4.Propagation, Intervals: prop, Inputs: 200})
		if !r.Completed {
			wedged++
		}
	}
	if wedged != 19 {
		t.Errorf("Propagation wedged on %d of seeds 1–20 at 200 inputs, want 19", wedged)
	}
	t.Logf("model checker: %d states, terminals %v; wedge: %v", m.States, m.Terminals, r.Blocked)
}
