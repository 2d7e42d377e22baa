package mc

import (
	"testing"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/sim"
)

// A network is confluent for a fixed filter, so one schedule per filter
// decides it: the search space of "every filter" is the filter's answers,
// not the interleavings.  filterSearch enumerates the answers by replay.
// It decides each question a run asks lazily, on first use, and treats
// the sequence of decisions as an odometer: a run answers false to every
// question past the replayed prefix, and the next run turns the last false
// answer true and drops every later one.  sim.Run is deterministic, so a
// replayed prefix asks the same questions in the same order, and every
// answer vector a run can tell apart is run exactly once.

// decision is one free answer of a filter class: a (node, seq, out-edge)
// question, or, with edge allEdges, one answer for every out-edge of the
// node's firing at seq.
type decision struct {
	node graph.NodeID
	seq  uint64
	edge graph.EdgeID
}

const allEdges graph.EdgeID = -1

// filterClass maps a filter question to the decision that answers it.
type filterClass func(node graph.NodeID, seq uint64, e graph.EdgeID) decision

// perEdge lets any node emit on any subset of its out-edges.
func perEdge(n graph.NodeID, seq uint64, e graph.EdgeID) decision {
	return decision{n, seq, e}
}

// sourceRouted routes per edge at src and filters all or nothing
// elsewhere.
func sourceRouted(src graph.NodeID) filterClass {
	return func(n graph.NodeID, seq uint64, e graph.EdgeID) decision {
		if n != src {
			e = allEdges
		}
		return decision{n, seq, e}
	}
}

// filterSearch runs g under every filter of class and counts the filters
// and the runs among them that deadlock; any other failure fails t.
func filterSearch(t *testing.T, g *graph.Graph, class filterClass, cfg sim.Config) (filters, deadlocks int) {
	t.Helper()
	var answers []bool
	for {
		asked := make(map[decision]int, len(answers))
		f := func(n graph.NodeID, seq uint64, e graph.EdgeID) bool {
			d := class(n, seq, e)
			i, ok := asked[d]
			if !ok {
				i = len(asked)
				asked[d] = i
				if i == len(answers) {
					answers = append(answers, false)
				}
			}
			return answers[i]
		}
		r := sim.Run(g, f, cfg)
		filters++
		if !r.Completed {
			if r.Reason != "deadlock" {
				t.Fatalf("filter %v: %s", answers, r.Reason)
			}
			deadlocks++
		}
		i := len(asked) - 1
		for i >= 0 && answers[i] {
			i--
		}
		if i < 0 {
			return filters, deadlocks
		}
		answers[i] = true
		answers = answers[:i+1]
	}
}

// TestWitnessFilterSearch runs the deadlock witness (see
// TestPropagationWitnessDeadlocks) under every filter of two classes.
//   - Per-edge, today's Propagation cascade deadlocks on 22 of the 2,744
//     filters at 3 inputs and 260 of the 38,130 at 4, and none below 3;
//     Non-propagation deadlocks on none.  14 answer vectors per input at
//     most: fewer at 4 inputs, where deadlocked runs end before every
//     question is asked.
//   - Source-routed (per-edge at src, all or nothing elsewhere) is the
//     class the Propagation guarantee names; neither algorithm deadlocks
//     on any of its filters.
func TestWitnessFilterSearch(t *testing.T) {
	g, err := graph.ParseString(propagationWitness)
	if err != nil {
		t.Fatal(err)
	}
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	src := g.MustNode("src")
	type row struct {
		inputs             uint64
		filters, deadlocks int
	}
	for _, tc := range []struct {
		name  string
		alg   cs4.Algorithm
		class filterClass
		rows  []row
	}{
		{"Propagation/per-edge", cs4.Propagation, perEdge,
			[]row{{1, 14, 0}, {2, 196, 0}, {3, 2744, 22}, {4, 38130, 260}}},
		{"Non-propagation/per-edge", cs4.NonPropagation, perEdge,
			[]row{{1, 14, 0}, {2, 196, 0}, {3, 2744, 0}, {4, 38416, 0}}},
		{"Propagation/source-routed", cs4.Propagation, sourceRouted(src),
			[]row{{1, 8, 0}, {2, 64, 0}, {3, 512, 0}, {4, 4096, 0}}},
		{"Non-propagation/source-routed", cs4.NonPropagation, sourceRouted(src),
			[]row{{1, 8, 0}, {2, 64, 0}, {3, 512, 0}, {4, 4096, 0}}},
	} {
		iv, err := d.Intervals(tc.alg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tc.rows {
			filters, deadlocks := filterSearch(t, g, tc.class, sim.Config{Algorithm: tc.alg, Intervals: iv, Inputs: r.inputs})
			t.Logf("%s at %d inputs: %d of %d filters deadlock", tc.name, r.inputs, deadlocks, filters)
			if filters != r.filters || deadlocks != r.deadlocks {
				t.Errorf("%s at %d inputs: %d of %d filters deadlock, want %d of %d",
					tc.name, r.inputs, deadlocks, filters, r.deadlocks, r.filters)
			}
		}
	}
}
