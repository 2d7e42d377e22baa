// Package cs4 classifies two-terminal streaming DAGs into the families of
// the paper and dispatches dummy-interval computation to the matching
// algorithm.
//
// Theorem V.7: the single-source, single-sink CS4 DAGs (every undirected
// cycle has one source and one sink) are exactly the serial compositions of
// SP-DAGs and SP-ladders.  Serial composition points are articulation
// points of the underlying undirected graph, so classification proceeds by
// splitting the graph into biconnected components, ordering them into a
// chain from source to sink, and recognizing each as an SP-DAG (package
// sp) or an SP-ladder (package ladder).  No simple cycle crosses a
// component boundary, so per-edge intervals are computed per component and
// merged.
package cs4

import (
	"cmp"
	"fmt"
	"slices"

	"streamdag/internal/cycles"
	"streamdag/internal/graph"
	"streamdag/internal/ival"
	"streamdag/internal/k4"
	"streamdag/internal/ladder"
	"streamdag/internal/sp"
)

// Class is the topology family of a graph.
type Class int

const (
	// ClassSP: the whole graph is a series-parallel DAG (§III).
	ClassSP Class = iota
	// ClassCS4: a serial composition of SP-DAGs and at least one
	// SP-ladder (§V); efficient algorithms apply.
	ClassCS4
	// ClassGeneral: outside CS4; only the exponential general-DAG
	// algorithms of the earlier paper apply.
	ClassGeneral
)

func (c Class) String() string {
	switch c {
	case ClassSP:
		return "series-parallel"
	case ClassCS4:
		return "CS4"
	case ClassGeneral:
		return "general"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Component is one serial component of the decomposition.
type Component struct {
	Edges []graph.EdgeID
	Src   graph.NodeID
	Snk   graph.NodeID
	// Exactly one of Tree (SP component) and Ladder is non-nil for
	// CS4-classified graphs.
	Tree   *sp.Tree
	Ladder *ladder.Ladder
}

// Decomposition is the result of classifying a graph.
type Decomposition struct {
	Graph *graph.Graph
	Class Class
	// Components in serial order from the graph's source to its sink.
	// Empty for ClassGeneral.
	Components []*Component
	// Witness is a cycle with ≥ 2 sources demonstrating non-membership,
	// when available (set for ClassGeneral when the graph is small enough
	// to enumerate).
	Witness *cycles.Cycle
	// K4Core, when non-empty, is the vertex set of a K4-subdivision core:
	// the polynomial certificate of Lemma V.1 that the graph cannot be
	// CS4, available even when the graph is too large to enumerate
	// cycles.
	K4Core []graph.NodeID
}

// witnessLimit bounds the cycle enumeration used only to produce a
// diagnostic witness for general graphs.
const witnessLimit = 10000

// Classify validates g (two-terminal connected DAG) and decomposes it.
func Classify(g *graph.Graph) (*Decomposition, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	comps, err := serialComponents(g)
	if err != nil {
		// Not a clean serial chain of two-terminal blocks ⇒ not CS4.
		return general(g), nil
	}
	d := &Decomposition{Graph: g, Class: ClassSP, Components: comps}
	for _, c := range comps {
		tree, err := sp.DecomposeSubgraph(g, c.Edges, c.Src, c.Snk)
		if err == nil {
			c.Tree = tree
			continue
		}
		lad, lerr := ladder.Recognize(g, c.Edges, c.Src, c.Snk)
		if lerr != nil {
			return general(g), nil
		}
		c.Ladder = lad
		d.Class = ClassCS4
	}
	return d, nil
}

func general(g *graph.Graph) *Decomposition {
	d := &Decomposition{Graph: g, Class: ClassGeneral}
	if cs, err := cycles.EnumerateLimit(g, witnessLimit); err == nil {
		for _, c := range cs {
			if c.NumSources(g) != 1 {
				d.Witness = c
				break
			}
		}
	}
	if _, core := k4.HasK4Subdivision(g); len(core) > 0 {
		d.K4Core = core
	}
	return d
}

// serialComponents splits g at articulation points into biconnected
// components and orders them into a serial chain from source to sink.  It
// fails if the block structure is not a chain of two-terminal blocks
// (which cannot happen for CS4 graphs).  g has passed Validate, so its
// topological order starts at the unique source and ends at the unique
// sink.
func serialComponents(g *graph.Graph) ([]*Component, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	pos := make([]int32, g.NumNodes())
	for i, n := range order {
		pos[n] = int32(i)
	}
	ends := make([]uint8, g.NumNodes())
	blocks := g.BiconnectedComponents()
	slab := make([]Component, len(blocks))
	comps := make([]*Component, len(blocks))
	for i, edges := range blocks {
		src, snk, err := blockTerminals(g, edges, ends)
		if err != nil {
			return nil, err
		}
		slab[i] = Component{Edges: edges, Src: src, Snk: snk}
		comps[i] = &slab[i]
	}
	// Chain order: sort by topological position of sources; then verify
	// consecutive terminals coincide.
	slices.SortFunc(comps, func(a, b *Component) int { return cmp.Compare(pos[a.Src], pos[b.Src]) })
	cur := order[0]
	for _, c := range comps {
		if c.Src != cur {
			return nil, fmt.Errorf("cs4: blocks do not chain at %q", g.Name(c.Src))
		}
		cur = c.Snk
	}
	if cur != order[len(order)-1] {
		return nil, fmt.Errorf("cs4: chain does not end at the sink")
	}
	return comps, nil
}

// blockTerminals finds the unique source and sink of a biconnected block.
// ends is per-node scratch, zero on entry and left zero on return: bit 1
// of ends[n] says a block edge leaves n, bit 2 that one enters it.
func blockTerminals(g *graph.Graph, edges []graph.EdgeID, ends []uint8) (src, snk graph.NodeID, err error) {
	for _, id := range edges {
		e := g.Edge(id)
		ends[e.From] |= 1
		ends[e.To] |= 2
	}
	src, snk = -1, -1
	srcs, snks := 0, 0
	for _, id := range edges {
		e := g.Edge(id)
		if ends[e.From] == 1 && e.From != src {
			src = e.From
			srcs++
		}
		if ends[e.To] == 2 && e.To != snk {
			snk = e.To
			snks++
		}
	}
	for _, id := range edges {
		e := g.Edge(id)
		ends[e.From], ends[e.To] = 0, 0
	}
	switch {
	case srcs > 1:
		return 0, 0, fmt.Errorf("cs4: block has two sources")
	case snks > 1:
		return 0, 0, fmt.Errorf("cs4: block has two sinks")
	case src == -1 || snk == -1:
		return 0, 0, fmt.Errorf("cs4: block lacks a source or sink")
	}
	return src, snk, nil
}

// Algorithm selects one of the paper's two dummy-message protocols.
type Algorithm int

const (
	// Propagation: only split nodes send dummies; dummies are forwarded.
	Propagation Algorithm = iota
	// NonPropagation: every node may send dummies; never forwarded.
	NonPropagation
)

func (a Algorithm) String() string {
	if a == Propagation {
		return "propagation"
	}
	return "non-propagation"
}

// Intervals computes the per-edge dummy intervals for the chosen algorithm
// using the efficient SP / ladder algorithms.  The decomposition must be
// ClassSP or ClassCS4; for ClassGeneral use IntervalsExhaustive.
func (d *Decomposition) Intervals(alg Algorithm) (map[graph.EdgeID]ival.Interval, error) {
	if d.Class == ClassGeneral {
		return nil, fmt.Errorf("cs4: %s graph: efficient algorithms do not apply", d.Class)
	}
	out := make(map[graph.EdgeID]ival.Interval, d.Graph.NumEdges())
	for _, c := range d.Components {
		switch {
		case c.Tree != nil:
			if alg == Propagation {
				sp.SetIvals(c.Tree, ival.Inf(), out)
			} else {
				sp.NonPropFromTree(c.Tree, out)
			}
		case c.Ladder != nil:
			if alg == Propagation {
				c.Ladder.PropagationIntervalsLinear(out)
			} else {
				c.Ladder.NonPropagationIntervals(out)
			}
		default:
			return nil, fmt.Errorf("cs4: component not decomposed")
		}
	}
	return out, nil
}

// IntervalsExhaustive computes intervals with the exponential general-DAG
// baseline, with a safety budget on the number of cycles.
func IntervalsExhaustive(g *graph.Graph, alg Algorithm, cycleLimit int) (map[graph.EdgeID]ival.Interval, error) {
	if alg == Propagation {
		return cycles.PropagationIntervalsLimit(g, cycleLimit)
	}
	return cycles.NonPropagationIntervalsLimit(g, cycleLimit)
}
