// Package graph provides the directed acyclic multigraph substrate used by
// every other package in streamdag.
//
// A streaming application in the model of Buhler et al. is a DAG of compute
// nodes connected by one-way FIFO channels, each with a finite buffer
// capacity.  Parallel edges between the same pair of nodes are permitted and
// meaningful (they are the base case of the series-parallel decomposition),
// so Graph is a true multigraph: edges have identities distinct from their
// endpoints.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node; IDs are dense indices assigned by AddNode.
type NodeID int

// EdgeID identifies an edge; IDs are dense indices assigned by AddEdge.
type EdgeID int

// Edge is a one-way channel with a finite buffer.
type Edge struct {
	ID   EdgeID
	From NodeID
	To   NodeID
	// Buf is the channel buffer capacity in messages; must be ≥ 1.
	Buf int
}

// Graph is a directed multigraph under construction or analysis.
// It is not safe for concurrent mutation; analyses only read.
type Graph struct {
	names  []string
	byName map[string]NodeID
	edges  []Edge
	out    [][]EdgeID
	in     [][]EdgeID
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]NodeID)}
}

// AddNode adds a node with the given name and returns its ID.
// Names must be unique and non-empty.
func (g *Graph) AddNode(name string) NodeID {
	if name == "" {
		panic("graph: empty node name")
	}
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("graph: duplicate node %q", name))
	}
	id := NodeID(len(g.names))
	g.names = append(g.names, name)
	g.byName[name] = id
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddEdge adds an edge from → to with buffer capacity buf and returns its ID.
func (g *Graph) AddEdge(from, to NodeID, buf int) EdgeID {
	if buf < 1 {
		panic(fmt.Sprintf("graph: buffer %d < 1", buf))
	}
	g.checkNode(from)
	g.checkNode(to)
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Buf: buf})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id
}

func (g *Graph) checkNode(n NodeID) {
	if n < 0 || int(n) >= len(g.names) {
		panic(fmt.Sprintf("graph: unknown node %d", n))
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Name returns the name of node n.
func (g *Graph) Name(n NodeID) string { return g.names[n] }

// NodeByName returns the node with the given name.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// MustNode returns the node with the given name or panics.
func (g *Graph) MustNode(name string) NodeID {
	id, ok := g.byName[name]
	if !ok {
		panic(fmt.Sprintf("graph: no node %q", name))
	}
	return id
}

// Edge returns the edge with ID e.
func (g *Graph) Edge(e EdgeID) Edge { return g.edges[e] }

// Edges returns all edges in ID order.  The slice is shared; do not mutate.
func (g *Graph) Edges() []Edge { return g.edges }

// Out returns the IDs of edges leaving n.  Shared slice; do not mutate.
func (g *Graph) Out(n NodeID) []EdgeID { return g.out[n] }

// In returns the IDs of edges entering n.  Shared slice; do not mutate.
func (g *Graph) In(n NodeID) []EdgeID { return g.in[n] }

// OutDegree returns the number of edges leaving n.
func (g *Graph) OutDegree(n NodeID) int { return len(g.out[n]) }

// InDegree returns the number of edges entering n.
func (g *Graph) InDegree(n NodeID) int { return len(g.in[n]) }

// Sources returns all nodes with no incoming edges, in ID order.
func (g *Graph) Sources() []NodeID {
	var s []NodeID
	for n := range g.names {
		if len(g.in[n]) == 0 {
			s = append(s, NodeID(n))
		}
	}
	return s
}

// Sinks returns all nodes with no outgoing edges, in ID order.
func (g *Graph) Sinks() []NodeID {
	var s []NodeID
	for n := range g.names {
		if len(g.out[n]) == 0 {
			s = append(s, NodeID(n))
		}
	}
	return s
}

// TopoOrder returns the nodes in a topological order, or an error naming a
// node on a directed cycle if the graph is not a DAG.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	indeg := make([]int, len(g.names))
	for _, e := range g.edges {
		indeg[e.To]++
	}
	// Kahn's algorithm; the order is its own FIFO queue, taken from the
	// front as it grows at the back.
	order := make([]NodeID, 0, len(g.names))
	for n := range g.names {
		if indeg[n] == 0 {
			order = append(order, NodeID(n))
		}
	}
	for i := 0; i < len(order); i++ {
		for _, e := range g.out[order[i]] {
			to := g.edges[e].To
			indeg[to]--
			if indeg[to] == 0 {
				order = append(order, to)
			}
		}
	}
	if len(order) != len(g.names) {
		for n, d := range indeg {
			if d > 0 {
				return nil, fmt.Errorf("graph: directed cycle through node %q", g.names[n])
			}
		}
	}
	return order, nil
}

// IsDAG reports whether the graph has no directed cycle.
func (g *Graph) IsDAG() bool {
	_, err := g.TopoOrder()
	return err == nil
}

// Validate checks the structural preconditions of the paper's model:
// the graph is a weakly connected DAG with at least one node, exactly one
// source, and exactly one sink.  (Multiple sources/sinks can always be
// merged behind virtual terminals; the analyses here require the
// two-terminal form, as do SP-DAGs and CS4 DAGs by definition.)
func (g *Graph) Validate() error {
	if len(g.names) == 0 {
		return fmt.Errorf("graph: empty graph")
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	if sep := g.disconnectedFrom(0); sep != -1 {
		return fmt.Errorf("graph: not weakly connected: no undirected path between %q and %q",
			g.names[0], g.names[sep])
	}
	if s := g.Sources(); len(s) != 1 {
		return fmt.Errorf("graph: %d sources (%s), want exactly 1", len(s), g.nameList(s))
	}
	if s := g.Sinks(); len(s) != 1 {
		return fmt.Errorf("graph: %d sinks (%s), want exactly 1", len(s), g.nameList(s))
	}
	return nil
}

// nameList renders node names for diagnostics, eliding long lists.
func (g *Graph) nameList(ns []NodeID) string {
	const max = 5
	parts := make([]string, 0, max+1)
	for i, n := range ns {
		if i == max {
			parts = append(parts, fmt.Sprintf("… %d more", len(ns)-max))
			break
		}
		parts = append(parts, g.names[n])
	}
	return strings.Join(parts, ", ")
}

// Source returns the unique source.  Call only after Validate.
func (g *Graph) Source() NodeID { return g.Sources()[0] }

// Sink returns the unique sink.  Call only after Validate.
func (g *Graph) Sink() NodeID { return g.Sinks()[0] }

// disconnectedFrom returns a node with no undirected path from start,
// or -1 when the graph is weakly connected.
func (g *Graph) disconnectedFrom(start NodeID) NodeID {
	seen := make([]bool, len(g.names))
	stack := make([]NodeID, 1, len(g.names))
	stack[0] = start
	seen[start] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out[n] {
			if m := g.edges[e].To; !seen[m] {
				seen[m] = true
				count++
				stack = append(stack, m)
			}
		}
		for _, e := range g.in[n] {
			if m := g.edges[e].From; !seen[m] {
				seen[m] = true
				count++
				stack = append(stack, m)
			}
		}
	}
	if count == len(g.names) {
		return -1
	}
	for n := range g.names {
		if !seen[n] {
			return NodeID(n)
		}
	}
	return -1
}

// Reachable returns the set of nodes reachable from n by directed paths,
// including n itself.
func (g *Graph) Reachable(n NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{n: true}
	stack := []NodeID{n}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out[m] {
			to := g.edges[e].To
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return seen
}

// ShortestBufPath returns the minimum total buffer capacity over directed
// paths from → to, or ok=false if no path exists.  Edge weights are buffer
// sizes, all ≥ 1, and the graph is a DAG, so a DP over topological order is
// exact and linear.
func (g *Graph) ShortestBufPath(from, to NodeID) (total int64, ok bool) {
	return g.pathDP(from, to, true)
}

// LongestHopPath returns the maximum number of edges over directed paths
// from → to, or ok=false if no path exists.
func (g *Graph) LongestHopPath(from, to NodeID) (hops int64, ok bool) {
	return g.pathDP(from, to, false)
}

func (g *Graph) pathDP(from, to NodeID, shortestBuf bool) (int64, bool) {
	order, err := g.TopoOrder()
	if err != nil {
		panic("graph: pathDP on non-DAG")
	}
	const unset = int64(-1)
	dist := make([]int64, len(g.names))
	for i := range dist {
		dist[i] = unset
	}
	dist[from] = 0
	for _, n := range order {
		if dist[n] == unset {
			continue
		}
		for _, eid := range g.out[n] {
			e := g.edges[eid]
			var cand int64
			if shortestBuf {
				cand = dist[n] + int64(e.Buf)
			} else {
				cand = dist[n] + 1
			}
			switch {
			case dist[e.To] == unset:
				dist[e.To] = cand
			case shortestBuf && cand < dist[e.To]:
				dist[e.To] = cand
			case !shortestBuf && cand > dist[e.To]:
				dist[e.To] = cand
			}
		}
	}
	if dist[to] == unset {
		return 0, false
	}
	return dist[to], true
}

// DOT renders the graph in Graphviz DOT syntax with buffer sizes as edge
// labels, for debugging and documentation.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph G {\n  rankdir=TB;\n")
	for n, name := range g.names {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", n, name)
	}
	for _, e := range g.edges {
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"%d\"];\n", e.From, e.To, e.Buf)
	}
	b.WriteString("}\n")
	return b.String()
}

// String returns a compact description: "name(from->to:buf, ...)".
func (g *Graph) String() string {
	parts := make([]string, 0, len(g.edges))
	for _, e := range g.edges {
		parts = append(parts, fmt.Sprintf("%s->%s:%d", g.names[e.From], g.names[e.To], e.Buf))
	}
	sort.Strings(parts)
	return fmt.Sprintf("graph{%d nodes; %s}", len(g.names), strings.Join(parts, " "))
}
