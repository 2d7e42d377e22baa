package graph

// This file provides undirected connectivity structure: the biconnected
// components of the underlying undirected multigraph.  Theorem V.7 of the
// paper characterizes CS4 DAGs as serial compositions of SP-DAGs and
// SP-ladders; the serial join points are exactly the articulation points of
// the undirected graph, so the CS4 layer splits the edge set into its
// biconnected components (which meet at those points) and classifies each
// piece separately.

// undirectedAdj builds, for each node, the list of (edge, otherEndpoint)
// pairs regardless of direction.  Self-loops cannot occur in a DAG.
type halfEdge struct {
	e     EdgeID
	other NodeID
}

func (g *Graph) undirectedAdj() [][]halfEdge {
	adj := make([][]halfEdge, len(g.names))
	// Every node's list is a window of one array, sized by its degree.
	flat := make([]halfEdge, 2*len(g.edges))
	off := 0
	for n := range adj {
		d := len(g.out[n]) + len(g.in[n])
		adj[n] = flat[off : off : off+d]
		off += d
	}
	for _, e := range g.edges {
		adj[e.From] = append(adj[e.From], halfEdge{e.ID, e.To})
		adj[e.To] = append(adj[e.To], halfEdge{e.ID, e.From})
	}
	return adj
}

// BiconnectedComponents partitions the edge set into biconnected components
// of the underlying undirected multigraph.  Each component is a slice of
// EdgeIDs; bridge edges form singleton components.  Components are returned
// in the order they complete during DFS.
func (g *Graph) BiconnectedComponents() [][]EdgeID {
	n := len(g.names)
	adj := g.undirectedAdj()
	disc := make([]int, n)
	low := make([]int, n)
	timer := 0
	var comps [][]EdgeID
	estack := make([]EdgeID, 0, len(g.edges))
	// Every edge is in one component: the components are windows of one
	// array.
	flat := make([]EdgeID, 0, len(g.edges))

	type frame struct {
		node   NodeID
		parent EdgeID
		idx    int
	}
	pop := func(until EdgeID) {
		start := len(flat)
		for len(estack) > 0 {
			e := estack[len(estack)-1]
			estack = estack[:len(estack)-1]
			flat = append(flat, e)
			if e == until {
				break
			}
		}
		comps = append(comps, flat[start:len(flat):len(flat)])
	}
	stack := make([]frame, 0, n)
	for start := 0; start < n; start++ {
		if disc[start] != 0 {
			continue
		}
		timer++
		disc[start] = timer
		low[start] = timer
		stack = append(stack, frame{node: NodeID(start), parent: -1})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx < len(adj[f.node]) {
				he := adj[f.node][f.idx]
				f.idx++
				if he.e == f.parent {
					continue
				}
				if disc[he.other] != 0 {
					if disc[he.other] < disc[f.node] { // back edge
						estack = append(estack, he.e)
						if disc[he.other] < low[f.node] {
							low[f.node] = disc[he.other]
						}
					}
					continue
				}
				estack = append(estack, he.e)
				timer++
				disc[he.other] = timer
				low[he.other] = timer
				stack = append(stack, frame{node: he.other, parent: he.e})
				continue
			}
			done := *f
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := &stack[len(stack)-1]
				if low[done.node] < low[p.node] {
					low[p.node] = low[done.node]
				}
				if low[done.node] >= disc[p.node] {
					pop(done.parent)
				}
			}
		}
	}
	return comps
}
