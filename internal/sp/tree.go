// Package sp implements series-parallel DAG recognition and the paper's
// efficient dummy-interval algorithms on SP-DAGs (§III–IV).
//
// An SP-DAG is decomposed into a binary tree of series (Sc) and parallel
// (Pc) compositions whose leaves are the original edges, using the
// reduction method of Valdes, Tarjan and Lawler: repeatedly merge parallel
// edges between the same endpoints (parallel reduction) and splice out
// interior nodes with in-degree and out-degree one (series reduction).  A
// two-terminal DAG is series-parallel exactly when this process terminates
// in a single edge.  The paper's multi-edge base case appears here as a
// nest of parallel nodes over single-edge leaves; the equivalence is
// covered by tests.
package sp

import (
	"fmt"
	"slices"
	"strings"

	"streamdag/internal/graph"
)

// Kind discriminates decomposition-tree nodes.
type Kind int

const (
	// Leaf is a single original edge of the graph.
	Leaf Kind = iota
	// Series is Sc(L, R): R's source is L's sink.
	Series
	// Parallel is Pc(L, R): shared source and sink.
	Parallel
)

func (k Kind) String() string {
	switch k {
	case Leaf:
		return "leaf"
	case Series:
		return "S"
	case Parallel:
		return "P"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Tree is a node of the series-parallel decomposition tree of a component H.
// Terminals refer to nodes of the original graph.  LBuf and Hops cache the
// two aggregate path measures the paper calls L(H) and h(H):
//
//	L(H): minimum total buffer capacity over directed Src→Snk paths
//	h(H): maximum hop count over directed Src→Snk paths
type Tree struct {
	Kind   Kind
	Edge   graph.EdgeID // valid when Kind == Leaf
	L, R   *Tree        // valid when Kind != Leaf
	Parent *Tree        // nil at the root
	Src    graph.NodeID
	Snk    graph.NodeID
	LBuf   int64
	Hops   int64
}

// NotSPError reports why a graph failed SP recognition.
type NotSPError struct {
	// Remaining is the number of unreduced super-edges left when reduction
	// stalled (> 1 for a genuine non-SP graph).
	Remaining int
}

func (e *NotSPError) Error() string {
	return fmt.Sprintf("sp: graph is not series-parallel (%d irreducible super-edges)", e.Remaining)
}

// Decompose validates g as a two-terminal DAG and returns its decomposition
// tree, or a *NotSPError if g is not series-parallel.  Runs in near-linear
// time in |g|.
func Decompose(g *graph.Graph) (*Tree, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	all := make([]graph.EdgeID, g.NumEdges())
	for i := range all {
		all[i] = graph.EdgeID(i)
	}
	return DecomposeSubgraph(g, all, g.Source(), g.Sink())
}

// IsSP reports whether g is a valid two-terminal series-parallel DAG.
func IsSP(g *graph.Graph) bool {
	_, err := Decompose(g)
	return err == nil
}

// DecomposeSubgraph decomposes the subgraph formed by the given edges of
// g alone, as a two-terminal graph from src to snk: edges of g outside the
// set are ignored, even where they meet its vertices.  Package cs4
// decomposes each serial component of a graph with it.
func DecomposeSubgraph(g *graph.Graph, edges []graph.EdgeID, src, snk graph.NodeID) (*Tree, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("sp: empty edge set")
	}
	if len(edges) == 1 {
		// A serial component of a chain: one edge, its own tree.
		if e := g.Edge(edges[0]); e.From == src && e.To == snk {
			return &Tree{Kind: Leaf, Edge: e.ID, Src: src, Snk: snk, LBuf: int64(e.Buf), Hops: 1}, nil
		}
	}
	r := newReducer(g, edges, src, snk)
	r.reduce()
	if r.live != 1 {
		return nil, &NotSPError{Remaining: r.live}
	}
	// The sole survivor spans src→snk.
	if r.src >= 0 {
		if se := r.adj[r.src].outHead; se >= 0 {
			t := r.ses[se].tree
			t.setParents(nil)
			return t, nil
		}
	}
	return nil, fmt.Errorf("sp: internal error: surviving super-edge not at source")
}

// superEdge is a working edge of the reduction: a contracted SP component
// between two local vertices.  While it lives it is linked, newest first,
// into its tail's out-list and its head's in-list; -1 ends a list.
type superEdge struct {
	from, to         int32
	tree             *Tree
	nextOut, prevOut int32
	nextIn, prevIn   int32
}

// vertex is a local vertex's adjacency: the heads of its live out- and
// in-lists and their lengths, and whether the queue's seeding has met it.
type vertex struct {
	outHead, inHead int32
	outDeg, inDeg   int32
	seen            bool
}

// reducer runs the reduction over dense local indices: vertex i is
// nodes[i], and super-edges and trees live in slabs sized for the worst
// case up front (m edges make at most m−1 compositions), so the pointers
// into them never move.
type reducer struct {
	nodes    []graph.NodeID // local vertex → node, ascending
	src, snk int32          // local terminals, -1 if not an endpoint
	adj      []vertex
	ses      []superEdge
	trees    []Tree
	queue    []int32 // candidates for series reduction, taken last first
	live     int
}

func newReducer(g *graph.Graph, edges []graph.EdgeID, src, snk graph.NodeID) *reducer {
	m := len(edges)
	nodes := make([]graph.NodeID, 0, 2*m)
	for _, id := range edges {
		e := g.Edge(id)
		nodes = append(nodes, e.From, e.To)
	}
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	r := &reducer{
		nodes: nodes,
		adj:   make([]vertex, len(nodes)),
		ses:   make([]superEdge, 0, 2*m-1),
		trees: make([]Tree, 0, 2*m-1),
		queue: make([]int32, 0, 4*m+len(nodes)),
	}
	r.src, r.snk = r.local(src), r.local(snk)
	for i := range r.adj {
		r.adj[i] = vertex{outHead: -1, inHead: -1}
	}
	for _, id := range edges {
		e := g.Edge(id)
		r.trees = append(r.trees, Tree{Kind: Leaf, Edge: id, Src: e.From, Snk: e.To, LBuf: int64(e.Buf), Hops: 1})
		r.insert(r.local(e.From), r.local(e.To), &r.trees[len(r.trees)-1])
	}
	// Seed the series queue with every endpoint in first-seen order: the
	// leaves' inserts queued them edge by edge, tail then head.
	for _, v := range r.queue[:2*m] {
		if !r.adj[v].seen {
			r.adj[v].seen = true
			r.queue = append(r.queue, v)
		}
	}
	return r
}

// local returns the local index of node n, or -1 if no edge touches it.
func (r *reducer) local(n graph.NodeID) int32 {
	if i, ok := slices.BinarySearch(r.nodes, n); ok {
		return int32(i)
	}
	return -1
}

// insert adds a super-edge from → to carrying t, first applying parallel
// reduction if a live super-edge with the same endpoints exists, and
// queues the endpoints for series checks.  The partner is looked for in
// the shorter of from's out-list and to's in-list, newest first: the
// super-edge the last reduction made is where a split/join's next branch
// meets it.
func (r *reducer) insert(from, to int32, t *Tree) {
	if other := r.partner(from, to); other >= 0 {
		// Parallel reduction: Pc(other, t).
		t = r.compose(Parallel, r.ses[other].tree, t)
		r.kill(other)
	}
	i := int32(len(r.ses))
	f, h := &r.adj[from], &r.adj[to]
	r.ses = append(r.ses, superEdge{
		from: from, to: to, tree: t,
		nextOut: f.outHead, prevOut: -1,
		nextIn: h.inHead, prevIn: -1,
	})
	if f.outHead >= 0 {
		r.ses[f.outHead].prevOut = i
	}
	if h.inHead >= 0 {
		r.ses[h.inHead].prevIn = i
	}
	f.outHead, h.inHead = i, i
	f.outDeg++
	h.inDeg++
	r.live++
	r.queue = append(r.queue, from, to)
}

// partner returns the live super-edge from → to, or -1.
func (r *reducer) partner(from, to int32) int32 {
	if r.adj[from].outDeg <= r.adj[to].inDeg {
		for i := r.adj[from].outHead; i >= 0; i = r.ses[i].nextOut {
			if r.ses[i].to == to {
				return i
			}
		}
		return -1
	}
	for i := r.adj[to].inHead; i >= 0; i = r.ses[i].nextIn {
		if r.ses[i].from == from {
			return i
		}
	}
	return -1
}

// kill unlinks super-edge i from both of its lists.
func (r *reducer) kill(i int32) {
	se := &r.ses[i]
	if se.prevOut >= 0 {
		r.ses[se.prevOut].nextOut = se.nextOut
	} else {
		r.adj[se.from].outHead = se.nextOut
	}
	if se.nextOut >= 0 {
		r.ses[se.nextOut].prevOut = se.prevOut
	}
	if se.prevIn >= 0 {
		r.ses[se.prevIn].nextIn = se.nextIn
	} else {
		r.adj[se.to].inHead = se.nextIn
	}
	if se.nextIn >= 0 {
		r.ses[se.nextIn].prevIn = se.prevIn
	}
	r.adj[se.from].outDeg--
	r.adj[se.to].inDeg--
	r.live--
}

// reduce applies series reductions, each followed by the parallel
// reduction its insert finds, until no queued interior vertex has exactly
// one live in-edge and one live out-edge.
func (r *reducer) reduce() {
	for len(r.queue) > 0 {
		v := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		if v == r.src || v == r.snk || r.adj[v].inDeg != 1 || r.adj[v].outDeg != 1 {
			continue
		}
		// Series reduction: splice v, composing Sc(a, b).
		a, b := r.adj[v].inHead, r.adj[v].outHead
		from, to := r.ses[a].from, r.ses[b].to
		t := r.compose(Series, r.ses[a].tree, r.ses[b].tree)
		r.kill(a)
		r.kill(b)
		r.insert(from, to, t)
	}
}

// Residual runs the same reduction but, instead of failing on non-SP
// graphs, returns the irreducible skeleton: the set of surviving
// super-edges, each carrying the decomposition tree of the SP fragment it
// contracts, ordered by tail node.  The ladder package recognizes
// SP-ladders from this skeleton.  If the graph is SP the skeleton has
// exactly one super-edge.
func Residual(g *graph.Graph, edges []graph.EdgeID, src, snk graph.NodeID) []*Fragment {
	r := newReducer(g, edges, src, snk)
	r.reduce()
	slab := make([]Fragment, 0, r.live)
	frags := make([]*Fragment, 0, r.live)
	for v := range r.adj {
		for i := r.adj[v].outHead; i >= 0; i = r.ses[i].nextOut {
			se := &r.ses[i]
			se.tree.setParents(nil)
			slab = append(slab, Fragment{From: r.nodes[se.from], To: r.nodes[se.to], Tree: se.tree})
			frags = append(frags, &slab[len(slab)-1])
		}
	}
	return frags
}

// Fragment is a maximal SP component contracted to a single skeleton edge.
type Fragment struct {
	From, To graph.NodeID
	Tree     *Tree
}

// compose makes the tree of a series or parallel composition in the slab.
func (r *reducer) compose(k Kind, l, rt *Tree) *Tree {
	t := Tree{Kind: k, L: l, R: rt}
	switch k {
	case Series:
		t.Src, t.Snk = l.Src, rt.Snk
		t.LBuf = l.LBuf + rt.LBuf
		t.Hops = l.Hops + rt.Hops
	case Parallel:
		t.Src, t.Snk = l.Src, l.Snk
		t.LBuf = min(l.LBuf, rt.LBuf)
		t.Hops = max(l.Hops, rt.Hops)
	default:
		panic("sp: compose of leaf")
	}
	r.trees = append(r.trees, t)
	return &r.trees[len(r.trees)-1]
}

func (t *Tree) setParents(p *Tree) {
	t.Parent = p
	if t.Kind != Leaf {
		t.L.setParents(t)
		t.R.setParents(t)
	}
}

// Leaves appends the leaf edge IDs under t to dst and returns it.
func (t *Tree) Leaves(dst []graph.EdgeID) []graph.EdgeID {
	stack := []*Tree{t}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Kind == Leaf {
			dst = append(dst, n.Edge)
			continue
		}
		stack = append(stack, n.R, n.L)
	}
	return dst
}

// Size returns the number of leaves under t.
func (t *Tree) Size() int {
	if t.Kind == Leaf {
		return 1
	}
	return t.L.Size() + t.R.Size()
}

// String renders the tree shape with edge IDs, e.g. "P(S(e0,e1),e2)".
func (t *Tree) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t *Tree) write(b *strings.Builder) {
	if t.Kind == Leaf {
		fmt.Fprintf(b, "e%d", int(t.Edge))
		return
	}
	b.WriteString(t.Kind.String())
	b.WriteByte('(')
	t.L.write(b)
	b.WriteByte(',')
	t.R.write(b)
	b.WriteByte(')')
}

// HopsThrough returns h(t, e) for every leaf edge e under t: the maximum
// hop count of a directed Src→Snk path of the component that passes through
// e (step 4 of the §IV-B procedure).  Computed in one top-down pass: at a
// series node the sibling's h(H) joins every path; at a parallel node paths
// stay within the branch.
func (t *Tree) HopsThrough() map[graph.EdgeID]int64 {
	out := make(map[graph.EdgeID]int64, t.Size())
	var walk func(n *Tree, acc int64)
	walk = func(n *Tree, acc int64) {
		if n.Kind == Leaf {
			out[n.Edge] = acc + 1
			return
		}
		if n.Kind == Series {
			walk(n.L, acc+n.R.Hops)
			walk(n.R, acc+n.L.Hops)
			return
		}
		walk(n.L, acc)
		walk(n.R, acc)
	}
	walk(t, 0)
	return out
}
