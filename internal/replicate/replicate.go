// Package replicate implements data-parallel node replication: a
// topology transformation that expands a selected node into k replicas
// wrapped by a synthetic round-robin splitter and a sequence-ordered
// merger, so a hot kernel scales out without losing the paper's safety
// guarantee.
//
// The transform replaces one node v by the series-parallel subgraph
//
//	… → v.split → {v.1 … v.k} → v.merge → …
//
// where v.split forwards the aligned inputs of sequence number s to
// replica s mod k only, each replica runs the original kernel, and
// v.merge re-emits the replica outputs on the original out-edges.
// Replacing a vertex by a two-terminal series-parallel subgraph is a
// series-parallel composition: undirected cycles of the result either
// avoid the diamond, traverse it along exactly one split→replica→merge
// path (contracting the diamond maps them 1:1 onto cycles of the
// original graph), or stay inside it (where split is the unique cycle
// source and merge the unique sink).  SP topologies therefore stay SP
// and CS4 topologies stay CS4, so the polynomial interval algorithms
// apply to the expanded graph — recompute intervals on it and run on
// any backend.
//
// Ordering and count equivalence: the merger is an ordinary node, so the
// minimum-sequence-number alignment rule (proto.MinSeq) makes it fire in
// strict sequence order across the replica channels; it emits data for
// sequence s on the out-edge that corresponds to original edge e exactly
// when the original node would have, so per-edge data counts on every
// surviving edge are identical to the unreplicated run, on every
// backend.
//
// The round-robin splitter filters per-edge (data for s goes to one
// replica; the others see protocol dummies), so a replicated topology
// REQUIRES the dummy protocol: run it with intervals computed on the
// expanded graph or the merger's input alignment wedges.
package replicate

import (
	"encoding/gob"
	"fmt"
	"sort"

	"streamdag/internal/graph"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

// Plan selects the nodes to replicate and their replica counts.  k = 1
// entries are accepted and leave the node untouched.
type Plan map[graph.NodeID]int

// SplitBundle is the payload a splitter sends to one replica: the
// original node's aligned inputs for one sequence number.  It is
// exported (and gob-registered) so bundles survive the TCP codec when
// replicas land on different distributed workers.
type SplitBundle struct {
	In []stream.Input
}

// MergeBundle is the payload a replica sends to the merger, the mirror
// of SplitBundle: the original kernel's output slots, one per original
// out-edge position, Present where it emitted.  A bundle with no present
// slot means the kernel filtered the input entirely.
type MergeBundle struct {
	Outs []stream.Input
}

func init() {
	// Bundles cross TCP inside the codec's gob fallback; register them
	// and the scalar payload types they commonly wrap.  Application
	// payload types must be registered by the application, as for any
	// distributed run.
	gob.Register(SplitBundle{})
	gob.Register(MergeBundle{})
	gob.Register(uint64(0))
	gob.Register(int64(0))
	gob.Register(int(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(false)
	gob.Register([]byte(nil))
}

// role classifies a node of the expanded graph.
type role uint8

const (
	rolePlain role = iota
	roleSplit
	roleReplica
	roleMerge
)

// group records the expansion of one replicated node.
type group struct {
	orig     graph.NodeID // in the original graph
	k        int
	origIn   int          // original in-degree
	origOut  int          // original out-degree
	split    graph.NodeID // in the expanded graph
	merge    graph.NodeID
	replicas []graph.NodeID
}

// Result is an applied transformation: the expanded graph plus the
// mappings that carry kernels, filters, and per-edge statistics across
// it.
type Result struct {
	g      *graph.Graph
	groups map[graph.NodeID]*group // by original node

	roles      []role         // by expanded node
	origNode   []graph.NodeID // expanded node → original node
	replicaIdx []int          // expanded node → replica index, or -1
	newNode    []graph.NodeID // original node → expanded counterpart (split for in-edges' sake is handled per edge)
	origEdge   []graph.EdgeID // expanded edge → original edge, or -1 (synthetic)
	newEdge    []graph.EdgeID // original edge → expanded edge
}

// Apply expands g according to plan.  The empty plan yields an identical
// copy with identity mappings.  A non-empty plan requires g to be a
// valid two-terminal DAG, and rejects replicating its unique source or
// sink: the transform inserts a splitter upstream and a merger
// downstream of the node, which a terminal does not have.
func Apply(g *graph.Graph, plan Plan) (*Result, error) {
	effective := make([]graph.NodeID, 0, len(plan))
	for n, k := range plan {
		if n < 0 || int(n) >= g.NumNodes() {
			return nil, fmt.Errorf("replicate: unknown node %d", n)
		}
		if k < 1 {
			return nil, fmt.Errorf("replicate: node %q: replica count %d < 1", g.Name(n), k)
		}
		if k > 1 {
			effective = append(effective, n)
		}
	}
	sort.Slice(effective, func(i, j int) bool { return effective[i] < effective[j] })
	if len(effective) > 0 {
		if err := g.Validate(); err != nil {
			return nil, err
		}
		if src := g.Source(); plan[src] > 1 {
			return nil, fmt.Errorf("replicate: cannot replicate %q: it is the unique source (a splitter cannot be inserted upstream of it)", g.Name(src))
		}
		if snk := g.Sink(); plan[snk] > 1 {
			return nil, fmt.Errorf("replicate: cannot replicate %q: it is the unique sink (a merger cannot be inserted downstream of it)", g.Name(snk))
		}
	}

	r := &Result{
		g:       graph.New(),
		groups:  make(map[graph.NodeID]*group, len(effective)),
		newNode: make([]graph.NodeID, g.NumNodes()),
		newEdge: make([]graph.EdgeID, g.NumEdges()),
	}
	addNode := func(name string, ro role, orig graph.NodeID, idx int) (graph.NodeID, error) {
		if _, dup := r.g.NodeByName(name); dup {
			return 0, fmt.Errorf("replicate: synthetic node name %q collides with an existing node; rename it in the topology", name)
		}
		id := r.g.AddNode(name)
		r.roles = append(r.roles, ro)
		r.origNode = append(r.origNode, orig)
		r.replicaIdx = append(r.replicaIdx, idx)
		return id, nil
	}

	// Nodes: plain nodes keep their names; a replicated node v becomes
	// v.split, v.1 … v.k, v.merge.  First pass reserves the original
	// names so collisions are reported against user-chosen names.
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		if plan[id] > 1 {
			continue
		}
		nn, err := addNode(g.Name(id), rolePlain, id, -1)
		if err != nil {
			return nil, err
		}
		r.newNode[id] = nn
	}
	for _, id := range effective {
		k := plan[id]
		name := g.Name(id)
		gr := &group{orig: id, k: k, origIn: g.InDegree(id), origOut: g.OutDegree(id)}
		var err error
		if gr.split, err = addNode(name+".split", roleSplit, id, -1); err != nil {
			return nil, err
		}
		for i := 1; i <= k; i++ {
			rep, err := addNode(fmt.Sprintf("%s.%d", name, i), roleReplica, id, i-1)
			if err != nil {
				return nil, err
			}
			gr.replicas = append(gr.replicas, rep)
		}
		if gr.merge, err = addNode(name+".merge", roleMerge, id, -1); err != nil {
			return nil, err
		}
		r.groups[id] = gr
		// Internal diamond edges: split→replica and replica→merge, with a
		// buffer matching the largest channel adjacent to the original
		// node, so the diamond adds no tighter bottleneck than v had.
		buf := 1
		for _, e := range g.In(id) {
			if b := g.Edge(e).Buf; b > buf {
				buf = b
			}
		}
		for _, e := range g.Out(id) {
			if b := g.Edge(e).Buf; b > buf {
				buf = b
			}
		}
		for _, rep := range gr.replicas {
			ne := r.g.AddEdge(gr.split, rep, buf)
			r.origEdge = append(r.origEdge, -1)
			_ = ne
		}
		for _, rep := range gr.replicas {
			r.g.AddEdge(rep, gr.merge, buf)
			r.origEdge = append(r.origEdge, -1)
		}
	}

	// Edges: every original edge survives with the same buffer; an
	// endpoint that was replicated is re-routed to its merger (outgoing
	// side) or splitter (incoming side).  Iterating in edge-ID order
	// preserves each node's relative in-/out-edge order, so kernel
	// output positions and input slots carry over unchanged.
	for _, e := range g.Edges() {
		from, to := r.tailOf(e.From), r.headOf(e.To)
		ne := r.g.AddEdge(from, to, e.Buf)
		r.origEdge = append(r.origEdge, e.ID)
		r.newEdge[e.ID] = ne
	}
	return r, nil
}

// tailOf returns the expanded node that emits on behalf of original node
// n: its merger when replicated, itself otherwise.
func (r *Result) tailOf(n graph.NodeID) graph.NodeID {
	if gr, ok := r.groups[n]; ok {
		return gr.merge
	}
	return r.newNode[n]
}

// headOf returns the expanded node that consumes on behalf of original
// node n: its splitter when replicated, itself otherwise.
func (r *Result) headOf(n graph.NodeID) graph.NodeID {
	if gr, ok := r.groups[n]; ok {
		return gr.split
	}
	return r.newNode[n]
}

// Graph returns the expanded graph.
func (r *Result) Graph() *graph.Graph { return r.g }

// Replicas returns the expanded-graph nodes that run original node n's
// kernel: its replica nodes when replicated, the node itself otherwise.
// Use it to spread replicas across distributed workers.
func (r *Result) Replicas(n graph.NodeID) []graph.NodeID {
	if gr, ok := r.groups[n]; ok {
		return append([]graph.NodeID(nil), gr.replicas...)
	}
	return []graph.NodeID{r.newNode[n]}
}

// Splitter returns the synthetic splitter for original node n, or ok =
// false when n was not replicated.
func (r *Result) Splitter(n graph.NodeID) (graph.NodeID, bool) {
	gr, ok := r.groups[n]
	if !ok {
		return 0, false
	}
	return gr.split, true
}

// Merger returns the synthetic merger for original node n, or ok = false
// when n was not replicated.
func (r *Result) Merger(n graph.NodeID) (graph.NodeID, bool) {
	gr, ok := r.groups[n]
	if !ok {
		return 0, false
	}
	return gr.merge, true
}

// OriginalEdge maps an expanded edge back to the original edge it
// carries; ok = false for the synthetic diamond edges.
func (r *Result) OriginalEdge(e graph.EdgeID) (graph.EdgeID, bool) {
	oe := r.origEdge[e]
	return oe, oe >= 0
}

// NewEdge maps an original edge to its expanded counterpart.
func (r *Result) NewEdge(e graph.EdgeID) graph.EdgeID { return r.newEdge[e] }

// Kernels maps kernels keyed by original node onto the expanded graph:
// plain nodes keep their kernel, each replica wraps the replicated
// node's kernel (nil defaults to passthrough over the original
// out-degree), and the synthetic splitter/merger kernels bundle and
// unbundle the firing.  The replicas of one node share the original
// Kernel value and may run concurrently — a replicated kernel must be
// safe for concurrent use (stateless kernels, like every RouteKernels
// kernel, trivially are).
func (r *Result) Kernels(orig map[graph.NodeID]stream.Kernel) map[graph.NodeID]stream.Kernel {
	ks := make(map[graph.NodeID]stream.Kernel, r.g.NumNodes())
	for n, k := range orig {
		if _, replicated := r.groups[n]; !replicated {
			ks[r.newNode[n]] = k
		}
	}
	for _, gr := range r.groups {
		ks[gr.split] = splitterKernel(gr.k)
		inner := orig[gr.orig]
		if inner == nil {
			inner = stream.Passthrough(gr.origOut)
		}
		for _, rep := range gr.replicas {
			ks[rep] = replicaKernel{inner: stream.SliceForm(inner), nOut: gr.origOut}
		}
		ks[gr.merge] = mergerKernel(gr.origOut)
	}
	return ks
}

// splitterKernel routes the aligned inputs of sequence number s, as one
// SplitBundle, to replica s mod k: the firing costs the bundle (the
// inputs are node scratch and must be copied) and nothing else.
type splitterKernel int

func (k splitterKernel) Process(seq uint64, in []stream.Input) map[int]any {
	return stream.MapForm(k, int(k), seq, in)
}

func (k splitterKernel) ProcessInto(seq uint64, in []stream.Input, out []any, present []bool) {
	if b, ok := k.bundle(in); ok {
		r := seq % uint64(k)
		out[r], present[r] = b, true
	}
}

func (splitterKernel) bundle(in []stream.Input) (SplitBundle, bool) {
	for _, i := range in {
		if i.Present {
			return SplitBundle{In: append([]stream.Input(nil), in...)}, true
		}
	}
	return SplitBundle{}, false
}

// replicaKernel fires the original kernel on the bundled inputs, into
// fresh slots, and forwards them to the merger.  It emits a MergeBundle
// even when the kernel filtered everything, keeping the replica's
// subsequence dense so the merger observes the filtering decision itself.
type replicaKernel struct {
	inner stream.SliceKernel
	nOut  int // the original node's out-degree
}

func (k replicaKernel) Process(seq uint64, in []stream.Input) map[int]any {
	return stream.MapForm(k, 1, seq, in)
}

func (k replicaKernel) ProcessInto(seq uint64, in []stream.Input, out []any, present []bool) {
	if !in[0].Present {
		return
	}
	vals, emitted := make([]any, k.nOut), make([]bool, k.nOut)
	k.inner.ProcessInto(seq, in[0].Payload.(SplitBundle).In, vals, emitted)
	outs := make([]stream.Input, k.nOut)
	for i := range outs {
		outs[i] = stream.Input{Present: emitted[i], Payload: vals[i]}
	}
	out[0], present[0] = MergeBundle{Outs: outs}, true
}

// mergerKernel copies the replica's slots onto the original out-edge
// positions; its value is the original out-degree.  At most one replica
// carries data for any sequence number (the splitter routed it), and the
// minimum-sequence alignment rule fires the merger in strict sequence
// order, so emission order and per-edge counts match the unreplicated
// node exactly.
type mergerKernel int

func (k mergerKernel) Process(seq uint64, in []stream.Input) map[int]any {
	return stream.MapForm(k, int(k), seq, in)
}

func (mergerKernel) ProcessInto(_ uint64, in []stream.Input, out []any, present []bool) {
	for _, i := range in {
		if i.Present {
			for o, s := range i.Payload.(MergeBundle).Outs {
				out[o], present[o] = s.Payload, s.Present
			}
			return
		}
	}
}

// Filter maps a simulator filter from the original graph onto the
// expanded one: plain nodes and mergers consult the original filter
// through the node and edge mappings, splitters apply the round-robin
// routing, and replicas forward everything.  Simulating the expanded
// graph with the mapped filter reproduces, edge for edge, the data
// counts of simulating the original graph with the original filter.
func (r *Result) Filter(orig workload.FilterFunc) workload.FilterFunc {
	return func(n graph.NodeID, seq uint64, e graph.EdgeID) bool {
		switch r.roles[n] {
		case roleSplit:
			gr := r.groups[r.origNode[n]]
			// Out-edges of the splitter are the k replica channels in
			// replica order; route to replica seq mod k.
			for i, oe := range r.g.Out(n) {
				if oe == e {
					return i == int(seq%uint64(gr.k))
				}
			}
			return false
		case roleReplica:
			return true
		default: // plain nodes and mergers defer to the original filter
			oe := r.origEdge[e]
			if oe < 0 {
				return true
			}
			return orig(r.origNode[n], seq, oe)
		}
	}
}
