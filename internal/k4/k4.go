// Package k4 decides whether a graph's underlying undirected multigraph
// contains a K4 subdivision, in polynomial time.
//
// Lemma V.1 of the paper: a DAG is CS4 only if no subgraph is
// homeomorphic to K4 — the butterfly's crossing is exactly such a
// subdivision.  The exhaustive CS4 checker (internal/cycles) certifies
// non-membership with a two-source cycle but runs in exponential time;
// this package provides the polynomial certificate instead, via the
// classic equivalence: an undirected graph has no K4 minor iff it has
// treewidth ≤ 2 iff it reduces to the empty graph by repeatedly deleting
// vertices of degree ≤ 1 and splicing out vertices of degree 2 (merging
// any parallel edges that appear).  If reduction jams, the remaining core
// has minimum degree ≥ 3 and therefore contains a K4 subdivision; its
// vertex set is returned as the witness.
//
// Note the asymmetry the paper proves: K4-freedom is necessary for CS4
// but not sufficient (edge directions matter), so this check is a fast
// pre-filter and a diagnosis aid, not a CS4 decision procedure.
package k4

import (
	"sort"

	"streamdag/internal/graph"
)

// HasK4Subdivision reports whether g's undirected form contains a
// subdivision of K4.  When it does, core is the vertex set of the stuck
// reduction core (minimum degree ≥ 3), a compact region certifying the
// subdivision.
func HasK4Subdivision(g *graph.Graph) (has bool, core []graph.NodeID) {
	n := g.NumNodes()
	// Neighbor multisets; parallel edges collapse (a doubled edge is a
	// cycle, not part of a K4 subdivision's branch structure, and
	// collapsing preserves the K4-minor property).
	adj := make([]map[graph.NodeID]bool, n)
	for i := range adj {
		adj[i] = make(map[graph.NodeID]bool)
	}
	for _, e := range g.Edges() {
		if e.From == e.To {
			continue
		}
		adj[e.From][e.To] = true
		adj[e.To][e.From] = true
	}
	alive := make([]bool, n)
	aliveCount := 0
	queue := make([]graph.NodeID, 0, n)
	for i := 0; i < n; i++ {
		alive[i] = true
		aliveCount++
		queue = append(queue, graph.NodeID(i))
	}
	remove := func(v graph.NodeID) {
		for u := range adj[v] {
			delete(adj[u], v)
			queue = append(queue, u)
		}
		adj[v] = nil
		alive[v] = false
		aliveCount--
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !alive[v] {
			continue
		}
		switch len(adj[v]) {
		case 0, 1:
			remove(v)
		case 2:
			var ns []graph.NodeID
			for u := range adj[v] {
				ns = append(ns, u)
			}
			a, b := ns[0], ns[1]
			remove(v)
			// Splice: connect the neighbors (parallel edges collapse).
			if !adj[a][b] {
				adj[a][b] = true
				adj[b][a] = true
			}
			queue = append(queue, a, b)
		}
	}
	if aliveCount == 0 {
		return false, nil
	}
	for i := 0; i < n; i++ {
		if alive[i] {
			core = append(core, graph.NodeID(i))
		}
	}
	sort.Slice(core, func(i, j int) bool { return core[i] < core[j] })
	return true, core
}
