package streamdag

import (
	"fmt"
	"sort"

	"streamdag/internal/replicate"
)

// This file exposes data-parallel node replication: scale out a hot
// kernel by expanding its node into k replicas behind a synthetic
// round-robin splitter and a sequence-ordered merger.  The transform is
// a series-parallel composition, so SP topologies stay SP and CS4
// topologies stay CS4 — recompute intervals on the expanded topology and
// the paper's safety guarantee carries over unchanged, on all three
// backends.  See DESIGN.md, "Data-parallel replication".

// ReplicationPlan maps node names to replica counts.  Counts of 1 leave
// the node untouched; counts above 1 expand it.
type ReplicationPlan map[string]int

// Replicated is an expanded topology together with the mappings that
// carry kernels, filters, and per-edge statistics across the
// transformation.
type Replicated struct {
	orig *Topology
	topo *Topology
	res  *replicate.Result
}

// expand replicates the selected nodes of t into replicas wrapped by
// splitter/merger pairs: the one expansion behind WithReplication,
// Stage.Replicate and BuildReplicated.  A node named n becomes n.split,
// n.1 … n.k, n.merge; every original channel survives with its buffer,
// re-routed around the diamond.  The topology must be a valid
// two-terminal DAG and the plan may not name its unique source or sink.
//
// The expanded topology requires the dummy protocol: the round-robin
// splitter filters per-edge, so run it with intervals computed by
// Analyze on the replicated topology.
func expand(t *Topology, plan ReplicationPlan) (*Replicated, error) {
	p := make(replicate.Plan, len(plan))
	names := make([]string, 0, len(plan))
	for name := range plan {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		id, ok := t.g.NodeByName(name)
		if !ok {
			return nil, fmt.Errorf("streamdag: replicate: no node %q in the topology", name)
		}
		p[id] = plan[name]
	}
	res, err := replicate.Apply(t.g, p)
	if err != nil {
		return nil, err
	}
	return &Replicated{orig: t, topo: &Topology{g: res.Graph()}, res: res}, nil
}

// Topology returns the expanded topology; analyze and run this one.
func (r *Replicated) Topology() *Topology { return r.topo }

// Replicas returns the node IDs (in the expanded topology) that run the
// named node's kernel: its replicas when expanded, the node itself
// otherwise.  Use it to spread replicas across distributed workers.
func (r *Replicated) Replicas(name string) ([]NodeID, error) {
	id, ok := r.orig.g.NodeByName(name)
	if !ok {
		return nil, fmt.Errorf("streamdag: replicate: no node %q in the original topology", name)
	}
	return r.res.Replicas(id), nil
}
