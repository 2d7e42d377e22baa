// This file holds topology construction and classification; the package
// overview lives in doc.go.
package streamdag

import (
	"fmt"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/ival"
)

// NodeID identifies a node of a Topology.
type NodeID = graph.NodeID

// EdgeID identifies a channel of a Topology.
type EdgeID = graph.EdgeID

// Interval is a dummy-message interval: an exact non-negative rational or
// +∞ (no dummies needed).
type Interval = ival.Interval

// Class is the topology family: SP, CS4, or General.
type Class = cs4.Class

// Topology classes.
const (
	SP      = cs4.ClassSP
	CS4     = cs4.ClassCS4
	General = cs4.ClassGeneral
)

// Algorithm selects a dummy-message protocol.
type Algorithm = cs4.Algorithm

// The two protocols of the paper.
const (
	// Propagation: interval timers at cycle sources; dummies are
	// forwarded on every output of a node they reach.
	Propagation = cs4.Propagation
	// NonPropagation: interval timers at every node; dummies are
	// consumed, never forwarded.
	NonPropagation = cs4.NonPropagation
)

// Topology is a streaming application graph under construction.  Nodes
// are created on first use by name; channels carry a buffer capacity in
// messages.  The zero value is not usable; call NewTopology.
type Topology struct {
	g *graph.Graph
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{g: graph.New()}
}

// Node ensures a node with the given name exists and returns its ID.
func (t *Topology) Node(name string) NodeID {
	if id, ok := t.g.NodeByName(name); ok {
		return id
	}
	return t.g.AddNode(name)
}

// Channel adds a FIFO channel from → to with capacity buf (messages) and
// returns its ID, creating the endpoints as needed.
func (t *Topology) Channel(from, to string, buf int) EdgeID {
	return t.g.AddEdge(t.Node(from), t.Node(to), buf)
}

// Graph exposes the underlying graph for analysis and execution.
func (t *Topology) Graph() *graph.Graph { return t.g }

// NodeName returns the name of n.
func (t *Topology) NodeName(n NodeID) string { return t.g.Name(n) }

// Edge returns the endpoints and buffer of channel e.
func (t *Topology) Edge(e EdgeID) (from, to string, buf int) {
	ed := t.g.Edge(e)
	return t.g.Name(ed.From), t.g.Name(ed.To), ed.Buf
}

// DOT renders the topology in Graphviz syntax.
func (t *Topology) DOT() string { return t.g.DOT() }

// Analysis is the result of classifying a topology.
type Analysis struct {
	topo *Topology
	dec  *cs4.Decomposition
	// ExhaustiveCycleLimit bounds the exponential fallback used for
	// general graphs by Intervals; defaults to DefaultCycleLimit.
	ExhaustiveCycleLimit int
}

// DefaultCycleLimit bounds the exhaustive fallback's cycle enumeration.
const DefaultCycleLimit = 1_000_000

// Analyze validates and classifies the topology.
func Analyze(t *Topology) (*Analysis, error) {
	dec, err := cs4.Classify(t.g)
	if err != nil {
		return nil, err
	}
	return &Analysis{topo: t, dec: dec, ExhaustiveCycleLimit: DefaultCycleLimit}, nil
}

// Class returns the topology family.
func (a *Analysis) Class() Class { return a.dec.Class }

// Components returns, for CS4-classified graphs, a description of each
// serial component ("sp" or "ladder" with its terminals).
func (a *Analysis) Components() []string {
	var out []string
	for _, c := range a.dec.Components {
		kind := "sp"
		if c.Ladder != nil {
			kind = fmt.Sprintf("ladder(%d rungs)", c.Ladder.K)
		}
		out = append(out, fmt.Sprintf("%s %s→%s", kind,
			a.topo.g.Name(c.Src), a.topo.g.Name(c.Snk)))
	}
	return out
}

// Witness describes a cycle with two or more sources when the topology is
// not CS4, or returns "".
func (a *Analysis) Witness() string {
	if a.dec.Witness == nil {
		return ""
	}
	return a.dec.Witness.Describe(a.topo.g)
}

// Intervals computes per-edge dummy intervals for the given protocol: the
// paper's efficient algorithms on SP and CS4 topologies, or the
// exponential general-DAG baseline (bounded by ExhaustiveCycleLimit)
// otherwise.
func (a *Analysis) Intervals(alg Algorithm) (map[EdgeID]Interval, error) {
	if a.dec.Class != cs4.ClassGeneral {
		return a.dec.Intervals(alg)
	}
	iv, err := cs4.IntervalsExhaustive(a.topo.g, alg, a.ExhaustiveCycleLimit)
	if err != nil {
		return nil, fmt.Errorf("streamdag: general topology too large for exhaustive analysis: %w", err)
	}
	return iv, nil
}

// RewriteButterfly applies the paper's conclusion: detect a 2×2 crossing
// (K2,2) and re-route one channel through the opposite downstream node,
// producing a CS4 topology where the efficient algorithms apply.  The
// forwarding node must pass re-routed traffic along (see stream.Kernel).
func RewriteButterfly(t *Topology) (*Topology, string, error) {
	ng, desc, err := cs4.RewriteButterfly(t.g)
	if err != nil {
		return nil, "", err
	}
	return &Topology{g: ng}, desc, nil
}
