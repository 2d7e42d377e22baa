package streamdag

import (
	"streamdag/internal/graph"
	"streamdag/internal/sim"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

// This file exposes the kernel vocabulary the backends execute, the bare
// deterministic simulator, and filtering-behavior constructors for
// experiments.

// Kernel is user compute code for one node; see stream.Kernel.
type Kernel = stream.Kernel

// KernelFunc adapts a function to Kernel.
type KernelFunc = stream.KernelFunc

// Input is the per-edge aligned input handed to kernels.
type Input = stream.Input

// SpanKernel is the optional vectorized kernel interface: a backend
// hands a whole run of consecutive elements to ProcessSpan in one call
// instead of invoking Process per element.  The run may have length one
// at any batch setting, and its in and out slices are engine scratch,
// never to be retained.  See stream.SpanKernel for the prefix-decline
// contract.
type SpanKernel = stream.SpanKernel

// mapKernel is a single-input map kernel that vectorizes: a keepKernel
// that emits fn of the (single present) input payload in every slot,
// plus ProcessSpan, which does the same for a whole run with no
// per-element allocation.  A sink node has one slot, position 0, so at a
// sink both paths deliver fn's result.
type mapKernel struct {
	keepKernel
	fn func(any) any
}

func (m mapKernel) ProcessSpan(_ uint64, in, out []any) int {
	for j, v := range in {
		out[j] = m.fn(v)
	}
	return len(in)
}

// MapKernel builds a kernel that applies fn to every payload and emits
// the result on all outs out-edges (outs 0 is valid at a sink, where
// fn's result is what reaches the run's Sink).  The kernel implements
// SpanKernel, so batched backends run it once per span rather than once
// per element — use it for hot single-input stages in preference to a
// hand-rolled KernelFunc.
func MapKernel(outs int, fn func(any) any) Kernel {
	each := func(_ uint64, in []Input) (any, bool) {
		if p, ok := firstPresent(in); ok {
			return fn(p), true
		}
		return nil, false // nothing present: the firing filters
	}
	return mapKernel{keepKernel: keepKernel{nOut: outs, decide: each}, fn: fn}
}

// RunStats summarizes a completed session.
type RunStats = stream.Stats

// DeadlockError is a session's outcome when it wedges, on every
// backend: the watchdog of Goroutines or Distributed, or the
// Simulator's exact check, finds it; it names the session and carries a
// channel-occupancy snapshot.
type DeadlockError = stream.DeadlockError

// Filter decides routing for simulation and for RouteKernels: whether a
// node forwards sequence number seq on its out-edge e.  Must be pure.
type Filter = workload.FilterFunc

// RouteKernels builds a kernel per node that forwards the first present
// payload (the sequence number at the source) on the out-edges selected
// by f — the runtime counterpart of simulating with the same filter.
// Every backend fires them through ProcessInto into node scratch, so a
// routed firing allocates nothing; Process, their map form, is kept for
// callers holding a plain Kernel.
func RouteKernels(t *Topology, f Filter) map[NodeID]Kernel {
	ks := make(map[NodeID]Kernel, t.g.NumNodes())
	for n := 0; n < t.g.NumNodes(); n++ {
		id := graph.NodeID(n)
		ks[id] = routeKernel{id: id, out: t.g.Out(id), f: f}
	}
	return ks
}

// routeKernel is one node's RouteKernels kernel.
type routeKernel struct {
	id  graph.NodeID
	out []graph.EdgeID
	f   Filter
}

func (k routeKernel) payload(seq uint64, in []Input) any {
	if p, ok := firstPresent(in); ok {
		return p
	}
	return seq
}

func (k routeKernel) Process(seq uint64, in []Input) map[int]any {
	return stream.MapForm(k, len(k.out), seq, in)
}

func (k routeKernel) ProcessInto(seq uint64, in []Input, out []any, present []bool) {
	payload := k.payload(seq, in)
	for i, e := range k.out {
		if k.f(k.id, seq, e) {
			out[i], present[i] = payload, true
		}
	}
}

// SimConfig parameterizes Simulate.
type SimConfig struct {
	Inputs    uint64
	Algorithm Algorithm
	Intervals map[EdgeID]Interval
	// MaxSteps bounds the scheduler (0 = unbounded).
	MaxSteps int64
}

// SimResult is the simulator's outcome, including exact deadlock
// detection and per-edge traffic counts.
type SimResult = sim.Result

// Simulate runs the deterministic simulator on a bare topology and
// filter: exact deadlock detection, schedule-independent results.  It is
// the oracle the test suites compare the backends against; to stream real
// payloads through kernels, Build with WithBackend(Simulator()).
func Simulate(t *Topology, f Filter, cfg SimConfig) *SimResult {
	return sim.Run(t.g, sim.Filter(f), sim.Config{
		Inputs:    cfg.Inputs,
		Algorithm: cfg.Algorithm,
		Intervals: cfg.Intervals,
		MaxSteps:  cfg.MaxSteps,
	})
}

// Filtering behavior constructors, re-exported from the workload
// generators so applications and experiments share one vocabulary.
var (
	// PassAll never filters.
	PassAll = workload.PassAll
	// Bernoulli forwards each (node, seq, edge) with probability p.
	// Until ROADMAP item 23 lands, such per-edge filters at interior
	// splits are outside the Propagation guarantee; SourceRouting is
	// inside it.
	Bernoulli = workload.Bernoulli
	// PerInputBernoulli filters whole inputs (all outputs or none).
	PerInputBernoulli = workload.PerInputBernoulli
	// DropEdge starves one specific channel (the Fig. 2 adversary).
	DropEdge = workload.DropEdge
	// Periodic forwards every k-th sequence number.
	Periodic = workload.Periodic
	// Bursty alternates pass and filter windows per edge.
	Bursty = workload.Bursty
	// Compose AND-combines filters.
	Compose = workload.Compose
	// SourceRouting applies a per-edge filter at one node and an
	// all-or-nothing filter elsewhere (the Propagation soundness class).
	SourceRouting = workload.SourceRouting
)
