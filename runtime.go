package streamdag

import (
	"context"
	"time"

	"streamdag/internal/graph"
	"streamdag/internal/sim"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

// This file exposes execution: the goroutine runtime and the deterministic
// simulator, plus filtering-behavior constructors for experiments.

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

// mapKernel is a single-input map kernel that vectorizes: Process
// applies fn to the (single present) input payload and broadcasts the
// result on all outs edges; ProcessSpan does the same for a whole run
// with no per-element allocation.  Process always includes out-position
// 0, so at a sink node both paths deliver fn's result.
type mapKernel struct {
	outs int
	fn   func(any) any
}

func (m mapKernel) Process(_ uint64, in []Input) map[int]any {
	for _, i := range in {
		if i.Present {
			r := m.fn(i.Payload)
			outs := make(map[int]any, m.outs+1)
			outs[0] = r
			for o := 1; o < m.outs; o++ {
				outs[o] = r
			}
			return outs
		}
	}
	return nil // nothing present: the firing filters
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
	return mapKernel{outs: outs, fn: fn}
}

// RunConfig parameterizes Run.
type RunConfig struct {
	// Inputs is the number of sequence numbers generated at the source.
	Inputs uint64
	// Algorithm selects the dummy protocol when Intervals != nil.
	Algorithm Algorithm
	// Intervals are the per-edge dummy intervals from Analysis.Intervals;
	// nil runs without deadlock avoidance.
	Intervals map[EdgeID]Interval
	// WatchdogTimeout is how long Run waits without progress before
	// reporting deadlock (default one second).
	WatchdogTimeout time.Duration
}

// RunStats summarizes a completed run.
type RunStats = stream.Stats

// DeadlockError is returned by Run when the watchdog detects a wedged
// network; it carries a channel-occupancy snapshot.
type DeadlockError = stream.DeadlockError

// Run executes the topology on goroutines and buffered channels.  Nodes
// without kernels forward their first present input on every output.
//
// Deprecated: Run survives as a thin wrapper over the Pipeline API.  New
// code should Build the topology and call Pipeline.Run with a real
// Source and Sink (and a cancellable context).
func Run(t *Topology, kernels map[NodeID]Kernel, cfg RunConfig) (*RunStats, error) {
	return stream.Run(context.Background(), t.g, kernels, stream.Config{
		Inputs:          cfg.Inputs,
		Algorithm:       cfg.Algorithm,
		Intervals:       cfg.Intervals,
		WatchdogTimeout: cfg.WatchdogTimeout,
	})
}

// Filter decides routing for simulation and for RouteKernels: whether a
// node forwards sequence number seq on its out-edge e.  Must be pure.
type Filter = workload.FilterFunc

// RouteKernels builds a kernel per node that forwards the first present
// payload (the sequence number at the source) on the out-edges selected
// by f — the runtime counterpart of simulating with the same filter.
func RouteKernels(t *Topology, f Filter) map[NodeID]Kernel {
	ks := make(map[NodeID]Kernel, t.g.NumNodes())
	for n := 0; n < t.g.NumNodes(); n++ {
		id := graph.NodeID(n)
		out := t.g.Out(id)
		ks[id] = stream.KernelFunc(func(seq uint64, in []stream.Input) map[int]any {
			var payload any = seq
			for _, i := range in {
				if i.Present {
					payload = i.Payload
					break
				}
			}
			outs := make(map[int]any, len(out))
			for i, e := range out {
				if f(id, seq, e) {
					outs[i] = payload
				}
			}
			return outs
		})
	}
	return ks
}

// SimConfig parameterizes Simulate.
type SimConfig struct {
	Inputs    uint64
	Algorithm Algorithm
	Intervals map[EdgeID]Interval
	// MaxSteps bounds the scheduler (0 = unbounded).
	MaxSteps int64
	// Trace, if non-nil, receives one line per consume/emit event.
	Trace func(string)
}

// SimResult is the simulator's outcome, including exact deadlock
// detection and per-edge traffic counts.
type SimResult = sim.Result

// Simulate runs the deterministic simulator: exact deadlock detection,
// schedule-independent results.
//
// Deprecated: Simulate survives as a thin wrapper over the Pipeline
// API.  New code should Build the topology with
// WithBackend(Simulator()) and call Pipeline.Run.
func Simulate(t *Topology, f Filter, cfg SimConfig) *SimResult {
	return sim.Run(t.g, sim.Filter(f), sim.Config{
		Inputs:    cfg.Inputs,
		Algorithm: cfg.Algorithm,
		Intervals: cfg.Intervals,
		MaxSteps:  cfg.MaxSteps,
		Trace:     cfg.Trace,
	})
}

// Filtering behavior constructors, re-exported from the workload
// generators so applications and experiments share one vocabulary.
var (
	// PassAll never filters.
	PassAll = workload.PassAll
	// Bernoulli forwards each (node, seq, edge) with probability p.
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
