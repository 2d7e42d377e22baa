package streamdag

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"streamdag/internal/stream"
)

// This file is the Flow builder: a generics-based, composable layer over
// the kernel-level Pipeline API.  A Flow is a typed stage graph;
// Flow.Compile lowers it to an ordinary *Topology plus a kernel map and
// calls Build, so classification (SP / CS4), dummy-interval computation,
// replication, and all three backends work unchanged underneath.  The
// kernel-level API (Build + WithKernel) remains fully supported — it is
// the tier for irregular topologies (cross-links, ladders) the stage
// vocabulary cannot express.
//
// Lowering (see DESIGN.md, "Typed Flow builder"):
//
//	source → stage₁ → … → stageₙ → sink
//
// with Split branches fanning out of the preceding node and back into
// their merge node.  The synthetic "source" node ingests payloads
// (checking they are the flow's In type) and the synthetic "sink" node
// delivers the last stage's outputs to the run's Sink.

// FlowDefaultBuffer is the capacity of lowered channels when neither the
// flow (Flow.Buffer) nor the stage (Stage.Buffer) overrides it.
const FlowDefaultBuffer = 16

// StageTypeError reports a payload type mismatch at a stage boundary —
// at compile time (two adjacent stages disagree) or at run time (a
// payload reached a stage with a dynamic type its function cannot
// accept; the message is filtered rather than panicking, and the error
// is returned by Pipeline.Run after the stream drains).
type StageTypeError struct {
	// Stage is the name of the stage (or "sink") whose boundary failed.
	Stage string
	// Want is the type the boundary expects; Got is what arrived (nil
	// for an untyped nil payload).
	Want, Got reflect.Type
	// Seq is the offending sequence number when Runtime is true.
	Seq uint64
	// Runtime distinguishes a mid-stream mismatch from a compile-time
	// boundary check failure.
	Runtime bool
}

// Error names the stage and both types, and the sequence number of a
// mid-stream mismatch.
func (e *StageTypeError) Error() string {
	got := "<nil>"
	if e.Got != nil {
		got = e.Got.String()
	}
	if e.Runtime {
		return fmt.Sprintf("streamdag: flow: stage %q: payload for seq %d has type %s, want %s",
			e.Stage, e.Seq, got, e.Want)
	}
	return fmt.Sprintf("streamdag: flow: stage %q expects %s, upstream produces %s",
		e.Stage, e.Want, got)
}

// stageErrSlot records the first runtime StageTypeError of a run; the
// kernels of a compiled flow share one slot, and Pipeline.Run clears it
// at start and surfaces it at the end.
type stageErrSlot struct {
	p atomic.Pointer[StageTypeError]
}

func (s *stageErrSlot) record(e *StageTypeError) { s.p.CompareAndSwap(nil, e) }
func (s *stageErrSlot) load() *StageTypeError    { return s.p.Load() }
func (s *stageErrSlot) clear()                   { s.p.Store(nil) }

// kernelFactory builds a stage node's kernel once the node's final in-
// and out-degree are known (wiring completes after the stage lowers).
type kernelFactory func(nIn, nOut int) Kernel

// nodeSpec is one lowered node awaiting kernel construction.
type nodeSpec struct {
	name string
	mk   kernelFactory
}

// lowering accumulates the topology, kernels, replication plan, and
// run-reset hooks while the stage graph lowers.
type lowering struct {
	topo    *Topology
	specs   []nodeSpec
	names   map[string]bool
	plan    ReplicationPlan
	elastic map[string]Elastic // per-stage Elastic marks, keyed by node name
	slot    *stageErrSlot
	resets  []func()
	defBuf  int
	// split counts the Split nesting depth while branches lower; the
	// time-aware stages reject positions inside a branch, where their
	// re-sequenced output would break the merge's seq-keyed join.
	split int
}

// addNode registers a user stage's node; "source" and "sink" belong to
// the lowering's synthetic endpoints (addSynthetic).
func (lw *lowering) addNode(name string, mk kernelFactory) error {
	if name == "source" || name == "sink" {
		return fmt.Errorf("streamdag: flow: stage name %q is reserved for the lowered topology's endpoints", name)
	}
	return lw.addSynthetic(name, mk)
}

func (lw *lowering) addSynthetic(name string, mk kernelFactory) error {
	if lw.names[name] {
		return fmt.Errorf("streamdag: flow: duplicate stage name %q", name)
	}
	lw.names[name] = true
	lw.topo.Node(name)
	lw.specs = append(lw.specs, nodeSpec{name: name, mk: mk})
	return nil
}

func (lw *lowering) connect(from, to string, buf int) {
	lw.topo.Channel(from, to, buf)
}

// kernels builds the final kernel map now that every node's degree is
// known.
func (lw *lowering) kernels() map[NodeID]Kernel {
	g := lw.topo.Graph()
	ks := make(map[NodeID]Kernel, len(lw.specs))
	for _, spec := range lw.specs {
		id, _ := g.NodeByName(spec.name)
		ks[id] = spec.mk(len(g.In(id)), len(g.Out(id)))
	}
	return ks
}

// Flow is a typed streaming computation under construction: elements of
// type In enter, flow through the stages appended with Then, and leave
// as type Out.  Compile lowers it to a Pipeline; the zero value is not
// usable — call NewFlow.
type Flow[In, Out any] struct {
	stages []Stage
	buf    int
}

// NewFlow starts a flow that ingests In and emits Out.
func NewFlow[In, Out any]() *Flow[In, Out] {
	return &Flow[In, Out]{buf: FlowDefaultBuffer}
}

// Buffer sets the default capacity (in messages) of the lowered
// channels; individual stages override it with Stage.Buffer.
func (f *Flow[In, Out]) Buffer(n int) *Flow[In, Out] {
	f.buf = n
	return f
}

// Then appends stages to the flow in order and returns the flow for
// chaining.  Boundary types are checked by Compile.
func (f *Flow[In, Out]) Then(stages ...Stage) *Flow[In, Out] {
	f.stages = append(f.stages, stages...)
	return f
}

// Compile lowers the stage graph to a topology plus kernels and builds
// it into a runnable Pipeline: stage boundary types are checked (a
// mismatch is a *StageTypeError), the stage graph becomes source →
// stages → sink, per-stage Replicate marks become a replication plan,
// and the result goes through Build — so opts are the ordinary Build
// options (algorithm, backend, watchdog, …).  Assigning kernels to flow
// stages via WithKernel in opts is a *KernelConflictError: the flow owns
// its stage kernels.  The names "source" and "sink" are reserved for the
// lowered topology's endpoints and may not name stages.
func (f *Flow[In, Out]) Compile(opts ...Option) (*Pipeline, error) {
	if f.buf < 1 {
		return nil, fmt.Errorf("streamdag: flow: default buffer capacity %d must be positive", f.buf)
	}
	cur := typeOf[In]()
	for _, s := range f.stages {
		if err := s.stageErr(); err != nil {
			return nil, err
		}
		if b := s.base(); !compatibleTypes(cur, b.in) {
			return nil, &StageTypeError{Stage: b.name, Want: b.in, Got: cur}
		}
		cur = s.base().out
	}
	if !compatibleTypes(cur, typeOf[Out]()) {
		return nil, &StageTypeError{Stage: "sink", Want: typeOf[Out](), Got: cur}
	}

	lw := &lowering{
		topo:    NewTopology(),
		names:   make(map[string]bool),
		plan:    make(ReplicationPlan),
		elastic: make(map[string]Elastic),
		slot:    new(stageErrSlot),
		defBuf:  f.buf,
	}
	if err := lw.addSynthetic("source", sourceFactory[In](lw.slot)); err != nil {
		return nil, err
	}
	from := "source"
	var err error
	for _, s := range f.stages {
		if from, err = s.base().lower(lw, from); err != nil {
			return nil, err
		}
	}
	if err := lw.addSynthetic("sink", sinkFactory[Out](lw.slot)); err != nil {
		return nil, err
	}
	lw.connect(from, "sink", lw.defBuf)

	buildOpts := []Option{WithKernels(lw.kernels())}
	if len(lw.plan) > 0 {
		buildOpts = append(buildOpts, WithReplication(lw.plan))
	}
	if len(lw.elastic) > 0 {
		buildOpts = append(buildOpts, withElasticMarks(lw.elastic))
	}
	pipe, err := Build(lw.topo, append(buildOpts, opts...)...)
	if err != nil {
		return nil, err
	}
	pipe.flowSlot = lw.slot
	pipe.resets = lw.resets
	return pipe, nil
}

// sourceFactory builds the synthetic source node's kernel: it checks
// that every ingested payload is the flow's In type (a mismatch is
// recorded and the payload filtered) and forwards it downstream.  The
// kernel vectorizes (SpanKernel): a span of well-typed payloads passes
// in one call, and the first mismatch declines to the per-element path
// that records the error.
func sourceFactory[In any](slot *stageErrSlot) kernelFactory {
	check := func(seq uint64, in []Input) (any, bool) {
		p := in[0].Payload
		_, ok := castPayload[In](slot, "source", seq, p)
		return p, ok
	}
	return func(nIn, nOut int) Kernel {
		return flowSourceKernel[In]{keepKernel{nOut: nOut, decide: check}}
	}
}

type flowSourceKernel[In any] struct{ keepKernel }

// ProcessSpan forwards each checked payload as the interface value it
// arrived in: converting the asserted In back to any would allocate a
// fresh box per message.
func (k flowSourceKernel[In]) ProcessSpan(_ uint64, in, out []any) int {
	for j, p := range in {
		if _, ok := assertAs[In](p); !ok {
			return j
		}
		out[j] = p
	}
	return len(in)
}

// sinkFactory builds the synthetic sink node's kernel: it enforces the
// flow's Out type at run time (closing the gap interface-typed upstream
// boundaries leave open).  A sink node cannot filter — its firing is
// delivered regardless — so a mismatched payload still reaches the Sink
// as-is, but the run reports the recorded *StageTypeError.  ProcessSpan
// mirrors that exactly: it never declines, forwards every payload
// unchanged, and records the first mismatch.
func sinkFactory[Out any](slot *stageErrSlot) kernelFactory {
	return func(nIn, nOut int) Kernel {
		return flowSinkKernel[Out]{slot: slot}
	}
}

type flowSinkKernel[Out any] struct {
	slot *stageErrSlot
}

func (k flowSinkKernel[Out]) Process(seq uint64, in []Input) map[int]any {
	return stream.MapForm(k, 0, seq, in)
}

// ProcessInto emits nothing: the firing delivers its input
// (stream.SinkPayload).
func (k flowSinkKernel[Out]) ProcessInto(seq uint64, in []Input, _ []any, _ []bool) {
	if p, ok := firstPresent(in); ok {
		castPayload[Out](k.slot, "sink", seq, p)
	}
}

func (k flowSinkKernel[Out]) ProcessSpan(seq0 uint64, in, out []any) int {
	for j, p := range in {
		castPayload[Out](k.slot, "sink", seq0+uint64(j), p)
		out[j] = p
	}
	return len(in)
}
