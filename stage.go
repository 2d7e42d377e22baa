package streamdag

import (
	"fmt"
	"reflect"

	"streamdag/internal/box"
	"streamdag/internal/stream"
)

// This file defines the typed stage primitives of the Flow builder: the
// sealed Stage interface, the constructors (Map, FilterStage, FilterMap,
// Stateful, Sequence, Split, Merge/Merge2/Merge3), and the per-stage
// knobs (Replicate, Buffer).  A Stage is a description — nothing runs
// until Flow.Compile lowers the stage graph to a Topology plus a kernel
// map and hands it to Build, where classification and dummy-interval
// computation happen exactly as for hand-wired topologies.
//
// Filtering is first-class: FilterStage (and the bool results of
// FilterMap, Stateful, and merge join functions) compile to kernels that
// omit every out-key — the paper's "filtered with respect to all output
// channels" — so the deadlock-avoidance protocol underneath is what
// makes these stages safe to compose.

// Stage is one typed processing step of a Flow.  Stages are created with
// the constructors in this file and composed with Flow.Then, Sequence,
// and Split; the interface is sealed — user code supplies plain typed
// functions, never kernel implementations.
//
// A Stage value describes a node (or, for Sequence/Split, a sub-graph)
// and is reusable across Compiles: Stateful stages get a fresh state
// cell per Compile, so compiled pipelines never share state.
type Stage interface {
	// Name returns the stage name, which becomes the lowered node's name.
	Name() string
	// Replicate marks the stage for data-parallel expansion into k
	// replicas (see Replicate and WithReplication); the stage's function
	// is then shared by all replicas and must be safe for concurrent
	// use.  Stateful and composite stages reject replication at Compile.
	Replicate(k int) Stage
	// Buffer sets the capacity (in messages) of the stage's inbound
	// channel; the Flow default applies when unset.  Composite stages
	// (Sequence, Split) reject it — set buffers on their members.
	Buffer(n int) Stage
	// Batch sets this stage's transport batch size, overriding the
	// pipeline default from WithMaxBatch in either direction (a hot
	// stage can batch above the default, a latency-critical one can pin
	// 1).  Batching never changes the logical stream — see WithMaxBatch.
	// Composite stages (Sequence, Split) reject it — set batch sizes on
	// their member stages.
	Batch(n int) Stage
	// Tap installs an observation hook: fn sees every element the stage
	// emits (after its transform, filtered elements excluded), without
	// altering the stream.  fn runs on the node's hot path — on the
	// concurrent backends possibly from several goroutines at once (a
	// replicated stage, or concurrent sessions), so it must be fast and
	// safe for concurrent use.  Composite stages (Sequence, Split) reject
	// it — tap their member stages.
	Tap(fn func(v any)) Stage
	// Elastic marks the stage autoscalable between min and max replicas
	// (min >= 1): under WithAutoscale the engine re-plans the stage's
	// replica count live as its load moves.  The stage's function is
	// shared by all replicas and must be safe for concurrent use, like
	// Replicate.  Stateful and composite stages reject it at Compile.
	Elastic(min, max int) Stage

	inType() reflect.Type
	outType() reflect.Type
	// lower adds the stage's node(s) to the lowering, wires them from the
	// upstream node, and returns the stage's exit node.
	lower(lw *lowering, from string) (string, error)
	stageErr() error
}

// typeOf returns the reflect.Type of T (works for interface types too).
func typeOf[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

// compatibleTypes reports whether a payload produced as `from` may flow
// into a boundary expecting `to`.  Static assignability is accepted
// outright; a `from` that is an interface type defers to the runtime
// check (the dynamic value may satisfy `to`), which surfaces mismatches
// as StageTypeError instead of a panic.
func compatibleTypes(from, to reflect.Type) bool {
	if from.AssignableTo(to) {
		return true
	}
	return from.Kind() == reflect.Interface
}

// stageBase carries the name and the per-stage knobs shared by every
// stage implementation.  self points back at the outer stage so the
// chaining methods can return it.
type stageBase struct {
	name     string
	replicas int
	elMin    int // Elastic range; marked when elMax > 0
	elMax    int
	buf      int
	batch    int
	tap      func(any)
	err      error
	self     Stage
}

func (b *stageBase) Name() string { return b.name }

func (b *stageBase) Replicate(k int) Stage {
	if k < 1 && b.err == nil {
		b.err = fmt.Errorf("streamdag: flow: stage %q: replica count %d must be positive", b.name, k)
	}
	b.replicas = k
	return b.self
}

func (b *stageBase) Elastic(min, max int) Stage {
	if (min < 1 || max < min) && b.err == nil {
		b.err = fmt.Errorf("streamdag: flow: stage %q: elastic range [%d, %d] is invalid (need 1 <= min <= max)", b.name, min, max)
	}
	b.elMin, b.elMax = min, max
	return b.self
}

func (b *stageBase) Buffer(n int) Stage {
	if n < 1 && b.err == nil {
		b.err = fmt.Errorf("streamdag: flow: stage %q: buffer capacity %d must be positive", b.name, n)
	}
	b.buf = n
	return b.self
}

func (b *stageBase) Batch(n int) Stage {
	if n < 1 && b.err == nil {
		b.err = fmt.Errorf("streamdag: flow: stage %q: batch size %d must be positive", b.name, n)
	}
	b.batch = n
	return b.self
}

func (b *stageBase) Tap(fn func(v any)) Stage {
	if fn == nil && b.err == nil {
		b.err = fmt.Errorf("streamdag: flow: stage %q: nil Tap function", b.name)
	}
	b.tap = fn
	return b.self
}

func (b *stageBase) stageErr() error { return b.err }

func (b *stageBase) bufOr(def int) int {
	if b.buf > 0 {
		return b.buf
	}
	return def
}

// lowerSimple is the shared lowering of the single-node stages: one node
// carrying the stage's kernel, one inbound channel, optional replication.
func (b *stageBase) lowerSimple(lw *lowering, from string, mk kernelFactory) (string, error) {
	if err := lw.addNode(b.name, b.wrapTap(mk)); err != nil {
		return "", err
	}
	if b.replicas > 1 {
		lw.plan[b.name] = b.replicas
	}
	if b.elMax > 0 {
		lw.elastic[b.name] = Elastic{Min: b.elMin, Max: b.elMax}
	}
	if b.batch > 0 {
		lw.batch[b.name] = b.batch
	}
	lw.connect(from, b.name, b.bufOr(lw.defBuf))
	return b.name, nil
}

// firstPresent returns the first present input payload; single-input
// stage nodes fire only when their input is present, so ok is false only
// for malformed multi-input use.
func firstPresent(in []Input) (any, bool) {
	for _, i := range in {
		if i.Present {
			return i.Payload, true
		}
	}
	return nil, false
}

// broadcast emits v on every out-edge — stage nodes forward their result
// to whatever follows them, including every branch head under a Split.
func broadcast(nOut int, v any) map[int]any {
	out := make(map[int]any, nOut)
	for i := 0; i < nOut; i++ {
		out[i] = v
	}
	return out
}

// assertAs asserts v to T, treating a nil payload as the zero value of
// an interface-typed T — the single definition of the rule the flow
// boundaries, TypedSink, and TypedCollector all apply.
func assertAs[T any](v any) (T, bool) {
	t, ok := v.(T)
	if ok {
		return t, true
	}
	var zero T
	if v == nil && typeOf[T]().Kind() == reflect.Interface {
		return zero, true
	}
	return zero, false
}

// castPayload asserts a stage boundary's runtime type, recording a
// StageTypeError (first one wins) and filtering the message on mismatch.
func castPayload[T any](slot *stageErrSlot, stage string, seq uint64, v any) (T, bool) {
	t, ok := assertAs[T](v)
	if !ok {
		slot.record(&StageTypeError{
			Stage: stage, Want: typeOf[T](), Got: reflect.TypeOf(v),
			Seq: seq, Runtime: true,
		})
	}
	return t, ok
}

// ---------------------------------------------------------------------
// Single-node stages.

type mapStage[A, B any] struct {
	stageBase
	fn func(A) B
}

// Map creates a stage that transforms every element with fn.  fn must be
// pure if the stage is replicated.
func Map[A, B any](name string, fn func(A) B) Stage {
	s := &mapStage[A, B]{stageBase: stageBase{name: name}, fn: fn}
	s.self = s
	return s
}

func (s *mapStage[A, B]) inType() reflect.Type  { return typeOf[A]() }
func (s *mapStage[A, B]) outType() reflect.Type { return typeOf[B]() }

func (s *mapStage[A, B]) lower(lw *lowering, from string) (string, error) {
	fn, name, slot, boxer := s.fn, s.name, lw.slot, box.For[B]()
	return s.lowerSimple(lw, from, func(nIn, nOut int) Kernel {
		return flowMapKernel[A, B]{nOut: nOut, name: name, slot: slot, fn: fn, boxer: boxer}
	})
}

// flowMapKernel is the lowered form of a Map stage.  It implements
// SpanKernel so batched backends apply fn across a whole run in one
// call; a payload whose dynamic type is not A declines the rest of the
// span, which routes it to Process — the per-element path that records
// the StageTypeError and filters it.  The lowered kernel is shared by
// every engine built from the pipeline and by a replicated stage's
// replicas (which call only Process), so ProcessSpan runs only on an
// engine node's own copy (ForNode), whose arena boxes the node's outputs
// into chunks it keeps across calls (internal/box).
type flowMapKernel[A, B any] struct {
	nOut  int
	name  string
	slot  *stageErrSlot
	fn    func(A) B
	boxer box.Boxer[B]
	arena *box.Arena[B] // set in the per-node copy only
}

// ForNode implements stream.PerNode.
func (k flowMapKernel[A, B]) ForNode() Kernel {
	a := k.boxer.Arena()
	k.arena = &a
	return k
}

func (k flowMapKernel[A, B]) Process(seq uint64, in []Input) map[int]any {
	p, ok := firstPresent(in)
	if !ok {
		return nil
	}
	v, ok := castPayload[A](k.slot, k.name, seq, p)
	if !ok {
		return nil
	}
	return broadcast(k.nOut, k.fn(v))
}

func (k flowMapKernel[A, B]) ProcessSpan(_ uint64, in, out []any) int {
	c, n := k.arena.Load(len(in)), len(in)
	for j, p := range in {
		v, ok := assertAs[A](p)
		if !ok {
			n = j
			break
		}
		out[j] = k.arena.Box(k.fn(v), &c)
	}
	k.arena.Store(c)
	return n
}

type filterStage[A any] struct {
	stageBase
	pred func(A) bool
}

// FilterStage creates a stage that forwards only the elements pred
// accepts; rejected elements are filtered with respect to every output —
// the paper's filtering semantics, kept deadlock-free by the dummy
// protocol the compiled pipeline runs under.
func FilterStage[A any](name string, pred func(A) bool) Stage {
	s := &filterStage[A]{stageBase: stageBase{name: name}, pred: pred}
	s.self = s
	return s
}

func (s *filterStage[A]) inType() reflect.Type  { return typeOf[A]() }
func (s *filterStage[A]) outType() reflect.Type { return typeOf[A]() }

func (s *filterStage[A]) lower(lw *lowering, from string) (string, error) {
	pred, name, slot := s.pred, s.name, lw.slot
	return s.lowerSimple(lw, from, func(nIn, nOut int) Kernel {
		return KernelFunc(func(seq uint64, in []Input) map[int]any {
			p, ok := firstPresent(in)
			if !ok {
				return nil
			}
			v, ok := castPayload[A](slot, name, seq, p)
			if !ok || !pred(v) {
				return nil
			}
			return broadcast(nOut, v)
		})
	})
}

type filterMapStage[A, B any] struct {
	stageBase
	fn func(A) (B, bool)
}

// FilterMap creates a stage that transforms and filters in one step: fn
// returns the transformed element and whether to forward it.
func FilterMap[A, B any](name string, fn func(A) (B, bool)) Stage {
	s := &filterMapStage[A, B]{stageBase: stageBase{name: name}, fn: fn}
	s.self = s
	return s
}

func (s *filterMapStage[A, B]) inType() reflect.Type  { return typeOf[A]() }
func (s *filterMapStage[A, B]) outType() reflect.Type { return typeOf[B]() }

func (s *filterMapStage[A, B]) lower(lw *lowering, from string) (string, error) {
	fn, name, slot := s.fn, s.name, lw.slot
	return s.lowerSimple(lw, from, func(nIn, nOut int) Kernel {
		return KernelFunc(func(seq uint64, in []Input) map[int]any {
			p, ok := firstPresent(in)
			if !ok {
				return nil
			}
			v, ok := castPayload[A](slot, name, seq, p)
			if !ok {
				return nil
			}
			out, keep := fn(v)
			if !keep {
				return nil
			}
			return broadcast(nOut, out)
		})
	})
}

type statefulStage[A, B, S any] struct {
	stageBase
	init S
	fn   func(S, A) (S, B, bool)
}

// Stateful creates a stage that threads a state value through the
// stream: fn receives the current state and the element and returns the
// next state, the output, and whether to forward it (false filters).
// The state is private to one node goroutine, so fn needs no locking,
// and it is re-initialized from init at the start of every Pipeline.Run,
// so a compiled pipeline stays reusable.  Stateful stages cannot be
// replicated.  Prefer value-typed states: a pointer- or map-typed init
// is shared, not deep-copied, across re-initializations.
func Stateful[A, B, S any](name string, init S, fn func(S, A) (S, B, bool)) Stage {
	s := &statefulStage[A, B, S]{stageBase: stageBase{name: name}, init: init, fn: fn}
	s.self = s
	return s
}

func (s *statefulStage[A, B, S]) inType() reflect.Type  { return typeOf[A]() }
func (s *statefulStage[A, B, S]) outType() reflect.Type { return typeOf[B]() }

func (s *statefulStage[A, B, S]) lower(lw *lowering, from string) (string, error) {
	if s.replicas > 1 {
		return "", fmt.Errorf("streamdag: flow: stateful stage %q cannot be replicated (replicas would share its state)", s.name)
	}
	if s.elMax > 0 {
		return "", fmt.Errorf("streamdag: flow: stateful stage %q cannot be elastic (replicas would share its state)", s.name)
	}
	// One state cell per Compile, reset at every Run, so neither a second
	// Run nor a second Compile of the same Stage value sees stale state.
	cell := new(S)
	*cell = s.init
	init, fn, name, slot := s.init, s.fn, s.name, lw.slot
	lw.resets = append(lw.resets, func() { *cell = init })
	return s.lowerSimple(lw, from, func(nIn, nOut int) Kernel {
		return KernelFunc(func(seq uint64, in []Input) map[int]any {
			p, ok := firstPresent(in)
			if !ok {
				return nil
			}
			v, ok := castPayload[A](slot, name, seq, p)
			if !ok {
				return nil
			}
			next, out, keep := fn(*cell, v)
			*cell = next
			if !keep {
				return nil
			}
			return broadcast(nOut, out)
		})
	})
}

// ---------------------------------------------------------------------
// Composition: Sequence, Split, and the merge stages.

type seqStage struct {
	stageBase
	stages []Stage
}

// Sequence composes stages into one linear sub-chain — useful as a
// multi-stage branch of a Split.  Boundary types are checked when the
// flow compiles.
func Sequence(stages ...Stage) Stage {
	s := &seqStage{stages: stages}
	s.self = s
	if len(stages) == 0 {
		s.err = fmt.Errorf("streamdag: flow: Sequence requires at least one stage")
		return s
	}
	s.name = fmt.Sprintf("seq(%s..%s)", stages[0].Name(), stages[len(stages)-1].Name())
	// Propagate member errors before touching their types: a broken
	// member's type accessors are not safe to call.
	for _, st := range stages {
		if err := st.stageErr(); err != nil {
			s.err = err
			return s
		}
	}
	for i := 0; i+1 < len(stages); i++ {
		if !compatibleTypes(stages[i].outType(), stages[i+1].inType()) {
			s.err = &StageTypeError{
				Stage: stages[i+1].Name(),
				Want:  stages[i+1].inType(), Got: stages[i].outType(),
			}
			return s
		}
	}
	return s
}

func (s *seqStage) inType() reflect.Type {
	if len(s.stages) == 0 {
		return typeOf[any]()
	}
	return s.stages[0].inType()
}

func (s *seqStage) outType() reflect.Type {
	if len(s.stages) == 0 {
		return typeOf[any]()
	}
	return s.stages[len(s.stages)-1].outType()
}

func (s *seqStage) lower(lw *lowering, from string) (string, error) {
	if err := s.compositeKnobs(); err != nil {
		return "", err
	}
	var err error
	for _, st := range s.stages {
		if serr := st.stageErr(); serr != nil {
			return "", serr
		}
		if from, err = st.lower(lw, from); err != nil {
			return "", err
		}
	}
	return from, nil
}

func (b *stageBase) compositeKnobs() error {
	// Replicate(1) is a no-op everywhere (ReplicationPlan semantics), so
	// only counts that would actually expand are rejected here.
	if b.replicas > 1 {
		return fmt.Errorf("streamdag: flow: composite stage %q cannot be replicated; replicate its member stages", b.name)
	}
	if b.elMax > 0 {
		return fmt.Errorf("streamdag: flow: composite stage %q cannot be elastic; mark its member stages", b.name)
	}
	if b.buf > 0 {
		return fmt.Errorf("streamdag: flow: composite stage %q has no inbound channel of its own; set buffers on its member stages", b.name)
	}
	if b.batch > 0 {
		return fmt.Errorf("streamdag: flow: composite stage %q has no node of its own; set batch sizes on its member stages", b.name)
	}
	if b.tap != nil {
		return fmt.Errorf("streamdag: flow: composite stage %q has no node of its own; tap its member stages", b.name)
	}
	return nil
}

// wrapTap decorates a stage's kernel factory with its Tap hook; a stage
// without one lowers the factory unchanged, so untapped stages pay
// nothing.  The decorator preserves vectorization: when the inner kernel
// is a SpanKernel, the wrapper is too, invoking fn once per committed
// span element.
func (b *stageBase) wrapTap(mk kernelFactory) kernelFactory {
	fn := b.tap
	if fn == nil {
		return mk
	}
	return func(nIn, nOut int) Kernel {
		inner := mk(nIn, nOut)
		tk := tapKernel{k: inner, fn: fn}
		if sk, ok := inner.(SpanKernel); ok {
			return tapSpanKernel{tapKernel: tk, sk: sk}
		}
		return tk
	}
}

// tapKernel forwards to the wrapped kernel and hands each emitted element
// to the tap function.  Stage kernels broadcast one value across all
// out-edges, so observing any single map entry observes the element.
type tapKernel struct {
	k  Kernel
	fn func(any)
}

func (t tapKernel) Process(seq uint64, in []Input) map[int]any {
	out := t.k.Process(seq, in)
	for _, v := range out {
		t.fn(v)
		break
	}
	return out
}

// tapSpanKernel is the vectorized tap: the inner span commits a prefix,
// and the tap sees exactly the committed elements.
type tapSpanKernel struct {
	tapKernel
	sk SpanKernel
}

// ForNode implements stream.PerNode: when the tapped kernel keeps
// per-node state, each node gets the tap over its own copy.
func (t tapSpanKernel) ForNode() Kernel {
	pn, ok := t.sk.(stream.PerNode)
	if !ok {
		return t
	}
	k := pn.ForNode()
	return tapSpanKernel{tapKernel: tapKernel{k: k, fn: t.fn}, sk: k.(SpanKernel)}
}

func (t tapSpanKernel) ProcessSpan(seq0 uint64, in, out []any) int {
	n := t.sk.ProcessSpan(seq0, in, out)
	for j := 0; j < n; j++ {
		t.fn(out[j])
	}
	return n
}

// Maybe is an optional value at a merge point: OK reports whether the
// branch produced (rather than filtered) an element for this sequence
// number.  It is the typed counterpart of Input.Present.
type Maybe[T any] struct {
	Value T
	OK    bool
}

// mergeJoiner is the extra surface of merge stages: Split needs their
// arity and per-branch types, and lowers them with one inbound channel
// per branch.
type mergeJoiner interface {
	Stage
	arity() int // -1 = any number of branches
	slotType(i int) reflect.Type
	mergeLower(lw *lowering, froms []string) (string, error)
}

// errMergeOutsideSplit is returned when a merge stage appears in a
// linear position.
func errMergeOutsideSplit(name string) error {
	return fmt.Errorf("streamdag: flow: merge stage %q must be the join of a Split", name)
}

// lowerMerge is the shared lowering of the merge stages — lowerSimple's
// multi-input counterpart: one node carrying the join kernel, one
// inbound channel per branch exit, optional replication.
func (b *stageBase) lowerMerge(lw *lowering, froms []string, mk kernelFactory) (string, error) {
	if err := lw.addNode(b.name, b.wrapTap(mk)); err != nil {
		return "", err
	}
	if b.replicas > 1 {
		lw.plan[b.name] = b.replicas
	}
	if b.elMax > 0 {
		lw.elastic[b.name] = Elastic{Min: b.elMin, Max: b.elMax}
	}
	if b.batch > 0 {
		lw.batch[b.name] = b.batch
	}
	for _, from := range froms {
		lw.connect(from, b.name, b.bufOr(lw.defBuf))
	}
	return b.name, nil
}

type mergeStage[A, Out any] struct {
	stageBase
	join func([]Maybe[A]) (Out, bool)
}

// Merge creates the fan-in join of a Split whose branches all produce A:
// join receives one Maybe per branch (in branch order — absent when that
// branch filtered this sequence number) and returns the joined element
// and whether to forward it.  join fires whenever at least one branch
// produced an element.  Use Merge2/Merge3 for branches of distinct
// types.
func Merge[A, Out any](name string, join func(parts []Maybe[A]) (Out, bool)) Stage {
	s := &mergeStage[A, Out]{stageBase: stageBase{name: name}, join: join}
	s.self = s
	return s
}

func (s *mergeStage[A, Out]) inType() reflect.Type      { return typeOf[A]() }
func (s *mergeStage[A, Out]) outType() reflect.Type     { return typeOf[Out]() }
func (s *mergeStage[A, Out]) arity() int                { return -1 }
func (s *mergeStage[A, Out]) slotType(int) reflect.Type { return typeOf[A]() }
func (s *mergeStage[A, Out]) lower(*lowering, string) (string, error) {
	return "", errMergeOutsideSplit(s.name)
}

func (s *mergeStage[A, Out]) mergeLower(lw *lowering, froms []string) (string, error) {
	join, name, slot := s.join, s.name, lw.slot
	return s.lowerMerge(lw, froms, func(nIn, nOut int) Kernel {
		return KernelFunc(func(seq uint64, in []Input) map[int]any {
			parts := make([]Maybe[A], len(in))
			anyOK := false
			for i, inp := range in {
				if !inp.Present {
					continue
				}
				if v, ok := castPayload[A](slot, name, seq, inp.Payload); ok {
					parts[i] = Maybe[A]{Value: v, OK: true}
					anyOK = true
				}
			}
			// The join fires only when at least one branch produced an
			// element; if every present input failed its type cast, the
			// firing is filtered (the error is already recorded).
			if !anyOK {
				return nil
			}
			out, keep := join(parts)
			if !keep {
				return nil
			}
			return broadcast(nOut, out)
		})
	})
}

type merge2Stage[A, B, Out any] struct {
	stageBase
	join func(Maybe[A], Maybe[B]) (Out, bool)
}

// Merge2 creates the fan-in join of a two-branch Split with distinctly
// typed branches; see Merge.
func Merge2[A, B, Out any](name string, join func(a Maybe[A], b Maybe[B]) (Out, bool)) Stage {
	s := &merge2Stage[A, B, Out]{stageBase: stageBase{name: name}, join: join}
	s.self = s
	return s
}

func (s *merge2Stage[A, B, Out]) inType() reflect.Type  { return typeOf[A]() }
func (s *merge2Stage[A, B, Out]) outType() reflect.Type { return typeOf[Out]() }
func (s *merge2Stage[A, B, Out]) arity() int            { return 2 }
func (s *merge2Stage[A, B, Out]) slotType(i int) reflect.Type {
	if i == 0 {
		return typeOf[A]()
	}
	return typeOf[B]()
}
func (s *merge2Stage[A, B, Out]) lower(*lowering, string) (string, error) {
	return "", errMergeOutsideSplit(s.name)
}

func (s *merge2Stage[A, B, Out]) mergeLower(lw *lowering, froms []string) (string, error) {
	join, name, slot := s.join, s.name, lw.slot
	return s.lowerMerge(lw, froms, func(nIn, nOut int) Kernel {
		return KernelFunc(func(seq uint64, in []Input) map[int]any {
			var a Maybe[A]
			var b Maybe[B]
			if in[0].Present {
				if v, ok := castPayload[A](slot, name, seq, in[0].Payload); ok {
					a = Maybe[A]{Value: v, OK: true}
				}
			}
			if in[1].Present {
				if v, ok := castPayload[B](slot, name, seq, in[1].Payload); ok {
					b = Maybe[B]{Value: v, OK: true}
				}
			}
			if !a.OK && !b.OK {
				return nil // every present input failed its cast
			}
			out, keep := join(a, b)
			if !keep {
				return nil
			}
			return broadcast(nOut, out)
		})
	})
}

type merge3Stage[A, B, C, Out any] struct {
	stageBase
	join func(Maybe[A], Maybe[B], Maybe[C]) (Out, bool)
}

// Merge3 creates the fan-in join of a three-branch Split with distinctly
// typed branches; see Merge.
func Merge3[A, B, C, Out any](name string, join func(a Maybe[A], b Maybe[B], c Maybe[C]) (Out, bool)) Stage {
	s := &merge3Stage[A, B, C, Out]{stageBase: stageBase{name: name}, join: join}
	s.self = s
	return s
}

func (s *merge3Stage[A, B, C, Out]) inType() reflect.Type  { return typeOf[A]() }
func (s *merge3Stage[A, B, C, Out]) outType() reflect.Type { return typeOf[Out]() }
func (s *merge3Stage[A, B, C, Out]) arity() int            { return 3 }
func (s *merge3Stage[A, B, C, Out]) slotType(i int) reflect.Type {
	switch i {
	case 0:
		return typeOf[A]()
	case 1:
		return typeOf[B]()
	}
	return typeOf[C]()
}
func (s *merge3Stage[A, B, C, Out]) lower(*lowering, string) (string, error) {
	return "", errMergeOutsideSplit(s.name)
}

func (s *merge3Stage[A, B, C, Out]) mergeLower(lw *lowering, froms []string) (string, error) {
	join, name, slot := s.join, s.name, lw.slot
	return s.lowerMerge(lw, froms, func(nIn, nOut int) Kernel {
		return KernelFunc(func(seq uint64, in []Input) map[int]any {
			var a Maybe[A]
			var b Maybe[B]
			var c Maybe[C]
			if in[0].Present {
				if v, ok := castPayload[A](slot, name, seq, in[0].Payload); ok {
					a = Maybe[A]{Value: v, OK: true}
				}
			}
			if in[1].Present {
				if v, ok := castPayload[B](slot, name, seq, in[1].Payload); ok {
					b = Maybe[B]{Value: v, OK: true}
				}
			}
			if in[2].Present {
				if v, ok := castPayload[C](slot, name, seq, in[2].Payload); ok {
					c = Maybe[C]{Value: v, OK: true}
				}
			}
			if !a.OK && !b.OK && !c.OK {
				return nil // every present input failed its cast
			}
			out, keep := join(a, b, c)
			if !keep {
				return nil
			}
			return broadcast(nOut, out)
		})
	})
}

type splitStage struct {
	stageBase
	branches []Stage
	merge    mergeJoiner
}

// Split fans the stream out and back in: every element is broadcast to
// each branch (which may transform and filter independently), and merge
// — a Merge, Merge2, or Merge3 stage — joins the branches' outputs by
// sequence number.  The lowered sub-graph is series-parallel, so the
// compiled pipeline's classification (and with it the efficient interval
// algorithms) is preserved.  All branches must consume the same input
// type; each branch's output type must match the corresponding merge
// slot.
func Split(merge Stage, branches ...Stage) Stage {
	s := &splitStage{branches: branches}
	s.self = s
	mj, ok := merge.(mergeJoiner)
	if !ok {
		s.err = fmt.Errorf("streamdag: flow: Split join %q must be a Merge, Merge2, or Merge3 stage",
			merge.Name())
		return s
	}
	s.merge = mj
	s.name = fmt.Sprintf("split(%s)", merge.Name())
	switch {
	case len(branches) < 2:
		s.err = fmt.Errorf("streamdag: flow: Split %q requires at least two branches", merge.Name())
	case mj.arity() >= 0 && mj.arity() != len(branches):
		s.err = fmt.Errorf("streamdag: flow: Split join %q takes %d branches, got %d",
			merge.Name(), mj.arity(), len(branches))
	}
	if s.err != nil {
		return s
	}
	// Propagate member errors before touching their types: a broken
	// branch's type accessors are not safe to call.
	if err := merge.stageErr(); err != nil {
		s.err = err
		return s
	}
	for _, b := range branches {
		if err := b.stageErr(); err != nil {
			s.err = err
			return s
		}
	}
	for i, b := range branches {
		if b.inType() != branches[0].inType() {
			// Want is what this branch declares; Got is what the split
			// feeds every branch (the first branch's input type).
			s.err = &StageTypeError{Stage: b.Name(), Want: b.inType(), Got: branches[0].inType()}
			return s
		}
		if !compatibleTypes(b.outType(), mj.slotType(i)) {
			s.err = &StageTypeError{Stage: merge.Name(), Want: mj.slotType(i), Got: b.outType()}
			return s
		}
	}
	return s
}

func (s *splitStage) inType() reflect.Type {
	if len(s.branches) == 0 {
		return typeOf[any]()
	}
	return s.branches[0].inType()
}

func (s *splitStage) outType() reflect.Type {
	if s.merge == nil {
		return typeOf[any]()
	}
	return s.merge.outType()
}

func (s *splitStage) lower(lw *lowering, from string) (string, error) {
	if err := s.compositeKnobs(); err != nil {
		return "", err
	}
	// Re-check member errors: knob calls (Replicate, Buffer) may have
	// recorded one after Split captured the members at construction.
	if err := s.merge.stageErr(); err != nil {
		return "", err
	}
	exits := make([]string, len(s.branches))
	lw.split++
	for i, b := range s.branches {
		if err := b.stageErr(); err != nil {
			lw.split--
			return "", err
		}
		exit, err := b.lower(lw, from)
		if err != nil {
			lw.split--
			return "", err
		}
		exits[i] = exit
	}
	lw.split--
	return s.merge.mergeLower(lw, exits)
}
