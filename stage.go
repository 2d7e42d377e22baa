package streamdag

import (
	"fmt"
	"reflect"

	"streamdag/internal/box"
	"streamdag/internal/stream"
)

// This file defines the typed stage primitives of the Flow builder: the
// sealed Stage interface and its one implementation, the stage record;
// the constructors (Map, FilterStage, FilterMap, Stateful, Sequence,
// Split, Merge/Merge2/Merge3; the time-aware ones are in stage_time.go),
// each of which fills in a record; and the per-stage knobs (Replicate,
// Elastic, Buffer, Tap).  A record's kind decides which knobs it
// accepts (knobErr) and how it lowers (lower, node).  A Stage is a
// description — nothing runs until Flow.Compile lowers the stage graph
// to a Topology plus a kernel map and hands it to Build, where
// classification and dummy-interval computation happen exactly as for
// hand-wired topologies.  The Tap hook rides in the kernel chassis:
// keepKernel and flowMapKernel call it per kept element, timedCore at
// emission.
//
// Filtering is first-class: FilterStage (and the bool results of
// FilterMap, Stateful, and merge join functions) compile to kernels that
// leave every out-slot absent — the paper's "filtered with respect to all
// output channels" — so the deadlock-avoidance protocol underneath is
// what makes these stages safe to compose.

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

	base() *stage
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

// stageKind selects a stage's knob policy (knobErr) and its lowering.
type stageKind uint8

const (
	kindNode     stageKind = iota // Map, FilterStage, FilterMap
	kindStateful                  // Stateful
	kindTimed                     // the time-aware stages (stage_time.go)
	kindMerge                     // Merge, Merge2, Merge3
	kindSeq                       // Sequence
	kindSplit                     // Split
)

// stage is the one implementation of Stage: the name and knobs, the
// kind, the boundary types, and what the kind lowers from — a kernel
// builder for the node kinds, members for the composites.
type stage struct {
	name     string
	replicas int
	elMin    int // Elastic range; marked when elMax > 0
	elMax    int
	buf      int
	tap      func(any)
	err      error

	kind    stageKind
	in, out reflect.Type
	// kernel builds a node stage's kernel factory when the stage lowers;
	// tap is the stage's Tap hook, nil when untapped.
	kernel func(lw *lowering, tap func(any)) kernelFactory
	// slots are a merge's per-branch input types; nil means any number
	// of branches of type in.
	slots []reflect.Type
	// members are a Sequence's chain or a Split's branches; join is a
	// Split's merge.
	members []*stage
	join    *stage
}

func (s *stage) Name() string    { return s.name }
func (s *stage) base() *stage    { return s }
func (s *stage) stageErr() error { return s.err }

// knob records a knob setting, and its error when the value is invalid.
func (s *stage) knob(bad bool, format string, args ...any) Stage {
	if bad && s.err == nil {
		s.err = fmt.Errorf("streamdag: flow: stage %q: "+format, append([]any{s.name}, args...)...)
	}
	return s
}

func (s *stage) Replicate(k int) Stage {
	s.replicas = k
	return s.knob(k < 1, "replica count %d must be positive", k)
}

func (s *stage) Elastic(min, max int) Stage {
	s.elMin, s.elMax = min, max
	return s.knob(min < 1 || max < min, "elastic range [%d, %d] is invalid (need 1 <= min <= max)", min, max)
}

func (s *stage) Buffer(n int) Stage {
	s.buf = n
	return s.knob(n < 1, "buffer capacity %d must be positive", n)
}

func (s *stage) Tap(fn func(v any)) Stage {
	s.tap = fn
	return s.knob(fn == nil, "nil Tap function")
}

// knobErr is the knob policy of a stage in a linear position or a Split
// branch.  Replicate(1) is a no-op everywhere (ReplicationPlan
// semantics), so only counts that would actually expand are rejected.
func (s *stage) knobErr(lw *lowering) error {
	switch s.kind {
	case kindStateful:
		if s.replicas > 1 {
			return fmt.Errorf("streamdag: flow: stateful stage %q cannot be replicated (replicas would share its state)", s.name)
		}
		if s.elMax > 0 {
			return fmt.Errorf("streamdag: flow: stateful stage %q cannot be elastic (replicas would share its state)", s.name)
		}
	case kindTimed:
		// A timed kernel is single-instance state, and its re-sequenced
		// output cannot join a seq-keyed merge.
		if s.replicas > 1 {
			return fmt.Errorf("streamdag: flow: time-aware stage %q cannot be replicated", s.name)
		}
		if s.elMax > 0 {
			return fmt.Errorf("streamdag: flow: time-aware stage %q cannot be elastic", s.name)
		}
		if lw.split > 0 {
			return fmt.Errorf("streamdag: flow: time-aware stage %q cannot run inside a Split branch: its re-sequenced output would not align with the sibling branches at the merge", s.name)
		}
	case kindMerge:
		return fmt.Errorf("streamdag: flow: merge stage %q must be the join of a Split", s.name)
	case kindSeq, kindSplit:
		switch {
		case s.replicas > 1:
			return fmt.Errorf("streamdag: flow: composite stage %q cannot be replicated; replicate its member stages", s.name)
		case s.elMax > 0:
			return fmt.Errorf("streamdag: flow: composite stage %q cannot be elastic; mark its member stages", s.name)
		case s.buf > 0:
			return fmt.Errorf("streamdag: flow: composite stage %q has no inbound channel of its own; set buffers on its member stages", s.name)
		case s.tap != nil:
			return fmt.Errorf("streamdag: flow: composite stage %q has no node of its own; tap its member stages", s.name)
		}
	}
	return nil
}

// lower adds the stage's node(s) to the lowering, wired from the
// upstream node, and returns the stage's exit node.  It re-checks the
// stage's error: a knob call may have recorded one after Sequence or
// Split captured the stage.
func (s *stage) lower(lw *lowering, from string) (string, error) {
	if s.err != nil {
		return "", s.err
	}
	if err := s.knobErr(lw); err != nil {
		return "", err
	}
	var err error
	switch s.kind {
	case kindSeq:
		for _, m := range s.members {
			if from, err = m.lower(lw, from); err != nil {
				return "", err
			}
		}
		return from, nil
	case kindSplit:
		if s.join.err != nil {
			return "", s.join.err
		}
		exits := make([]string, len(s.members))
		lw.split++
		for i, b := range s.members {
			if exits[i], err = b.lower(lw, from); err != nil {
				return "", err
			}
		}
		lw.split--
		return s.join.node(lw, exits...)
	}
	return s.node(lw, from)
}

// node adds a node stage's node with its replication and elastic marks,
// and one inbound channel from each upstream node: one for a linear
// stage, one per branch for a merge.
func (s *stage) node(lw *lowering, froms ...string) (string, error) {
	if err := lw.addNode(s.name, s.kernel(lw, s.tap)); err != nil {
		return "", err
	}
	if s.replicas > 1 {
		lw.plan[s.name] = s.replicas
	}
	if s.elMax > 0 {
		lw.elastic[s.name] = Elastic{Min: s.elMin, Max: s.elMax}
	}
	buf := lw.defBuf
	if s.buf > 0 {
		buf = s.buf
	}
	for _, from := range froms {
		lw.connect(from, s.name, buf)
	}
	return s.name, nil
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

// firstAs is a single-input stage's element: the first present payload
// asserted to A; a mismatch is recorded and, like an absent input,
// filters the firing.
func firstAs[A any](slot *stageErrSlot, stage string, seq uint64, in []Input) (A, bool) {
	p, ok := firstPresent(in)
	if !ok {
		var zero A
		return zero, false
	}
	return castPayload[A](slot, stage, seq, p)
}

// decideFunc maps one firing's aligned inputs to the element a stage
// node emits in every out-slot — stage nodes forward their result to
// whatever follows them, including every branch head under a Split — or
// keep = false to filter it.
type decideFunc func(seq uint64, in []Input) (v any, keep bool)

// keepKernel is the chassis the stages lower onto: it emits what decide
// keeps, and tap, the stage's Tap hook, sees each kept element.
type keepKernel struct {
	nOut   int
	decide decideFunc
	tap    func(any)
}

func (k keepKernel) Process(seq uint64, in []Input) map[int]any {
	return stream.MapForm(k, k.nOut, seq, in)
}

func (k keepKernel) ProcessInto(seq uint64, in []Input, out []any, present []bool) {
	v, keep := k.decide(seq, in)
	if !keep {
		return
	}
	for i := range out {
		out[i], present[i] = v, true
	}
	if k.tap != nil {
		k.tap(v)
	}
}

// keepStage is a node stage whose kernel is a bare keepKernel; decide
// builds the firing's decision when the stage lowers.
func keepStage(name string, kind stageKind, in, out reflect.Type, decide func(lw *lowering) decideFunc) *stage {
	return &stage{name: name, kind: kind, in: in, out: out,
		kernel: func(lw *lowering, tap func(any)) kernelFactory {
			d := decide(lw)
			return func(_, nOut int) Kernel { return keepKernel{nOut: nOut, decide: d, tap: tap} }
		}}
}

// kept is a stage function's (element, keep) result as decide's: v is
// converted to any only once it is kept, so a filtered element is never
// boxed.
func kept[T any](v T, keep bool) (any, bool) {
	if !keep {
		return nil, false
	}
	return v, true
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
// Node stages.

// Map creates a stage that transforms every element with fn.  fn must be
// pure if the stage is replicated.
func Map[A, B any](name string, fn func(A) B) Stage {
	return &stage{name: name, kind: kindNode, in: typeOf[A](), out: typeOf[B](),
		kernel: func(lw *lowering, tap func(any)) kernelFactory {
			slot, boxer := lw.slot, box.For[B]()
			each := func(seq uint64, in []Input) (any, bool) {
				if v, ok := firstAs[A](slot, name, seq, in); ok {
					return fn(v), true
				}
				return nil, false
			}
			return func(_, nOut int) Kernel {
				return flowMapKernel[A, B]{keepKernel: keepKernel{nOut: nOut, decide: each, tap: tap}, fn: fn, boxer: boxer}
			}
		}}
}

// flowMapKernel is the lowered form of a Map stage: a keepKernel that
// keeps every well-typed element, plus ProcessSpan, so batched backends
// apply fn across a whole run in one call.  A payload whose dynamic type
// is not A declines the rest of the span, which routes it to ProcessInto
// — the per-element path that records the StageTypeError and filters it.
// The lowered kernel is shared by every engine built from the pipeline,
// by the simulator and by a replicated stage's replicas, which fire it
// through ProcessInto and box its outputs as Go does; ProcessSpan runs
// only on an engine node's own copy (ForNode), whose arena boxes the
// node's outputs into chunks it keeps across calls (internal/box).  The
// copy is a pointer, so a span call does not copy the kernel's fields.
type flowMapKernel[A, B any] struct {
	keepKernel
	fn    func(A) B
	boxer box.Boxer[B]
	arena *box.Arena[B] // set in the per-node copy only
}

// ForNode implements stream.PerNode.
func (k flowMapKernel[A, B]) ForNode() Kernel {
	a := k.boxer.Arena()
	k.arena = &a
	return &k
}

// ProcessSpan taps the committed elements after the span.
func (k *flowMapKernel[A, B]) ProcessSpan(_ uint64, in, out []any) int {
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
	if k.tap != nil {
		for _, v := range out[:n] {
			k.tap(v)
		}
	}
	return n
}

// FilterStage creates a stage that forwards only the elements pred
// accepts; rejected elements are filtered with respect to every output —
// the paper's filtering semantics, kept deadlock-free by the dummy
// protocol the compiled pipeline runs under.
func FilterStage[A any](name string, pred func(A) bool) Stage {
	return keepStage(name, kindNode, typeOf[A](), typeOf[A](), func(lw *lowering) decideFunc {
		slot := lw.slot
		return func(seq uint64, in []Input) (any, bool) {
			p, ok := firstPresent(in)
			if !ok {
				return nil, false
			}
			// Forward the interface value that arrived: converting v back
			// to any would box it again.
			v, ok := castPayload[A](slot, name, seq, p)
			return p, ok && pred(v)
		}
	})
}

// FilterMap creates a stage that transforms and filters in one step: fn
// returns the transformed element and whether to forward it.
func FilterMap[A, B any](name string, fn func(A) (B, bool)) Stage {
	return keepStage(name, kindNode, typeOf[A](), typeOf[B](), func(lw *lowering) decideFunc {
		slot := lw.slot
		return func(seq uint64, in []Input) (any, bool) {
			if v, ok := firstAs[A](slot, name, seq, in); ok {
				return kept(fn(v))
			}
			return nil, false
		}
	})
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
	return keepStage(name, kindStateful, typeOf[A](), typeOf[B](), func(lw *lowering) decideFunc {
		// One state cell per Compile, reset at every Run, so neither a
		// second Run nor a second Compile of the same Stage value sees
		// stale state.
		cell, slot := new(S), lw.slot
		*cell = init
		lw.resets = append(lw.resets, func() { *cell = init })
		return func(seq uint64, in []Input) (any, bool) {
			v, ok := firstAs[A](slot, name, seq, in)
			if !ok {
				return nil, false
			}
			next, out, keep := fn(*cell, v)
			*cell = next
			return kept(out, keep)
		}
	})
}

// ---------------------------------------------------------------------
// Composition: Sequence, Split, and the merge stages.

// Sequence composes stages into one linear sub-chain — useful as a
// multi-stage branch of a Split.  Boundary types are checked when the
// flow compiles.
func Sequence(stages ...Stage) Stage {
	s := &stage{kind: kindSeq}
	if len(stages) == 0 {
		s.err = fmt.Errorf("streamdag: flow: Sequence requires at least one stage")
		return s
	}
	for _, st := range stages {
		s.members = append(s.members, st.base())
	}
	first, last := s.members[0], s.members[len(s.members)-1]
	s.name = fmt.Sprintf("seq(%s..%s)", first.name, last.name)
	s.in, s.out = first.in, last.out
	// Propagate member errors before comparing types: a broken member's
	// types may be unset.
	for _, m := range s.members {
		if m.err != nil {
			s.err = m.err
			return s
		}
	}
	for i, m := range s.members[1:] {
		if prev := s.members[i]; !compatibleTypes(prev.out, m.in) {
			s.err = &StageTypeError{Stage: m.name, Want: m.in, Got: prev.out}
			return s
		}
	}
	return s
}

// Maybe is an optional value at a merge point: OK reports whether the
// branch produced (rather than filtered) an element for this sequence
// number.  It is the typed counterpart of Input.Present.
type Maybe[T any] struct {
	Value T
	OK    bool
}

// Merge creates the fan-in join of a Split whose branches all produce A:
// join receives one Maybe per branch (in branch order — absent when that
// branch filtered this sequence number) and returns the joined element
// and whether to forward it.  join fires whenever at least one branch
// produced an element.  Use Merge2/Merge3 for branches of distinct
// types.
func Merge[A, Out any](name string, join func(parts []Maybe[A]) (Out, bool)) Stage {
	return keepStage(name, kindMerge, typeOf[A](), typeOf[Out](), func(lw *lowering) decideFunc {
		slot := lw.slot
		return func(seq uint64, in []Input) (any, bool) {
			parts := make([]Maybe[A], len(in))
			anyOK := false
			for i, inp := range in {
				parts[i] = maybeOf[A](slot, name, seq, inp)
				anyOK = anyOK || parts[i].OK
			}
			// The join fires only when at least one branch produced an
			// element; if every present input failed its type cast, the
			// firing is filtered (the error is already recorded).
			if !anyOK {
				return nil, false
			}
			return kept(join(parts))
		}
	})
}

// maybeOf is one merge slot: the branch's element when it produced one of
// type T; a mismatch is recorded and counts as absent.
func maybeOf[T any](slot *stageErrSlot, stage string, seq uint64, in Input) Maybe[T] {
	if in.Present {
		if v, ok := castPayload[T](slot, stage, seq, in.Payload); ok {
			return Maybe[T]{Value: v, OK: true}
		}
	}
	return Maybe[T]{}
}

// Merge2 creates the fan-in join of a two-branch Split with distinctly
// typed branches; see Merge.
func Merge2[A, B, Out any](name string, join func(a Maybe[A], b Maybe[B]) (Out, bool)) Stage {
	s := keepStage(name, kindMerge, typeOf[A](), typeOf[Out](), func(lw *lowering) decideFunc {
		slot := lw.slot
		return func(seq uint64, in []Input) (any, bool) {
			a, b := maybeOf[A](slot, name, seq, in[0]), maybeOf[B](slot, name, seq, in[1])
			if !a.OK && !b.OK {
				return nil, false // every present input failed its cast
			}
			return kept(join(a, b))
		}
	})
	s.slots = []reflect.Type{typeOf[A](), typeOf[B]()}
	return s
}

// Merge3 creates the fan-in join of a three-branch Split with distinctly
// typed branches; see Merge.
func Merge3[A, B, C, Out any](name string, join func(a Maybe[A], b Maybe[B], c Maybe[C]) (Out, bool)) Stage {
	s := keepStage(name, kindMerge, typeOf[A](), typeOf[Out](), func(lw *lowering) decideFunc {
		slot := lw.slot
		return func(seq uint64, in []Input) (any, bool) {
			a := maybeOf[A](slot, name, seq, in[0])
			b := maybeOf[B](slot, name, seq, in[1])
			c := maybeOf[C](slot, name, seq, in[2])
			if !a.OK && !b.OK && !c.OK {
				return nil, false // every present input failed its cast
			}
			return kept(join(a, b, c))
		}
	})
	s.slots = []reflect.Type{typeOf[A](), typeOf[B](), typeOf[C]()}
	return s
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
	j := merge.base()
	s := &stage{kind: kindSplit, join: j}
	if j.kind != kindMerge {
		s.err = fmt.Errorf("streamdag: flow: Split join %q must be a Merge, Merge2, or Merge3 stage", j.name)
		return s
	}
	s.name = fmt.Sprintf("split(%s)", j.name)
	switch {
	case len(branches) < 2:
		s.err = fmt.Errorf("streamdag: flow: Split %q requires at least two branches", j.name)
	case j.slots != nil && len(j.slots) != len(branches):
		s.err = fmt.Errorf("streamdag: flow: Split join %q takes %d branches, got %d", j.name, len(j.slots), len(branches))
	}
	if s.err != nil {
		return s
	}
	for _, b := range branches {
		s.members = append(s.members, b.base())
	}
	s.in, s.out = s.members[0].in, j.out
	// Propagate member errors before comparing types: a broken member's
	// types may be unset.
	for _, m := range append([]*stage{j}, s.members...) {
		if m.err != nil {
			s.err = m.err
			return s
		}
	}
	for i, b := range s.members {
		if b.in != s.in {
			// Want is what this branch declares; Got is what the split
			// feeds every branch (the first branch's input type).
			s.err = &StageTypeError{Stage: b.name, Want: b.in, Got: s.in}
			return s
		}
		slot := j.in
		if j.slots != nil {
			slot = j.slots[i]
		}
		if !compatibleTypes(b.out, slot) {
			s.err = &StageTypeError{Stage: j.name, Want: slot, Got: b.out}
			return s
		}
	}
	return s
}
