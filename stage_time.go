package streamdag

import (
	"fmt"
	"reflect"
	"time"

	"streamdag/internal/clock"
	"streamdag/internal/stream"
)

// This file is the time-aware stage library: windows (tumbling, sliding,
// session), Throttle, Debounce, Dedupe, and Sample.  Each is a stage
// record of kind kindTimed built by timedStage, and lowers to a kernel
// on the timedCore chassis (which carries the stage's name, error slot
// and tap) implementing stream.TimedKernel, so the backends run it on the
// re-sequenced timed path: the node consumes its input without firing at
// input seqs and fires only for its own emissions at a dense private
// sequence with an all-true mask.  A never-filtering output needs no
// dummy traffic, which is what makes an element-collapsing stage (a
// window turns many elements into one) safe under the deadlock-avoidance
// protocol.
//
// Time is processing time read from the injected Clock (WithClock; the
// simulator injects its deterministic virtual clock automatically, the
// wall backends default to the real clock).  All seven stages are
// stateful — they register per-run resets like Stateful, confining the
// pipeline to one session at a time — and reject Replicate and
// positions inside a Split branch, where re-sequenced output would break
// the merge's seq-keyed join.

// Clock is the time source the time-aware stages read: Now for the
// current instant and AfterFunc for flush timers.  Inject one with
// WithClock; the wall clock is the runtime backends' default, and the
// Simulator supplies a deterministic FakeClock advanced by its
// scheduler.  (Aliased from the internal clock package, like Kernel.)
type Clock = clock.Clock

// Timer is a cancellable timer handle returned by Clock.AfterFunc.
type Timer = clock.Timer

// FakeClock is a manually driven deterministic Clock for tests and the
// Simulator backend: time moves only via Advance/Set, which fire due
// timers in deadline order with Now pinned to each deadline.
type FakeClock = clock.Fake

// NewFakeClock returns a FakeClock starting at the Unix epoch — the
// instant window grids are anchored to, so window boundaries land on
// round offsets.
func NewFakeClock() *FakeClock { return clock.NewFake() }

// Window is the emission type of the window stages: the elements that
// fell into one [Start, End) interval of processing time, in arrival
// order.
type Window[T any] struct {
	Start time.Time
	End   time.Time
	Items []T
}

// alignTime returns the latest instant at or before t that is a whole
// number of steps from clock.Epoch.  Window boundaries sit on this fixed
// grid rather than at offsets of the first element, so repeated
// deterministic runs place elements in identical windows.  The result is
// derived from the epoch, not from t, so it carries no monotonic clock
// reading: aligned instants computed from different wall readings of the
// same slot compare Equal, which is what keys elements into one window.
func alignTime(t time.Time, step time.Duration) time.Time {
	d := t.Sub(clock.Epoch)
	off := d % step
	if off < 0 {
		off += step
	}
	return clock.Epoch.Add(d - off)
}

// timedCore is the chassis embedded by every time-aware kernel: the
// stage's name, the Compile's error slot and the stage's tap, the
// injected clock, and the emission queue drained by TakeEmissions.
// setClock is the injection point Build uses (see pipeline.go); until
// injection the core falls back to the wall clock.
type timedCore struct {
	name  string
	slot  *stageErrSlot
	tap   func(any)
	clk   clock.Clock
	queue []any
}

func (c *timedCore) setClock(k clock.Clock) { c.clk = k }

func (c *timedCore) TimedClock() clock.Clock {
	if c.clk == nil {
		return clock.WallClock
	}
	return c.clk
}

// processOne is Kernel.Process for a time-aware kernel: a run of one at
// the kernel's own clock reading.  It exists for callers that hold only a
// Kernel; the engines ingest runs (stream.TimedKernel.Ingest) and never
// call it.
func processOne(k stream.TimedKernel, seq uint64, in []Input) map[int]any {
	if p, ok := firstPresent(in); ok {
		k.Ingest(k.TimedClock().Now(), []uint64{seq}, []any{p})
	}
	return nil
}

// emit queues v for the next TakeEmissions drain; the tap runs here, at
// emission, where the stage's output materializes.
func (c *timedCore) emit(v any) {
	if c.tap != nil {
		c.tap(v)
	}
	c.queue = append(c.queue, v)
}

func (c *timedCore) TakeEmissions() []any {
	q := c.queue
	c.queue = nil
	return q
}

func (c *timedCore) resetCore() { c.queue = nil }

// timedKernel is a time-aware stage's kernel: the timed path, plus the
// per-run reset.
type timedKernel interface {
	stream.TimedKernel
	reset()
}

// timedStage is the one constructor of the time-aware stages.  Each
// Compile makes the kernel once, with mk, and registers its reset; the
// node's factory returns that instance, whose reset and injected clock
// are then the node's.
func timedStage(name string, in, out reflect.Type, err error, mk func(c timedCore) timedKernel) Stage {
	return &stage{name: name, kind: kindTimed, in: in, out: out, err: err,
		kernel: func(lw *lowering, tap func(any)) kernelFactory {
			k := mk(timedCore{name: name, slot: lw.slot, tap: tap})
			lw.resets = append(lw.resets, k.reset)
			return func(_, _ int) Kernel { return k }
		}}
}

// ---------------------------------------------------------------------
// Tumbling and sliding windows (one kernel: tumbling is slide == width).

// TumblingWindow creates a stage that groups elements into consecutive
// non-overlapping intervals of width and emits each interval's elements
// as one Window[T] when the interval's end passes.  Boundaries sit on
// the fixed grid anchored at the Unix epoch, and an empty interval emits
// nothing.
func TumblingWindow[T any](name string, width time.Duration) Stage {
	return SlidingWindow[T](name, width, width)
}

// SlidingWindow creates a stage that groups elements into overlapping
// intervals of width starting every slide (0 < slide <= width); an
// element falls into every window covering its arrival instant.  Each
// window emits as a Window[T] when its end passes; empty windows emit
// nothing.
func SlidingWindow[T any](name string, width, slide time.Duration) Stage {
	var err error
	if width <= 0 {
		err = fmt.Errorf("streamdag: flow: stage %q: window width %v must be positive", name, width)
	} else if slide <= 0 || slide > width {
		err = fmt.Errorf("streamdag: flow: stage %q: slide %v must be in (0, %v]", name, slide, width)
	}
	return timedStage(name, typeOf[T](), typeOf[Window[T]](), err, func(c timedCore) timedKernel {
		return &windowKernel[T]{timedCore: c, width: width, slide: slide}
	})
}

// openWindow is one not-yet-closed window of a windowKernel.
type openWindow[T any] struct {
	start time.Time
	items []T
}

type windowKernel[T any] struct {
	timedCore
	width, slide time.Duration
	open         []*openWindow[T] // ascending by start
	// vals is the run being ingested, cast; lastLen is how many items the
	// last window the clock closed held, the capacity the next one opens
	// with.
	vals    []T
	lastLen int
}

func (k *windowKernel[T]) reset() {
	k.resetCore()
	k.open = nil
}

func (k *windowKernel[T]) Process(seq uint64, in []Input) map[int]any {
	return processOne(k, seq, in)
}

func (k *windowKernel[T]) Ingest(now time.Time, seqs []uint64, payloads []any) {
	vals := k.vals[:0]
	for j, p := range payloads {
		if v, ok := castPayload[T](k.slot, k.name, seqs[j], p); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) > 0 {
		// Every window covering now takes the whole run: starts walk down
		// from the aligned slot until the window no longer reaches now
		// (one iteration when tumbling).
		for s := alignTime(now, k.slide); s.Add(k.width).After(now); s = s.Add(-k.slide) {
			w := k.window(s)
			w.items = append(w.items, vals...)
		}
	}
	clear(vals)
	k.vals = vals
}

// window returns the open window starting at start, creating it in start
// order if absent.  The scan runs from the back: arrivals touch the most
// recent windows.
func (k *windowKernel[T]) window(start time.Time) *openWindow[T] {
	i := len(k.open)
	for ; i > 0 && !k.open[i-1].start.Before(start); i-- {
		if k.open[i-1].start.Equal(start) {
			return k.open[i-1]
		}
	}
	w := &openWindow[T]{start: start, items: make([]T, 0, k.lastLen)}
	k.open = append(k.open, nil)
	copy(k.open[i+1:], k.open[i:])
	k.open[i] = w
	return w
}

func (k *windowKernel[T]) Tick(now time.Time) {
	i := 0
	for ; i < len(k.open); i++ {
		w := k.open[i]
		end := w.start.Add(k.width)
		if end.After(now) {
			break
		}
		k.emit(Window[T]{Start: w.start, End: end, Items: w.items})
		k.lastLen = len(w.items)
	}
	k.open = k.open[i:]
}

func (k *windowKernel[T]) Flush() {
	for _, w := range k.open {
		k.emit(Window[T]{Start: w.start, End: w.start.Add(k.width), Items: w.items})
	}
	k.open = nil
}

func (k *windowKernel[T]) NextDeadline() (time.Time, bool) {
	if len(k.open) == 0 {
		return time.Time{}, false
	}
	return k.open[0].start.Add(k.width), true
}

// ---------------------------------------------------------------------
// Session windows.

// SessionWindow creates a stage that groups bursts of elements separated
// by quiet gaps: a session opens at the first element, extends with each
// arrival, and closes — emitting one Window[T] spanning first arrival to
// last arrival plus gap — once no element has arrived for gap.
func SessionWindow[T any](name string, gap time.Duration) Stage {
	var err error
	if gap <= 0 {
		err = fmt.Errorf("streamdag: flow: stage %q: session gap %v must be positive", name, gap)
	}
	return timedStage(name, typeOf[T](), typeOf[Window[T]](), err, func(c timedCore) timedKernel {
		return &sessionWindowKernel[T]{timedCore: c, gap: gap}
	})
}

type sessionWindowKernel[T any] struct {
	timedCore
	gap         time.Duration
	open        bool
	start, last time.Time
	items       []T
}

func (k *sessionWindowKernel[T]) reset() {
	k.resetCore()
	k.open = false
	k.items = nil
}

func (k *sessionWindowKernel[T]) closeSession() {
	k.emit(Window[T]{Start: k.start, End: k.last.Add(k.gap), Items: k.items})
	k.open = false
	k.items = nil
}

func (k *sessionWindowKernel[T]) Process(seq uint64, in []Input) map[int]any {
	return processOne(k, seq, in)
}

func (k *sessionWindowKernel[T]) Ingest(now time.Time, seqs []uint64, payloads []any) {
	for j, p := range payloads {
		v, ok := castPayload[T](k.slot, k.name, seqs[j], p)
		if !ok {
			continue
		}
		// A stale open session (its gap elapsed, timer delivery still in
		// flight) closes before this element opens the next one.
		if k.open && !now.Before(k.last.Add(k.gap)) {
			k.closeSession()
		}
		if !k.open {
			k.open = true
			k.start = now
		}
		k.items = append(k.items, v)
		k.last = now
	}
}

func (k *sessionWindowKernel[T]) Tick(now time.Time) {
	if k.open && !now.Before(k.last.Add(k.gap)) {
		k.closeSession()
	}
}

func (k *sessionWindowKernel[T]) Flush() {
	if k.open {
		k.closeSession()
	}
}

func (k *sessionWindowKernel[T]) NextDeadline() (time.Time, bool) {
	if !k.open {
		return time.Time{}, false
	}
	return k.last.Add(k.gap), true
}

// ---------------------------------------------------------------------
// Throttle.

// Throttle creates a stage that passes an element through and then
// drops everything arriving within interval of it (leading-edge rate
// limiting).  The first element always passes.
func Throttle[T any](name string, interval time.Duration) Stage {
	var err error
	if interval <= 0 {
		err = fmt.Errorf("streamdag: flow: stage %q: throttle interval %v must be positive", name, interval)
	}
	return timedStage(name, typeOf[T](), typeOf[T](), err, func(c timedCore) timedKernel {
		return &throttleKernel[T]{timedCore: c, interval: interval}
	})
}

// throttleKernel is purely arrival-driven — it never arms a deadline, so
// it adds no timer traffic and never wakes an idle pipeline.
type throttleKernel[T any] struct {
	timedCore
	interval time.Duration
	passed   bool
	lastPass time.Time
}

func (k *throttleKernel[T]) reset() {
	k.resetCore()
	k.passed = false
}

func (k *throttleKernel[T]) Process(seq uint64, in []Input) map[int]any {
	return processOne(k, seq, in)
}

func (k *throttleKernel[T]) Ingest(now time.Time, seqs []uint64, payloads []any) {
	for j, p := range payloads {
		v, ok := castPayload[T](k.slot, k.name, seqs[j], p)
		if !ok {
			continue
		}
		if !k.passed || now.Sub(k.lastPass) >= k.interval {
			k.passed = true
			k.lastPass = now
			k.emit(v)
		}
	}
}

func (k *throttleKernel[T]) Tick(time.Time) {}
func (k *throttleKernel[T]) Flush()         {}

func (k *throttleKernel[T]) NextDeadline() (time.Time, bool) { return time.Time{}, false }

// ---------------------------------------------------------------------
// Debounce.

// Debounce creates a stage that holds the latest element and emits it
// once quiet has elapsed with no newer arrival (trailing-edge): a burst
// collapses to its final element.  A stream that ends while an element
// is held emits it on flush.
func Debounce[T any](name string, quiet time.Duration) Stage {
	var err error
	if quiet <= 0 {
		err = fmt.Errorf("streamdag: flow: stage %q: debounce interval %v must be positive", name, quiet)
	}
	return timedStage(name, typeOf[T](), typeOf[T](), err, func(c timedCore) timedKernel {
		return &debounceKernel[T]{timedCore: c, quiet: quiet}
	})
}

type debounceKernel[T any] struct {
	timedCore
	quiet   time.Duration
	held    bool
	pending T
	due     time.Time
}

func (k *debounceKernel[T]) reset() {
	k.resetCore()
	k.held = false
	var zero T
	k.pending = zero
}

func (k *debounceKernel[T]) Process(seq uint64, in []Input) map[int]any {
	return processOne(k, seq, in)
}

func (k *debounceKernel[T]) Ingest(now time.Time, seqs []uint64, payloads []any) {
	for j, p := range payloads {
		v, ok := castPayload[T](k.slot, k.name, seqs[j], p)
		if !ok {
			continue
		}
		// A held element whose quiet period already elapsed (timer delivery
		// still in flight) emits before this arrival replaces it.
		if k.held && !now.Before(k.due) {
			k.emit(k.pending)
		}
		k.held = true
		k.pending = v
		k.due = now.Add(k.quiet)
	}
}

func (k *debounceKernel[T]) Tick(now time.Time) {
	if k.held && !now.Before(k.due) {
		k.emit(k.pending)
		k.held = false
		var zero T
		k.pending = zero
	}
}

func (k *debounceKernel[T]) Flush() {
	if k.held {
		k.emit(k.pending)
		k.held = false
		var zero T
		k.pending = zero
	}
}

func (k *debounceKernel[T]) NextDeadline() (time.Time, bool) {
	if !k.held {
		return time.Time{}, false
	}
	return k.due, true
}

// ---------------------------------------------------------------------
// Dedupe.

// Dedupe creates a stage that drops elements equal to one already seen
// within the last ttl; an element seen longer ago than ttl passes again
// (and restarts its ttl).  T must be comparable — equality is Go's ==.
func Dedupe[T comparable](name string, ttl time.Duration) Stage {
	var err error
	if ttl <= 0 {
		err = fmt.Errorf("streamdag: flow: stage %q: dedupe ttl %v must be positive", name, ttl)
	}
	return timedStage(name, typeOf[T](), typeOf[T](), err, func(c timedCore) timedKernel {
		return &dedupeKernel[T]{timedCore: c, ttl: ttl}
	})
}

// dedupeKernel expires lazily — entries are checked against ttl on
// lookup and swept amortized every dedupeSweep insertions — rather than
// arming a deadline per entry, which would flood the simulator's
// idle-jump scan and the wall backends' timer with expiry-only wakeups
// that never emit anything.
type dedupeKernel[T comparable] struct {
	timedCore
	ttl  time.Duration
	seen map[T]time.Time
	ops  int
}

const dedupeSweep = 1024

func (k *dedupeKernel[T]) reset() {
	k.resetCore()
	k.seen = nil
	k.ops = 0
}

func (k *dedupeKernel[T]) Process(seq uint64, in []Input) map[int]any {
	return processOne(k, seq, in)
}

func (k *dedupeKernel[T]) Ingest(now time.Time, seqs []uint64, payloads []any) {
	for j, p := range payloads {
		v, ok := castPayload[T](k.slot, k.name, seqs[j], p)
		if !ok {
			continue
		}
		if at, seen := k.seen[v]; seen && now.Sub(at) < k.ttl {
			continue
		}
		if k.seen == nil {
			k.seen = make(map[T]time.Time)
		}
		k.seen[v] = now
		k.emit(v)
		if k.ops++; k.ops >= dedupeSweep {
			k.ops = 0
			for key, at := range k.seen {
				if now.Sub(at) >= k.ttl {
					delete(k.seen, key)
				}
			}
		}
	}
}

func (k *dedupeKernel[T]) Tick(time.Time) {}
func (k *dedupeKernel[T]) Flush()         {}

func (k *dedupeKernel[T]) NextDeadline() (time.Time, bool) { return time.Time{}, false }

// ---------------------------------------------------------------------
// Sample.

// Sample creates a stage that conflates each interval-aligned slot of
// processing time to the latest element observed in it, emitted when the
// slot ends.  Slots with no arrivals emit nothing; a stream ending
// mid-slot emits the held element on flush.
func Sample[T any](name string, interval time.Duration) Stage {
	var err error
	if interval <= 0 {
		err = fmt.Errorf("streamdag: flow: stage %q: sample interval %v must be positive", name, interval)
	}
	return timedStage(name, typeOf[T](), typeOf[T](), err, func(c timedCore) timedKernel {
		return &sampleKernel[T]{timedCore: c, interval: interval}
	})
}

type sampleKernel[T any] struct {
	timedCore
	interval time.Duration
	held     bool
	latest   T
	due      time.Time
}

func (k *sampleKernel[T]) reset() {
	k.resetCore()
	k.held = false
	var zero T
	k.latest = zero
}

func (k *sampleKernel[T]) Process(seq uint64, in []Input) map[int]any {
	return processOne(k, seq, in)
}

func (k *sampleKernel[T]) Ingest(now time.Time, seqs []uint64, payloads []any) {
	for j, p := range payloads {
		v, ok := castPayload[T](k.slot, k.name, seqs[j], p)
		if !ok {
			continue
		}
		// A held sample whose slot already ended (timer delivery in flight)
		// emits before this arrival starts the next slot.
		if k.held && !now.Before(k.due) {
			k.emit(k.latest)
			k.held = false
		}
		if !k.held {
			k.held = true
			k.due = alignTime(now, k.interval).Add(k.interval)
		}
		k.latest = v
	}
}

func (k *sampleKernel[T]) Tick(now time.Time) {
	if k.held && !now.Before(k.due) {
		k.emit(k.latest)
		k.held = false
		var zero T
		k.latest = zero
	}
}

func (k *sampleKernel[T]) Flush() {
	if k.held {
		k.emit(k.latest)
		k.held = false
		var zero T
		k.latest = zero
	}
}

func (k *sampleKernel[T]) NextDeadline() (time.Time, bool) {
	if !k.held {
		return time.Time{}, false
	}
	return k.due, true
}
