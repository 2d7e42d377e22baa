package stream

import (
	"time"

	"streamdag/internal/clock"
)

// This file is the time-aware node contract shared by all three
// backends.  A TimedKernel is a kernel whose emissions are driven by a
// Clock as well as by its inputs: windows close when an interval
// elapses, a debounce fires when its quiet period runs out, a sampler
// conflates on a cadence.  Such a kernel cannot keep the ordinary
// one-firing-per-input-sequence discipline — a tumbling window absorbs
// thousands of inputs and then emits one aggregate at an instant that
// belongs to no particular input — so timed nodes re-sequence: they
// consume their input stream without firing the protocol engine at the
// input sequence numbers at all, and fire only for their own emissions,
// in a dense private output-sequence space (0, 1, 2, …), always with
// every out-edge marked emitted.
//
// Re-sequencing is protocol-safe by construction.  The dummy-interval
// machinery exists to bound how long a FILTERING node may starve a
// downstream edge; a timed node's output stream never filters (every
// firing is data on every out-edge, so Fire's all-true mask never
// generates a dummy), and downstream nodes carry their own dummy
// timers against their own input spacing.  What re-sequencing does
// forfeit is alignment with sibling branches keyed to the ORIGINAL
// sequence space — which is why the Flow builder rejects time-aware
// stages inside Split branches, where a seq-keyed merge join awaits.
//
// Input reaches the kernel in runs: a node whose emissions have all fired
// takes up to a pass (64) of what its in-edge's ring holds for it,
// read in place, reads the clock once, and hands each maximal stretch of
// data messages to Ingest with that reading (dummies are dropped, EOS is
// the Flush).  A run's elements thus all "arrive" when the node took the
// run up: exactly when each would have read the clock itself on a fake
// clock or the simulator, where time cannot move inside a pass, and at
// most one run early on the wall clock.  The node then fires from the
// slice TakeEmissions hands over, clearing each element as it fires it,
// and calls the kernel again only once that slice is spent.  Process is
// the one-element form for holders of a plain Kernel; no engine calls it.
type TimedKernel interface {
	Kernel

	// Ingest consumes a run of data elements, payloads[j] at input sequence
	// number seqs[j], all arriving at now (a TimedClock reading).  Both
	// slices are the caller's scratch: keep payloads, never the slices.
	Ingest(now time.Time, seqs []uint64, payloads []any)

	// TimedClock returns the clock the kernel reads.  The engines use it
	// to arm flush timers (wall backends) or to advance virtual time
	// (the simulator); the public layer injects it before the engine
	// starts.
	TimedClock() clock.Clock

	// Tick moves every pending emission whose deadline is ≤ now into the
	// emission queue.  The engines call it when a flush timer fires (or,
	// on the simulator, when virtual time passes a deadline); it must
	// consume ALL due deadlines, not just the earliest, or a backend
	// that jumps time forward would livelock.
	Tick(now time.Time)

	// Flush moves all remaining pending state into the emission queue
	// unconditionally — the end-of-stream drain.
	Flush()

	// TakeEmissions returns the queued emissions in order and clears the
	// queue.  Each element becomes one firing (broadcast on every
	// out-edge) at the node's next output sequence number; the engines
	// fire from the returned slice in place.
	TakeEmissions() []any

	// NextDeadline returns the earliest instant at which Tick would
	// produce an emission, if any pending state exists.  The engines arm
	// their flush timer to it after every advance.
	NextDeadline() (time.Time, bool)
}
