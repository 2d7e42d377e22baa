// Package proto is the transport-agnostic core of the dummy-message
// deadlock-avoidance protocols of Buhler et al.: the per-node state and
// decision rules that every execution backend — the goroutine runtime
// (internal/stream), the deterministic simulator (internal/sim), and the
// TCP-distributed runtime (internal/dist) — applies around user kernels.
//
// The engine is pure state-machine logic: node state in, firing decision
// out.  It owns the three pieces the backends previously each implemented:
//
//   - interval integerization (Integerize): converting the analysis's
//     exact rational intervals into integer send gaps;
//   - input alignment (MinSeq): the minimum-sequence-number firing rule
//     that merges the heads of a node's in-channels;
//   - the per-firing emission decision (Engine.Fire): per-edge dummy
//     timers plus the Propagation cascade rule, with two run forms that
//     equal a stretch of Fire calls — Engine.FireRun for firings that
//     emit data on every out-edge, Engine.FireDummyRun for dummy-only
//     firings under the cascade.
//
// Backends own everything the engine does not: channels or sockets,
// scheduling, kernels and payloads, and message delivery.  Because the
// engine is deterministic and shared, any two backends run with the same
// topology, filter, and configuration produce identical per-edge message
// counts (see the equivalence tests in the root package).
package proto

import (
	"math"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/ival"
)

// EOSSeq is the sequence number carried by end-of-stream markers; it
// compares greater than every data sequence number, so EOS heads never
// win the minimum-sequence alignment while data remains.
const EOSSeq = math.MaxUint64

// SessionID identifies one logical stream multiplexed over a resident
// topology.  The protocol state is strictly per session: every session
// owns its own sequence space, its own Engine instance per node, and its
// own per-edge buffer window, so the deadlock-freedom guarantee of the
// dummy intervals applies to each session independently — a message
// tagged (session, kind, seq) participates only in its session's
// protocol.  Zero is reserved for "not session-scoped" (sim.Run's single
// stream).
type SessionID uint64

// Kind discriminates protocol messages.
type Kind uint8

const (
	// Data is an ordinary message with a payload.
	Data Kind = iota
	// Dummy is a content-free deadlock-avoidance message.
	Dummy
	// EOS is the end-of-stream marker, broadcast on every channel after
	// the last input so nodes drain and terminate.  Kernels never see it.
	EOS
)

// Config selects the protocol an Engine applies.
type Config struct {
	// Algorithm selects the dummy protocol used when Intervals != nil.
	Algorithm cs4.Algorithm
	// Intervals are the per-edge dummy intervals; nil disables dummy
	// messages entirely (the unsafe baseline).  +∞ entries never send.
	Intervals map[graph.EdgeID]ival.Interval
}

// Integerize converts the configured interval of e into an integer send
// gap by rounding it up (the paper's Fig. 3); 0 disables dummies on e (∞,
// or avoidance disabled).  A zero interval clamps to 1: "send a dummy
// with every message".
func Integerize(cfg Config, e graph.EdgeID) uint64 {
	if cfg.Intervals == nil {
		return 0
	}
	iv, ok := cfg.Intervals[e]
	if !ok || iv.IsInf() {
		return 0
	}
	return uint64(max(iv.Ceil(), 1))
}

// MinSeq returns the smallest sequence number among the heads of a node's
// in-channels — the alignment rule: a node fires for the minimum sequence
// number visible across its inputs, consuming exactly the heads that
// carry it.  EOSSeq means every input has reached end-of-stream.
func MinSeq(heads []uint64) uint64 {
	min := uint64(EOSSeq)
	for _, h := range heads {
		if h < min {
			min = h
		}
	}
	return min
}

// Engine is the per-node protocol state: one dummy timer per out-edge.
// It is not safe for concurrent use; each node owns one engine.
type Engine struct {
	_ [64]byte // apart from other nodes' engines in memory (see NewEngine)
	// lastSent[i] is the sequence number of the last message (data or
	// dummy) sent on out-edge i, or -1.  Timers measure distance in
	// SEQUENCE NUMBERS, not in consumed inputs: a node fed sparse
	// (upstream-filtered) traffic advances many sequence numbers per
	// consume and would otherwise starve its successors beyond the
	// interval bound (DESIGN.md, "Fidelity notes").
	lastSent []int64
	// sendAt[i] is the integerized dummy interval for out-edge i; 0 means
	// "never" (∞ or dummies disabled).
	sendAt []uint64
	// cascade is whether the Propagation cascade rule is active.
	cascade bool
	// dummy is the reusable result mask returned by Fire.
	dummy []bool
	// counts is the engine's span accounting (see Counts); plain fields
	// because each node owns its engine single-threadedly.
	counts Counts
	_      [64]byte
}

// Counts is an Engine's firing accounting: how the node's traffic
// split between per-element firings and vectorized runs, and how many
// dummies the protocol injected.  Observability layers read it instead
// of re-deriving batch efficiency from message counts.
type Counts struct {
	// Fires is the number of per-element Fire decisions.
	Fires int64
	// Runs is the number of committed FireRun and FireDummyRun calls
	// (ok=true); RunMsgs is the total firings they covered, so Fires +
	// RunMsgs counts every firing.  RunMsgs/Runs is the realized
	// protocol batch size.
	Runs    int64
	RunMsgs int64
	// Dummies is the total dummy messages the engine mandated.
	Dummies int64
}

// Counts returns the engine's accumulated firing accounting.
func (e *Engine) Counts() Counts { return e.counts }

// NewEngine returns the protocol engine for a node with the given
// out-edges (in the backend's out-edge order, which indexes Fire's masks).
func NewEngine(out []graph.EdgeID, cfg Config) *Engine {
	// The arrays a firing writes fill whole cache lines: the engines of
	// different nodes are made one after another, and tiny arrays side by
	// side would make every firing of one evict the line from another's
	// core.
	e := &Engine{
		lastSent: make([]int64, len(out), (len(out)+7)/8*8),
		sendAt:   make([]uint64, len(out)),
		cascade:  cfg.Intervals != nil && cfg.Algorithm == cs4.Propagation,
		dummy:    make([]bool, len(out), (len(out)+63)/64*64),
	}
	for i, edge := range out {
		e.lastSent[i] = -1
		e.sendAt[i] = Integerize(cfg, edge)
	}
	return e
}

// Reset returns the engine to the state NewEngine built it in, for a new
// stream at the same node: every timer back to "nothing sent" and the
// accounting zeroed.  The integerized intervals are the node's, not the
// stream's, and stay.
func (e *Engine) Reset() {
	for i := range e.lastSent {
		e.lastSent[i] = -1
	}
	e.counts = Counts{}
}

// Fire records one firing at sequence number seq and decides the protocol
// messages that must accompany it.  emitted[i] reports whether the node
// sends a data message on out-edge i this firing (the kernel's or
// filter's choice).  Fire refreshes the timers of the data-carrying edges
// and returns the mask of remaining out-edges that must carry a dummy,
// either because the edge's timer expired or because the Propagation
// cascade applies: a firing that emits no data anywhere is
// informationally identical to a dummy — sequence number seq happened and
// nothing follows — and must refresh every output ("dummy messages may
// not be filtered").  The returned mask is reused by the next Fire; the
// caller must not retain it.
func (e *Engine) Fire(seq uint64, emitted []bool) (dummy []bool) {
	e.counts.Fires++
	anyData := false
	for i, em := range emitted {
		if em {
			e.lastSent[i] = int64(seq)
			anyData = true
		}
	}
	cascade := e.cascade && !anyData
	for i := range e.dummy {
		e.dummy[i] = false
		if emitted[i] {
			continue
		}
		timerDue := e.sendAt[i] != 0 && int64(seq)-e.lastSent[i] >= int64(e.sendAt[i])
		if cascade || timerDue {
			e.dummy[i] = true
			e.lastSent[i] = int64(seq)
			e.counts.Dummies++
		}
	}
	return e.dummy
}

// FireRun records a contiguous run of firings — sequence numbers
// first..last inclusive, every one of which emitted data on exactly the
// edges of emitted — in one step, amortizing the per-firing timer scan
// across the run.  It is exactly equivalent to calling Fire once per
// sequence number with the same mask, provided that equivalent sequence
// of calls would produce no dummy messages; when it would (a timer
// expires mid-run, or the run emits no data at all and the cascade rule
// applies), FireRun returns ok=false WITHOUT mutating any state and the
// caller must fall back to per-element Fire.  On ok=true the returned
// mask is all false (no dummies accompany the run); like Fire's, it is
// reused by the next call and must not be retained.
func (e *Engine) FireRun(first, last uint64, emitted []bool) (dummy []bool, ok bool) {
	anyData := false
	for _, em := range emitted {
		if em {
			anyData = true
			break
		}
	}
	if !anyData {
		// The Propagation cascade (and, with a degenerate all-false
		// mask, every timer) needs per-element treatment.
		return nil, false
	}
	for i := range e.dummy {
		if emitted[i] {
			continue
		}
		// A timer on a non-emitting edge must not expire anywhere in
		// first..last; the worst case is the run's last element.
		if e.sendAt[i] != 0 && int64(last)-e.lastSent[i] >= int64(e.sendAt[i]) {
			return nil, false
		}
	}
	for i := range e.dummy {
		e.dummy[i] = false
		if emitted[i] {
			e.lastSent[i] = int64(last)
		}
	}
	e.counts.Runs++
	e.counts.RunMsgs += int64(last-first) + 1
	return e.dummy, true
}

// FireDummyRun records k ≥ 1 dummy-only firings — no data on any
// out-edge — the last at sequence number last, in one step.  Under the
// Propagation cascade each such firing sends a dummy on every out-edge,
// so k calls of Fire with an all-false mask leave every timer at last
// and mandate k dummies per out-edge, whatever the earlier firings'
// sequence numbers: that is the state FireDummyRun leaves, and the
// caller sends the k dummies on every out-edge.  Without the cascade
// (Non-propagation, or no intervals) which firings send depends on each
// one's sequence number, so FireDummyRun returns false WITHOUT mutating
// any state and the caller falls back to per-element Fire.
func (e *Engine) FireDummyRun(last uint64, k int) (ok bool) {
	if !e.cascade || k < 1 {
		return false
	}
	for i := range e.lastSent {
		e.lastSent[i] = int64(last)
	}
	e.counts.Runs++
	e.counts.RunMsgs += int64(k)
	e.counts.Dummies += int64(k * len(e.lastSent))
	return true
}
