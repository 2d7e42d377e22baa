package sim

// Multi-session simulation: an Engine interleaves any number of logical
// streams over one compiled topology, deterministically.  Each session
// owns a full simulation state — its own channels, per-node protocol
// engines, and sequence space — sharing only the graph and the (pure)
// kernels, so sessions cannot interact: the interleaving affects when a
// session's Source and Sink callbacks run, never what they see.  The
// scheduler gives every active session one sweep per round, in open
// order, which makes a multi-session run exactly as reproducible as a
// single Run.
//
// Because the scheduler is a single goroutine, a Source or Sink that
// blocks stalls every session until it returns; feed simulator sessions
// from non-blocking sources (slices, closed-ended channels).  The
// concurrent backends have no such restriction.

import (
	"context"
	"errors"
	"sync"
	"time"

	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/stream"
)

// ErrEngineClosed is the failure recorded against sessions still active
// when Engine.Close runs, and returned by Open afterwards.
var ErrEngineClosed = errors.New("sim: engine closed")

// SessionIO parameterizes one Engine.Open: the session's private rim.
type SessionIO struct {
	// ID tags the session for diagnostics; nonzero, unique per engine.
	ID proto.SessionID
	// Source supplies the session's payloads (nil falls back to
	// cfg.Inputs synthetic sequence numbers, as in Run).
	Source stream.SourceFunc
	// Sink receives the session's sink-node data firings in order.
	Sink stream.SinkFunc
	// Ctx cancels the session with its cause; nil means Background.
	Ctx context.Context
	// OnDone, when non-nil, is told once on the scheduler goroutine just
	// before the session's done channel closes.
	OnDone stream.DoneHook
}

// Engine serves concurrent deterministic sessions over one topology.
type Engine struct {
	g   *graph.Graph
	cfg Config

	mu     sync.Mutex
	queue  []*EngineSession
	closed bool
	wake   chan struct{}
	done   chan struct{}
}

// EngineSession is one logical stream scheduled by an Engine.
type EngineSession struct {
	id     proto.SessionID
	st     *state
	start  time.Time
	cancel context.CancelCauseFunc
	onDone stream.DoneHook
	done   chan struct{}
}

// ID returns the session's id.
func (s *EngineSession) ID() proto.SessionID { return s.id }

// Done is closed when the session has resolved.
func (s *EngineSession) Done() <-chan struct{} { return s.done }

// Wait blocks until the session resolves and returns its Result.
func (s *EngineSession) Wait() *Result {
	<-s.done
	return s.st.res
}

// Fail cancels the session with cause: unless it has already resolved,
// its Result carries Reason "canceled" and Err cause.
func (s *EngineSession) Fail(cause error) { s.cancel(cause) }

// resolve publishes the session's outcome: telemetry, OnDone, then done.
// Scheduler goroutine only.
func (s *EngineSession) resolve() {
	s.st.res.Elapsed = time.Since(s.start)
	if s.st.obsS != nil {
		s.st.finishObs()
	}
	s.cancel(nil)
	if s.onDone != nil {
		s.onDone.SessionDone()
	}
	close(s.done)
}

// NewEngine starts the resident scheduler for g under cfg (the Source,
// Sink, and Inputs fields are ignored; ingestion and delivery are per
// session).  Close reclaims the scheduler goroutine.
func NewEngine(g *graph.Graph, cfg Config) *Engine {
	e := &Engine{
		g:    g,
		cfg:  cfg,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go e.schedule()
	return e
}

// Open registers one session; the scheduler picks it up on its next
// round.  Sessions opened from one goroutine are interleaved in open
// order, which is what makes multi-session runs deterministic.
func (e *Engine) Open(io SessionIO) (*EngineSession, error) {
	cfg := e.cfg
	cfg.Source = io.Source
	cfg.Sink = io.Sink
	parent := io.Ctx
	if parent == nil {
		parent = context.Background()
	}
	var cancel context.CancelCauseFunc
	cfg.Ctx, cancel = context.WithCancelCause(parent)
	if cfg.Kernels == nil {
		// Engine sessions always run kernel mode: real payloads in, real
		// emissions out, exactly like the concurrent backends.
		cfg.Kernels = map[graph.NodeID]stream.Kernel{}
	}
	ses := &EngineSession{
		id:     io.ID,
		st:     newState(e.g, nil, cfg),
		start:  time.Now(),
		cancel: cancel,
		onDone: io.OnDone,
		done:   make(chan struct{}),
	}
	if s := ses.st.obsS; s != nil {
		s.Opened.Add(1)
		s.Active.Add(1)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		cancel(nil)
		return nil, ErrEngineClosed
	}
	e.queue = append(e.queue, ses)
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
	return ses, nil
}

// Close stops the scheduler; sessions still active resolve with Reason
// "canceled" and Err ErrEngineClosed.  Idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
	<-e.done
	return nil
}

// schedule is the resident scheduler: one sweep per active session per
// round, sessions in open order.
func (e *Engine) schedule() {
	defer close(e.done)
	var active []*EngineSession
	var rounds int64
	for {
		e.mu.Lock()
		active = append(active, e.queue...)
		e.queue = nil
		closed := e.closed
		e.mu.Unlock()
		if closed {
			for _, ses := range active {
				ses.st.res.Reason = "canceled"
				ses.st.res.Err = ErrEngineClosed
				ses.resolve()
			}
			return
		}
		if len(active) == 0 {
			<-e.wake
			continue
		}
		live := active[:0]
		for _, ses := range active {
			if ses.st.advanceOnce() {
				ses.resolve()
				continue
			}
			live = append(live, ses)
		}
		for i := len(live); i < len(active); i++ {
			active[i] = nil
		}
		active = live
		// The virtual-clock hook fires after the sweep, so a session's
		// completion (and its counters) is visible at its round.
		rounds++
		if e.cfg.OnStep != nil {
			e.cfg.OnStep(rounds)
		}
	}
}
