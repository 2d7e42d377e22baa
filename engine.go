package streamdag

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"streamdag/internal/clock"
	"streamdag/internal/dist"
	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/sim"
	"streamdag/internal/stream"
)

// This file is the Engine API: the long-lived execution surface of the
// library.  Build (or Flow.Compile) pays the static, per-topology costs
// once — validation, classification, dummy-interval computation — and
// Pipeline.Engine pays the per-process costs once: resident node
// workers, TCP links on the distributed backend.  Engine.Open then
// starts one logical stream (a Session) in O(1): its own sequence space,
// Source and Sink, cancellation, and completion error, multiplexed over
// the shared topology by tagging protocol messages with the session id.
//
// The dummy-interval protocol is applied per session — each session owns
// its per-node protocol state and its per-edge buffer windows — so the
// deadlock-freedom guarantee holds stream-by-stream: a session behaves
// exactly as if it ran alone (the parity tests pin this bit-for-bit),
// and a wedged session is reported by a DeadlockError naming its id
// while its neighbours keep streaming.
//
// Pipeline.Run remains as a compatibility wrapper: open one session,
// wait, close.

// SessionID identifies one logical stream served by an Engine.
type SessionID = proto.SessionID

// ErrEngineClosed is returned by Engine.Open after Close, and by the
// Wait of sessions still active when Close ran.
var ErrEngineClosed = errors.New("streamdag: engine closed")

// Engine is a Pipeline's resident execution state: node workers stay up
// across sessions, so serving a stream costs a session, not a runtime.
// Engines are safe for concurrent Open/Close from multiple goroutines.
//
// Kernels are shared by every session (node state is per-session only in
// the protocol layer), so concurrent sessions require stateless kernels;
// pipelines compiled from flows with Stateful stages accept one session
// at a time, re-initializing the stage state per session.  On the
// Simulator backend, concurrent sessions additionally require
// non-blocking Sources and Sinks (see Simulator).
type Engine struct {
	p      *Pipeline
	impl   backendEngine // the backend's resident runtime, one for the engine's life
	mu     sync.Mutex
	nextID uint64
	// sessions holds every session from Open until it resolves (see
	// Session.release); its length is the engine's active count.
	sessions map[SessionID]*Session
	closed   bool
	draining bool
	// idle is made by the first Drain and closed when sessions empties.
	idle chan struct{}
}

// Engine starts the pipeline's resident runtime on its backend and
// returns the long-lived Engine.  Close it to reclaim the workers.
func (p *Pipeline) Engine() (*Engine, error) {
	impl, err := p.backend.newEngine(p)
	if err != nil {
		return nil, err
	}
	return &Engine{p: p, impl: impl, nextID: 1, sessions: make(map[SessionID]*Session)}, nil
}

// Open starts one logical stream: payloads pulled from source flow
// through the shared topology under the session's own dummy protocol
// state, and sink-node emissions are delivered to sink in ascending
// sequence order (a nil sink discards; emissions are still counted).
// The session ends when the source ends and the stream drains, when ctx
// is cancelled, when source or sink returns an error, or when the
// watchdog declares the session deadlocked — collect the outcome with
// Session.Wait.
func (e *Engine) Open(ctx context.Context, source Source, sink Sink) (*Session, error) {
	if source == nil {
		return nil, errors.New("streamdag: Engine.Open: nil Source (use CountingSource for synthetic sequence numbers)")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEngineClosed
	}
	if e.draining {
		e.mu.Unlock()
		return nil, ErrEngineDraining
	}
	if len(e.p.resets) > 0 && len(e.sessions) > 0 {
		e.mu.Unlock()
		return nil, errors.New("streamdag: Engine.Open: pipeline has Stateful stages, which sessions would share; wait for the active session before opening another")
	}
	if len(e.sessions) == 0 {
		// Fresh stream generation: re-initialize Stateful stage state and
		// clear the stage-type-error slot, exactly as Run used to per
		// run.  Under the lock, so a concurrently opened session cannot
		// start streaming (and recording type errors) before the clear.
		for _, reset := range e.p.resets {
			reset()
		}
		if e.p.flowSlot != nil {
			e.p.flowSlot.clear()
		}
	}
	id := SessionID(e.nextID)
	e.nextID++
	s := &Session{id: id, eng: e}
	// Registered before the backend opens, so a concurrent Close always
	// sees (and ends) this session.
	e.sessions[id] = s
	e.mu.Unlock()

	// The backend owns the session's one context and done channel;
	// release runs just before done closes, so an Open issued right after
	// <-Done() neither trips the stateful gate nor skips the
	// fresh-generation resets.
	var bs backendSession
	var err error
	if e.p.retry.Attempts() > 1 {
		bs, err = e.openRetrying(s, ctx, id, source, sink)
	} else {
		bs, err = e.impl.open(ctx, id, source, sink, (*releaseHook)(s))
	}
	if err != nil {
		s.release()
		// A Close racing this Open can reach the backend first.
		return nil, closedErr(err)
	}
	e.mu.Lock()
	s.bs = bs
	cause := s.cause
	e.mu.Unlock()
	if cause != nil {
		bs.cancel(cause)
	}
	return s, nil
}

// Close fails every active session with ErrEngineClosed and drains the
// resident workers; idempotent.  The Pipeline stays valid: a fresh
// Engine (or Run) can follow.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	active := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		active = append(active, s)
	}
	e.mu.Unlock()
	// End sessions first: the simulator's scheduler may be parked inside
	// a session's blocking Source/Sink callback, and cancellation is what
	// returns control so the backend can shut down.
	for _, s := range active {
		s.end(ErrEngineClosed)
	}
	return e.impl.close()
}

// Session is one logical stream being served by an Engine.
type Session struct {
	id  SessionID
	eng *Engine
	bs  backendSession
	// cause is an end that arrived before bs was set (see end); e.mu.
	cause   error
	slotErr *StageTypeError
}

// end ends the session with cause.  A Close can reach a
// session before Open has its backend session; the cause is then
// recorded under e.mu, and Open applies it once it has one.
func (s *Session) end(cause error) {
	e := s.eng
	e.mu.Lock()
	bs := s.bs
	if bs == nil {
		s.cause = cause
	}
	e.mu.Unlock()
	if bs != nil {
		bs.cancel(cause)
	}
}

// release retires the session from the engine's bookkeeping.  It runs
// exactly once: just before the backend session's done channel closes
// (the retry loop's, for retry-armed sessions), or on a failed Open.
// The shared stage-type-error slot is snapshotted first: release is what
// lets a subsequent Open start a fresh generation (and clear the slot),
// so the capture happens-before any clear and Wait cannot lose the
// error.
func (s *Session) release() {
	e := s.eng
	e.mu.Lock()
	if slot := e.p.flowSlot; slot != nil {
		s.slotErr = slot.load()
	}
	delete(e.sessions, s.id)
	if len(e.sessions) == 0 && e.idle != nil {
		// Draining: no Open registers a session after this, so the
		// registry empties once.
		close(e.idle)
	}
	e.mu.Unlock()
}

// releaseHook is a Session as its backend session's DoneHook: the pointer
// converts without allocating, where the method value s.release would
// allocate a closure per session.
type releaseHook Session

func (h *releaseHook) SessionDone() { (*Session)(h).release() }

// ID returns the session's id — the tag its protocol messages carry,
// and the id a DeadlockError names if the session wedges.
func (s *Session) ID() SessionID { return s.id }

// Done is closed when the session has resolved (drained, failed, or
// cancelled) and been retired from the engine's bookkeeping; Wait then
// returns without blocking, and a fresh Open may follow immediately
// (even on pipelines with Stateful stages).
func (s *Session) Done() <-chan struct{} { return s.bs.done() }

// closedErr maps a backend's engine-closed error onto the public
// ErrEngineClosed and returns any other error unchanged.
func closedErr(err error) error {
	if errors.Is(err, stream.ErrEngineClosed) || errors.Is(err, sim.ErrEngineClosed) {
		return ErrEngineClosed
	}
	return err
}

// Cancel aborts the session; Wait returns context.Canceled.  Other
// sessions on the engine are unaffected.
func (s *Session) Cancel() { s.bs.cancel(context.Canceled) }

// Wait blocks until the session resolves and returns its stats: per-edge
// data and dummy counts, the sink total, and the session's elapsed time.
// An ended session's error is the cause that ended it, verbatim:
// context.Canceled after Cancel, the Open context's cause when that ends
// first, ErrEngineClosed after Engine.Close.  For flow-compiled
// pipelines a payload that reached a stage with the wrong dynamic type
// was filtered there, and the first such mismatch is returned as a
// *StageTypeError (the error slot is engine-scoped: under concurrent
// sessions it reports the engine's first mismatch).
func (s *Session) Wait() (*RunStats, error) {
	stats, err := s.bs.wait()
	err = closedErr(err)
	if terr := s.slotErr; terr != nil {
		if err != nil {
			return nil, errors.Join(err, terr)
		}
		return nil, terr
	}
	return stats, err
}

// ---------------------------------------------------------------------
// Backend engine implementations (sealed, like Backend itself).

// backendEngine is a backend's resident runtime for one pipeline.
type backendEngine interface {
	// open starts a session whose context is a child of ctx; onDone, when
	// non-nil, is told once just before the session's done channel closes.
	open(ctx context.Context, id SessionID, source Source, sink Sink, onDone stream.DoneHook) (backendSession, error)
	close() error
	// killWorker crashes a named worker mid-stream; backends without
	// workers return an error.
	killWorker(name string) error
}

// backendSession is one open stream on a backend engine.
type backendSession interface {
	wait() (*RunStats, error)
	done() <-chan struct{}
	// cancel ends the session with cause, which wait then returns
	// verbatim; a session that has already resolved keeps its outcome.
	cancel(cause error)
}

// goroutineEngine adapts stream.Engine.
type goroutineEngine struct{ eng *stream.Engine }

func (goroutineBackend) newEngine(p *Pipeline) (backendEngine, error) {
	eng, err := stream.NewEngine(p.topo.g, p.kernels, p.engineConfig())
	if err != nil {
		return nil, err
	}
	return &goroutineEngine{eng: eng}, nil
}

// engineConfig is the stream engine's configuration on both backends that
// run it (the distributed one adds its cross edges).
func (p *Pipeline) engineConfig() stream.Config {
	return stream.Config{
		Algorithm:       p.alg,
		Intervals:       p.intervals,
		WatchdogTimeout: p.watchdog,
		MaxBatch:        p.maxBatch,
		Obs:             p.obsMetrics(),
	}
}

// sessionConfig is the session the goroutine and distributed backends
// open for a public Open: one form per direction, the bulk one whenever
// the source or sink offers it.
func sessionConfig(ctx context.Context, id SessionID, source Source, sink Sink, onDone stream.DoneHook) stream.SessionConfig {
	cfg := stream.SessionConfig{ID: id, Ctx: ctx, OnDone: onDone}
	if ss, ok := source.(SpanSource); ok {
		cfg.SpanSource = ss.NextSpan
	} else {
		cfg.Source = source.Next
	}
	if bs, ok := sink.(SpanSink); ok {
		cfg.SpanSink = bs.EmitSpan
	} else if sink != nil {
		cfg.Sink = sink.Emit
	}
	return cfg
}

func (g *goroutineEngine) open(ctx context.Context, id SessionID, source Source, sink Sink, onDone stream.DoneHook) (backendSession, error) {
	ses, err := g.eng.Open(sessionConfig(ctx, id, source, sink, onDone))
	if err != nil {
		return nil, err
	}
	return streamSession{ses}, nil
}

func (g *goroutineEngine) close() error { return g.eng.Close() }

func (g *goroutineEngine) killWorker(string) error {
	return errors.New("streamdag: the goroutines backend has no workers to kill (use the Distributed backend)")
}

// streamSession is an open stream on either backend that runs the stream
// engine's node loops.
type streamSession struct{ ses *stream.EngineSession }

func (s streamSession) wait() (*RunStats, error) { return s.ses.Wait() }
func (s streamSession) done() <-chan struct{}    { return s.ses.Done() }
func (s streamSession) cancel(cause error)       { s.ses.Fail(cause) }

// simEngine adapts sim.Engine.
type simEngine struct{ eng *sim.Engine }

func (simulatorBackend) newEngine(p *Pipeline) (backendEngine, error) {
	// No batch width: the simulator fires one element per step at any
	// WithMaxBatch, which is what makes it the batched backends' oracle.
	cfg := sim.Config{
		Kernels:   p.kernels,
		Algorithm: p.alg,
		Intervals: p.intervals,
		Obs:       p.obsMetrics(),
	}
	// The simulator's timed path needs the deterministic fake — Build
	// created one when no WithClock was given.  An explicit non-fake
	// clock cannot drive it: virtual time could not advance it, so timed
	// kernels would never tick and their output would silently vanish.
	if fake, ok := p.clk.(*clock.Fake); ok {
		cfg.Clock = fake
	} else if p.clk != nil && anyTimedKernel(p.kernels) {
		return nil, errors.New("streamdag: time-aware stages on the Simulator need a deterministic clock: omit WithClock or pass a *FakeClock")
	}
	return &simEngine{eng: sim.NewEngine(p.topo.g, cfg)}, nil
}

func (se *simEngine) open(ctx context.Context, id SessionID, source Source, sink Sink, onDone stream.DoneHook) (backendSession, error) {
	io := sim.SessionIO{ID: id, Ctx: ctx, Source: source.Next, OnDone: onDone}
	if sink != nil {
		io.Sink = sink.Emit
	}
	ses, err := se.eng.Open(io)
	if err != nil {
		return nil, err
	}
	return simSession{ses}, nil
}

func (se *simEngine) close() error { return se.eng.Close() }

func (se *simEngine) killWorker(string) error {
	return errors.New("streamdag: the simulator backend has no workers to kill (use the Distributed backend)")
}

type simSession struct{ ses *sim.EngineSession }

func (s simSession) done() <-chan struct{} { return s.ses.Done() }
func (s simSession) cancel(cause error)    { s.ses.Fail(cause) }

func (s simSession) wait() (*RunStats, error) {
	res := s.ses.Wait()
	if !res.Completed {
		if res.Err != nil {
			return nil, res.Err
		}
		if res.Reason == "deadlock" {
			return nil, &DeadlockError{Session: s.ses.ID(), Channels: res.Channels, Stalled: res.Stalled}
		}
		return nil, fmt.Errorf("streamdag: simulator session %d %s", s.ses.ID(), res.Reason)
	}
	// The resolved session's counts are final: its maps become the stats.
	return &RunStats{Data: res.DataMsgs, Dummies: res.DummyMsgs, SinkData: res.SinkData, Elapsed: res.Elapsed}, nil
}

// distEngine adapts dist.Engine.
type distEngine struct{ eng *dist.Engine }

func (b distributedBackend) newEngine(p *Pipeline) (backendEngine, error) {
	g := p.topo.g
	part := make(dist.Partition, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		w, ok := b.assign[g.Name(id)]
		if !ok {
			return nil, fmt.Errorf("streamdag: distributed backend: node %q not assigned to a worker", g.Name(id))
		}
		part[id] = w
	}
	eng, err := dist.NewEngine(g, part, p.kernels, p.engineConfig())
	if err != nil {
		return nil, err
	}
	return &distEngine{eng: eng}, nil
}

func (de *distEngine) open(ctx context.Context, id SessionID, source Source, sink Sink, onDone stream.DoneHook) (backendSession, error) {
	ses, err := de.eng.Open(sessionConfig(ctx, id, source, sink, onDone))
	if err != nil {
		return nil, err
	}
	return streamSession{ses}, nil
}

func (de *distEngine) close() error { return de.eng.Close() }

func (de *distEngine) killWorker(name string) error { return de.eng.KillWorker(name) }
