package streamdag

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamdag/internal/fault"
	"streamdag/internal/graph"
	"streamdag/internal/obs"
)

// This file is the fault-tolerance surface of the Pipeline API, built on
// internal/fault: typed worker-death errors, session retry with a
// dead-letter sink for poisoned payloads, and graceful drain with a
// resumable checkpoint.
//
// There is one recovery protocol, and it works around sessions: a worker
// going down on the Distributed backend fails its sessions fast with a
// *WorkerDownError naming it while the engine re-dials its links in
// place, and the retry layer here re-opens the failed sessions on the
// re-linked topology.  A ReplayableSource plus the sink's high-water
// de-duplication make the retried stream exactly-once: the surviving
// output is bit-identical to a run with no fault at all.

// WorkerDownError reports that a named worker died and which sessions
// its death took down; errors.As against Session.Wait's error to decide
// on a retry.
type WorkerDownError = fault.WorkerDownError

// IsWorkerDown reports whether err is (or wraps) a *WorkerDownError.
func IsWorkerDown(err error) bool { return fault.IsWorkerDown(err) }

// RetryPolicy configures WithRetry: attempt budget and deterministic
// backoff.
type RetryPolicy = fault.RetryPolicy

// DeadLetter is one payload routed out of the stream after failing
// delivery on consecutive attempts.
type DeadLetter = fault.DeadLetter

// DeadLetterSink receives the payloads the retry layer gave up on.
type DeadLetterSink = fault.DeadLetterSink

// DeadLetterQueue is an in-memory DeadLetterSink for tests and small
// deployments.
type DeadLetterQueue = fault.Queue

// Checkpoint is the resumable state Engine.Drain returns; feed it to a
// fresh Engine's Resume so session IDs continue instead of colliding.
type Checkpoint = fault.Checkpoint

// DecodeCheckpoint deserializes a Checkpoint.Encode'd checkpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) { return fault.DecodeCheckpoint(data) }

// ErrEngineDraining is returned by Engine.Open while a Drain is in
// progress (or after one completed).
var ErrEngineDraining = errors.New("streamdag: engine draining")

// ReplayableSource is a Source that can rewind to its beginning, which
// is what lets WithRetry re-open a failed session: the retry re-ingests
// from payload zero and the sink de-duplicates everything the failed
// attempt already delivered.  SliceSource and CountingSource implement
// it; a network-fed source can by buffering or re-requesting.
type ReplayableSource interface {
	Source
	// Rewind resets the source to its first payload.
	Rewind() error
}

// ---------------------------------------------------------------------
// Build options.

// WithRetry re-opens a session that failed with a retryable error — a
// *WorkerDownError, or a sink delivery error when a dead-letter sink is
// configured — up to p.MaxAttempts times, waiting p.Delay between
// attempts.  Retried sessions require a ReplayableSource: each attempt
// rewinds it and re-ingests, while the sink layer suppresses every
// delivery an earlier attempt already made, so a successful retry is
// exactly-once and bit-identical to an undisturbed run (pure kernels,
// deterministic topology).  A payload whose sink delivery fails on two
// consecutive attempts is routed to the WithDeadLetter sink and skipped
// rather than failing the session forever.
func WithRetry(p RetryPolicy) Option {
	return func(c *buildConfig) { c.retry = p }
}

// WithDeadLetter routes repeatedly-failing payloads to sink instead of
// letting one poisoned message fail every retry (see WithRetry).  It
// also marks sink delivery errors as retryable.
func WithDeadLetter(sink DeadLetterSink) Option {
	return func(c *buildConfig) { c.dlq = sink }
}

// ---------------------------------------------------------------------
// Engine-level fault operations.

// Drain gracefully quiesces the engine: new Opens are refused with
// ErrEngineDraining, in-flight sessions run to completion (or ctx
// expires), and the returned Checkpoint carries what a successor engine
// needs to resume — the topology fingerprint and the session-ID
// allocator, so resumed streams never collide with drained ones.  An
// in-flight session is one session however many attempts it takes:
// under WithRetry, a failed session's retry (or a rescale's migration)
// still opens during the drain.  The engine itself stays open for
// inspection; Close it afterwards.
func (e *Engine) Drain(ctx context.Context) (*Checkpoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	began := time.Now()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEngineClosed
	}
	e.draining = true
	if e.idle == nil {
		e.idle = make(chan struct{})
		if len(e.sessions) == 0 {
			close(e.idle)
		}
	}
	idle := e.idle
	e.mu.Unlock()
	select {
	case <-idle:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	e.mu.Lock()
	ck := &Checkpoint{Topology: e.p.fingerprint(), NextSession: e.nextID}
	m := e.p.obsMetrics()
	e.mu.Unlock()
	if m != nil {
		f := m.Faults()
		f.Drains.Add(1)
		if !m.Virtual() {
			f.DrainTime.Add(time.Since(began).Nanoseconds())
		}
	}
	return ck, nil
}

// Resume primes a fresh engine from a Drain checkpoint: the session-ID
// allocator continues where the drained engine stopped.  The checkpoint
// must come from a pipeline with the same topology.
func (e *Engine) Resume(ck *Checkpoint) error {
	if ck == nil {
		return errors.New("streamdag: Resume: nil checkpoint")
	}
	if fp := e.pipe().fingerprint(); ck.Topology != fp {
		return fmt.Errorf("streamdag: Resume: checkpoint is for a different topology")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	if ck.NextSession > e.nextID {
		e.nextID = ck.NextSession
	}
	return nil
}

// KillWorker drops every link the named worker of a Distributed engine
// shares with a peer, mid-stream: the active sessions fail with a
// *WorkerDownError naming it, exactly as when one of those links breaks,
// and the links are re-dialed before KillWorker returns, so the next
// Open (or WithRetry's next attempt) runs on a whole mesh.  It is the
// chaos hook WithRetry is tested against.  Backends without workers
// return an error.
func (e *Engine) KillWorker(name string) error {
	return e.curGen().impl.killWorker(name)
}

// fingerprint identifies the executed topology for checkpoint
// compatibility checks.
func (p *Pipeline) fingerprint() string {
	g := p.topo.g
	var b strings.Builder
	for n := 0; n < g.NumNodes(); n++ {
		if n > 0 {
			b.WriteByte(',')
		}
		b.WriteString(g.Name(graph.NodeID(n)))
	}
	b.WriteByte('|')
	for i, ed := range g.Edges() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d>%d", ed.From, ed.To)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// The retry layer.

// retryCtl is the per-session handle the rescale path uses to move a
// retry-armed session between engine generations: evict ends the
// in-flight attempt and marks the session so the retry loop re-opens it
// on the current generation (a migration) instead of counting the
// failure.
type retryCtl struct {
	mu      sync.Mutex
	attempt backendSession
	evicted bool
}

// arm installs the attempt now in flight.  If an evict raced in before
// the attempt opened, it fires immediately — the attempt dies at birth
// and the loop migrates it.
func (rc *retryCtl) arm(attempt backendSession) {
	rc.mu.Lock()
	rc.attempt = attempt
	ev := rc.evicted
	rc.mu.Unlock()
	if ev {
		attempt.cancel(ErrSessionEvicted)
	}
}

// evict aborts the current attempt for migration.
func (rc *retryCtl) evict() {
	rc.mu.Lock()
	rc.evicted = true
	attempt := rc.attempt
	rc.mu.Unlock()
	if attempt != nil {
		attempt.cancel(ErrSessionEvicted)
	}
}

// takeEvicted consumes the pending-migration flag.
func (rc *retryCtl) takeEvicted() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	ev := rc.evicted
	rc.evicted = false
	return ev
}

// openRetrying drives a session through up to MaxAttempts backend
// sessions.  The first attempt opens synchronously (so Open still
// reports immediate failures); the controller goroutine watches it and
// re-opens on retryable failures, rewinding the source and letting the
// dedupSink suppress re-deliveries.  The session keeps one context
// across its attempts, each a backend session under it, so a rescale's
// drain deadline can end just the attempt — the session then migrates
// to the new generation on its next one.
func (e *Engine) openRetrying(s *Session, parent context.Context, id SessionID, source Source, sink Sink) (backendSession, error) {
	rs, ok := source.(ReplayableSource)
	if !ok {
		return nil, fmt.Errorf("streamdag: WithRetry requires a ReplayableSource, got %T: a retried session re-ingests from the start", source)
	}
	g := s.gen
	var obsF *obs.FaultMetrics
	if m := g.pipe.obsMetrics(); m != nil {
		obsF = m.Faults()
	}
	ds := &dedupSink{
		inner: sink, dlq: g.pipe.dlq, session: uint64(id),
		obsF: obsF, hw: -1, errSeq: -1, prevErr: -1, attempt: 1,
	}
	ctx, cancel := context.WithCancelCause(parent)
	first, err := g.impl.open(ctx, id, fenceSource(ds, 0, rs), attemptSink{d: ds}, nil)
	if err != nil {
		cancel(nil)
		return nil, err
	}
	s.rc.arm(first)
	out := &retrySession{doneC: make(chan struct{}), end: cancel}
	go e.retryLoop(s, ctx, id, rs, ds, first, out)
	return out, nil
}

// retrySession is the stable handle the public Session wraps while the
// controller swaps backend sessions underneath it; end cancels the
// session's context, and with it the attempt in flight.
type retrySession struct {
	stats *RunStats
	err   error
	doneC chan struct{}
	end   context.CancelCauseFunc
}

func (r *retrySession) wait() (*RunStats, error) {
	<-r.doneC
	return r.stats, r.err
}

func (r *retrySession) done() <-chan struct{} { return r.doneC }
func (r *retrySession) cancel(cause error)    { r.end(cause) }

func (e *Engine) retryLoop(s *Session, ctx context.Context, id SessionID, src ReplayableSource, ds *dedupSink, bs backendSession, out *retrySession) {
	defer func() {
		out.end(nil)
		s.release()
		close(out.doneC)
	}()
	pol := s.gen.pipe.retry
	attempt := 1
	for {
		stats, err := bs.wait()
		if err == nil {
			out.stats = stats
			return
		}
		if ctx.Err() != nil {
			// The session itself was ended (user, parent context, engine
			// close), not just the attempt.
			out.err = context.Cause(ctx)
			return
		}
		migrate := s.rc.takeEvicted()
		if !migrate {
			sinkFailed := ds.attemptFailed()
			retryable := fault.IsWorkerDown(err) || (sinkFailed && ds.dlq != nil)
			if !retryable || attempt >= pol.Attempts() {
				out.err = err
				return
			}
			if d := pol.Delay(attempt); d > 0 {
				select {
				case <-ctx.Done():
					out.err = context.Cause(ctx)
					return
				case <-time.After(d):
				}
			}
			// A migration is free: only genuine failures spend the
			// attempt budget.
			attempt++
		}
		// Advance the attempt epoch before rewinding: any straggling
		// delivery or ingest from the cancelled attempt's pipeline is
		// fenced off the shared sink and source from here on, so the
		// rewound stream cannot be raced by its predecessor.
		ep := ds.beginAttempt(attempt)
		ds.srcMu.Lock()
		rerr := src.Rewind()
		ds.srcMu.Unlock()
		if rerr != nil {
			out.err = fmt.Errorf("streamdag: session %d retry: rewind failed: %w (after: %v)", id, rerr, err)
			return
		}
		// Re-home the session on the current generation: after a rescale
		// the one it was opened on is draining or gone.  The dedup sink
		// carries the high-water mark across, so the migrated stream stays
		// exactly-once.
		g := e.genMove(s)
		// Re-initialize stateful and time-aware stage state before the
		// replay: a retried stream re-ingests from payload zero, so
		// half-filled windows and accumulator cells from the failed
		// attempt would double-count.  (The bypass of Engine.Open here is
		// why Open's fresh-generation reset alone is not enough.)  The
		// attempt epoch advanced above fences the failed attempt's
		// stragglers off the sink; the re-emitted prefix the replay
		// produces is then suppressed by the dedup high-water mark.
		for _, reset := range g.pipe.resets {
			reset()
		}
		if m := g.pipe.obsMetrics(); m != nil {
			if migrate {
				m.Scale().SessionsMigrated.Add(1)
			} else {
				m.Faults().SessionRetries.Add(1)
			}
		}
		// A fresh backend session ID per attempt: the failed one may not
		// be fully retired backend-side yet, and reuse would collide.
		nbs, oerr := g.impl.open(ctx, e.allocBackendID(), fenceSource(ds, ep, src), attemptSink{d: ds, epoch: ep}, nil)
		if oerr != nil {
			out.err = fmt.Errorf("streamdag: session %d retry attempt %d: %w (after: %v)", id, attempt, oerr, err)
			return
		}
		s.rc.arm(nbs)
		bs = nbs
	}
}

// genMove re-homes a session onto the current generation before its
// next attempt, releasing its slot on the (possibly retired) old one.
func (e *Engine) genMove(s *Session) *engineGen {
	e.mu.Lock()
	defer e.mu.Unlock()
	g := e.cur
	if s.gen != g {
		e.releaseGenLocked(s.gen)
		s.gen = g
		g.active++
	}
	return g
}

// allocBackendID hands the retry layer session IDs from the engine's
// allocator, so retries never collide with concurrently opened sessions.
func (e *Engine) allocBackendID() SessionID {
	e.mu.Lock()
	id := SessionID(e.nextID)
	e.nextID++
	e.mu.Unlock()
	return id
}

// dedupSink makes retried sessions exactly-once: deliveries at or below
// the high-water mark were already made by an earlier attempt and are
// suppressed, and a payload that fails on two consecutive attempts is
// dead-lettered and skipped (when a DLQ is configured) instead of
// poisoning every retry.  Sink deliveries arrive in ascending sequence
// order within an attempt, which is what makes the single mark sound —
// but a cancelled attempt's pipeline can keep delivering for a moment
// after its wait() returns, concurrently with the replacement attempt.
// Two defences close that window: every attempt goes through an
// attemptSink/attemptSource pair stamped with the attempt's epoch, and
// stale-epoch traffic is dropped; and the mark's check-deliver-update is
// atomic (mu held across inner.Emit), so two attempts racing the same
// sequence cannot both deliver it.
type dedupSink struct {
	inner   Sink
	dlq     fault.DeadLetterSink
	session uint64
	obsF    *obs.FaultMetrics
	epoch   atomic.Uint64 // current attempt epoch; older attempts are fenced
	srcMu   sync.Mutex    // serializes source Next/NextSpan with Rewind

	mu      sync.Mutex
	hw      int64 // highest seq delivered (or dead-lettered)
	errSeq  int64 // seq whose delivery failed this attempt; -1 none
	prevErr int64 // seq whose delivery failed the previous attempt
	lastErr error // the error that condemned prevErr
	failed  bool  // any delivery failed during the current attempt
	attempt int
}

func (d *dedupSink) emit(ctx context.Context, epoch, seq uint64, payload any) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if epoch != d.epoch.Load() {
		// A later attempt owns the stream; this delivery is a straggler
		// from one already cancelled (rescale eviction, worker death)
		// whose pipeline has not fully wound down yet.
		return nil
	}
	if int64(seq) <= d.hw {
		return nil
	}
	if d.dlq != nil && d.prevErr == int64(seq) {
		// Second consecutive attempt dying on this payload: route it out
		// of the stream and move on.
		d.hw = int64(seq)
		d.dlq.Push(DeadLetter{
			Session: d.session, Seq: seq, Payload: payload,
			Attempts: d.attempt, Err: d.lastErr,
		})
		if d.obsF != nil {
			d.obsF.DeadLettered.Add(1)
		}
		return nil
	}
	var err error
	if d.inner != nil {
		err = d.inner.Emit(ctx, seq, payload)
	}
	if err != nil {
		d.failed = true
		d.errSeq = int64(seq)
		d.lastErr = err
		return err
	}
	d.hw = int64(seq)
	return nil
}

// beginAttempt rolls the failure bookkeeping forward — this attempt's
// failure becomes the previous one the poison check compares against —
// and advances the epoch, fencing the outgoing attempt's pipeline off
// the shared sink and source.  Taking mu first means any delivery in
// flight completes (and records its high-water mark) before the new
// attempt begins.  Returns the new attempt's epoch.
func (d *dedupSink) beginAttempt(n int) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.prevErr = d.errSeq
	d.errSeq = -1
	d.failed = false
	d.attempt = n
	return d.epoch.Add(1)
}

// attemptSink is one attempt's handle on the shared dedupSink; a
// delivery from an attempt whose epoch has been superseded is dropped.
type attemptSink struct {
	d     *dedupSink
	epoch uint64
}

func (a attemptSink) Emit(ctx context.Context, seq uint64, payload any) error {
	return a.d.emit(ctx, a.epoch, seq, payload)
}

// attemptSource fences one attempt's ingestion the same way: once a
// later attempt has begun, a straggling ingest pump from the old
// attempt sees end-of-stream instead of stealing payloads the new
// attempt is re-ingesting after Rewind.
type attemptSource struct {
	d     *dedupSink
	epoch uint64
	src   ReplayableSource
}

func (a attemptSource) Next(ctx context.Context) (any, bool, error) {
	a.d.srcMu.Lock()
	defer a.d.srcMu.Unlock()
	if a.epoch != a.d.epoch.Load() {
		return nil, false, nil
	}
	return a.src.Next(ctx)
}

// attemptSpanSource adds the bulk-ingestion path for sources that
// support it, so fencing does not demote a SpanSource to one-at-a-time.
type attemptSpanSource struct {
	attemptSource
	span SpanSource
}

func (a attemptSpanSource) NextSpan(ctx context.Context, buf []any) (int, bool, error) {
	a.d.srcMu.Lock()
	defer a.d.srcMu.Unlock()
	if a.epoch != a.d.epoch.Load() {
		return 0, true, nil
	}
	return a.span.NextSpan(ctx, buf)
}

// fenceSource wraps src for the attempt with the given epoch, keeping
// the SpanSource fast path when the underlying source has one.
func fenceSource(d *dedupSink, epoch uint64, src ReplayableSource) Source {
	a := attemptSource{d: d, epoch: epoch, src: src}
	if ss, ok := src.(SpanSource); ok {
		return attemptSpanSource{attemptSource: a, span: ss}
	}
	return a
}

// attemptFailed reports whether a sink delivery failed during the
// current attempt (the retryability signal for sink errors).
func (d *dedupSink) attemptFailed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}
