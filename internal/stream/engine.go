package stream

// This file is the resident multi-session runtime: an Engine keeps one
// event-loop goroutine per node alive across unboundedly many logical
// streams (sessions), so spawning the node goroutines is paid once per
// topology instead of once per stream.
//
// Session isolation is the load-bearing property.  Every session owns its
// own sequence space, its own proto.Engine instance per node (dummy
// timers, cascade state), and its own per-edge credit window sized to the
// edge's buffer capacity — exactly the capacities the deadlock-avoidance
// intervals were computed against.  Messages are tagged with their
// session id, node loops demux them into per-session protocol state, and
// a send for one session can never block on another session's occupancy,
// so the paper's deadlock-freedom guarantee holds stream-by-stream: each
// session behaves as if it ran alone on a dedicated topology (the parity
// tests in the root package pin this bit-for-bit).
//
// To keep cross-session isolation under blocking user code, node loops
// never block on anything but their own mailbox:
//
//   - sends that find a full window park in a per-session pending slot and
//     retry when the consumer returns a credit (the simulator's pending
//     semantics — a firing's sends proceed independently per edge, and the
//     node consumes its next input only when all of them have landed);
//   - Source.Next and Sink.Emit, which may block indefinitely, run in
//     per-session pump goroutines that exchange payloads with the source
//     and sink node loops through grant tokens, so a quiet source or a
//     backpressuring sink stalls only its own session.
//
// A per-engine watchdog watches each session's own liveness counters and
// in-flight Source/Sink callbacks, so a wedged session is reported as a
// DeadlockError naming that session while its neighbours keep streaming.

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"streamdag/internal/clock"
	"streamdag/internal/graph"
	"streamdag/internal/obs"
	"streamdag/internal/proto"
)

// ErrEngineClosed is returned by Engine.Open after Close, and is the
// failure recorded against sessions still active when Close runs.
var ErrEngineClosed = errors.New("stream: engine closed")

// SessionConfig parameterizes one Engine.Open.
type SessionConfig struct {
	// ID tags the session's protocol messages; the caller (the public
	// Engine) allocates ids, nonzero and unique per engine.
	ID proto.SessionID
	// Source supplies the session's payloads one call per payload; each
	// is published before the next is asked for.  Source or SpanSource is
	// required.
	Source SourceFunc
	// SpanSource, when non-nil, is used instead of Source: the ingest
	// pump fills whole grant windows in one call.  Offer it only for
	// sources safe under SpanSourceFunc's bulk-publication contract.
	SpanSource SpanSourceFunc
	// Sink receives the session's sink-node data firings in ascending
	// sequence order, one call each; with neither Sink nor SpanSink the
	// firings are discarded (and still counted).
	Sink SinkFunc
	// SpanSink, when non-nil, is used instead of Sink: one call carries
	// the emissions the pump found queued (see SpanSinkFunc).
	SpanSink SpanSinkFunc
	// Ctx cancels the session (not the engine) with its cause; nil means
	// Background.
	Ctx context.Context
	// OnDone, when non-nil, is told once just before the session's done
	// channel closes, on whichever goroutine resolves it.
	OnDone DoneHook
}

// DoneHook is told that its session has resolved.  It is an interface
// rather than a func so that a caller can pass a pointer it already holds:
// the conversion allocates nothing, where a method value would allocate a
// closure per session.
type DoneHook interface{ SessionDone() }

// Engine is the resident runtime for one compiled topology.  Create it
// with NewEngine, serve any number of concurrent sessions with Open, and
// reclaim the node goroutines with Close.
type Engine struct {
	g   *graph.Graph
	cfg Config

	nodes  []*engineNode
	source *engineNode // the topology's unique source node
	sink   *engineNode // the topology's unique sink node
	// cross[edge] names both ends of a Config.Cross edge (zero otherwise):
	// where Deliver and Credit re-enter the node loops.
	cross []crossEnds

	// srcWin/sinkWin are the ingest and sink pump windows, in payload
	// units; the defaults scale with the endpoint nodes' batch widths so
	// a batched source or sink never starves its own vectorized runs.
	srcWin  int
	sinkWin int

	mu sync.Mutex
	// sessions holds every session from Open until its done channel
	// closes (Active skips the ended ones).  Close force-resolves what is
	// left once the node loops are gone, so an end() racing Close's
	// mailbox teardown cannot strand a Wait.
	sessions map[proto.SessionID]*EngineSession
	closed   bool
	// free holds scrubbed session buffers for the next Open, at most
	// freeSessions (see EngineSession.unhold).
	free []*sessionBufs

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewEngine spins up the resident node loops for g; ingestion and
// delivery are per session (SessionConfig).  g must be a two-terminal
// DAG.
func NewEngine(g *graph.Graph, kernels map[graph.NodeID]Kernel, cfg Config) (*Engine, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if cfg.WatchdogTimeout < 0 {
		return nil, fmt.Errorf("stream: watchdog timeout %v must not be negative", cfg.WatchdogTimeout)
	}
	if cfg.WatchdogTimeout == 0 {
		cfg.WatchdogTimeout = time.Second
	}
	e := &Engine{
		g:        g,
		cfg:      cfg,
		sessions: make(map[proto.SessionID]*EngineSession),
		stop:     make(chan struct{}),
	}
	e.nodes = make([]*engineNode, g.NumNodes())
	for i := range e.nodes {
		id := graph.NodeID(i)
		k := kernels[id]
		if k == nil {
			k = Passthrough(g.OutDegree(id))
		} else if pn, ok := k.(PerNode); ok {
			k = pn.ForNode()
		}
		n := &engineNode{
			e: e, id: id,
			in:  g.In(id),
			out: g.Out(id),
			mb:  newMailbox(),
		}
		if m := cfg.Obs; m != nil {
			// Resolve every telemetry pointer once, here, so the hot path
			// pays a nil check when the observer is off and a direct
			// atomic add when it is on.
			n.obsN = m.Node(int(id))
			n.obsS = m.Sessions()
			n.obsIn = make([]*obs.EdgeMetrics, len(n.in))
			for i, edge := range n.in {
				n.obsIn[i] = m.Edge(int(edge))
			}
			n.obsOut = make([]*obs.EdgeMetrics, len(n.out))
			for i, edge := range n.out {
				n.obsOut[i] = m.Edge(int(edge))
			}
		}
		n.creditAcc = make([]int, len(n.in))
		n.cur = make([]int, len(n.in))
		n.batch = cfg.MaxBatch
		if b, ok := cfg.NodeBatch[id]; ok {
			n.batch = b
		}
		if n.batch < 1 {
			n.batch = 1
		}
		// Sources receive one synthetic input; a node without out-edges
		// keeps one output slot, the SinkPayload hook.
		n.kin = make([]Input, max(len(n.in), 1))
		n.kout = make([]any, max(len(n.out), 1))
		n.present = make([]bool, max(len(n.out), 1))
		n.acc = make([][]Message, len(n.out))
		n.accDummy = make([]int, len(n.out))
		n.allTrue = make([]bool, len(n.out))
		for i := range n.allTrue {
			n.allTrue[i] = true
		}
		n.kern = SliceForm(k)
		if tk, ok := k.(TimedKernel); ok && len(n.in) == 1 && len(n.out) > 0 {
			// A time-aware node fires its kernel's emissions, queued like
			// a source's payloads, unchanged on every out-edge.
			n.timed, n.spanK = tk, passthroughKernel{}
		} else if sk, ok := k.(SpanKernel); ok && len(n.in) <= 1 {
			n.spanK = sk
		}
		n.queued = len(n.in) == 0 || n.timed != nil
		if n.spanK != nil {
			n.spanIn = make([]any, n.batch)
			n.spanOut = make([]any, n.batch)
			n.spanSeq = make([]uint64, n.batch)
		}
		e.nodes[i] = n
	}
	// Wire the neighbour tables: whose mailbox takes in-position i's
	// credits and out-position i's messages, and the position the event
	// carries.  A local edge posts straight into the neighbour's mailbox
	// under the edge's position in the neighbour's order; a cross edge
	// posts into its carrier's outbox under the edge id, and comes back
	// in through Deliver/Credit on the far side of the wire.
	if len(cfg.Cross) > 0 {
		e.cross = make([]crossEnds, g.NumEdges())
	}
	for _, n := range e.nodes {
		n.upMB = make([]*mailbox, len(n.in))
		n.upPos = make([]int32, len(n.in))
		for i, edge := range n.in {
			up := e.nodes[g.Edge(edge).From]
			n.upMB[i], n.upPos[i] = up.mb, edgeIndex(up.out, edge)
			if c, ok := cfg.Cross[edge]; ok {
				e.cross[edge].to, e.cross[edge].inPos = n, int32(i)
				n.upMB[i], n.upPos[i] = c.Credits.mb, int32(edge)
			}
		}
		n.downMB = make([]*mailbox, len(n.out))
		n.downPos = make([]int32, len(n.out))
		n.outCap = make([]int, len(n.out))
		for i, edge := range n.out {
			down := e.nodes[g.Edge(edge).To]
			n.downMB[i], n.downPos[i] = down.mb, edgeIndex(down.in, edge)
			if c, ok := cfg.Cross[edge]; ok {
				e.cross[edge].from, e.cross[edge].outPos = n, int32(i)
				n.downMB[i], n.downPos[i] = c.Msgs.mb, int32(edge)
			}
			n.outCap[i] = g.Edge(edge).Buf
		}
	}
	e.source = e.nodes[g.Source()]
	e.sink = e.nodes[g.Sink()]
	e.srcWin = ingestWindow
	if w := 2 * e.source.batch; w > e.srcWin {
		e.srcWin = w
	}
	e.sinkWin = sinkWindow
	if w := 2 * e.sink.batch; w > e.sinkWin {
		e.sinkWin = w
	}
	for _, n := range e.nodes {
		e.wg.Add(1)
		go func(n *engineNode) {
			defer e.wg.Done()
			n.run()
		}(n)
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.watchdog()
	}()
	return e, nil
}

func edgeIndex(edges []graph.EdgeID, e graph.EdgeID) int32 {
	for i, x := range edges {
		if x == e {
			return int32(i)
		}
	}
	panic("stream: edge not in neighbour order")
}

// Open starts one logical stream over the resident topology and returns
// immediately; drive it to completion with EngineSession.Wait.
func (e *Engine) Open(cfg SessionConfig) (*EngineSession, error) {
	if cfg.Source == nil && cfg.SpanSource == nil {
		return nil, errors.New("stream: engine session requires a Source")
	}
	if cfg.ID == 0 {
		return nil, errors.New("stream: engine session requires a nonzero id")
	}
	parent := cfg.Ctx
	if parent == nil {
		parent = context.Background()
	}
	sctx, cancel := context.WithCancelCause(parent)
	ses := &EngineSession{
		id: cfg.ID, e: e,
		ctx: sctx, cancel: cancel,
		source: cfg.Source, spanSrc: cfg.SpanSource,
		sink: cfg.Sink, spanSink: cfg.SpanSink,
		done:   make(chan struct{}),
		start:  time.Now(),
		onDone: cfg.OnDone,
	}
	// One hold for the done resolution and one per pump (see unhold).
	holds := int32(2)
	if ses.hasSink() {
		holds++
	}
	ses.holds.Store(holds)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		cancel(nil)
		return nil, ErrEngineClosed
	}
	if _, dup := e.sessions[ses.id]; dup {
		e.mu.Unlock()
		cancel(nil)
		return nil, fmt.Errorf("stream: session id %d already open", ses.id)
	}
	// The buffers are in place before the session is registered: the
	// watchdog reads the counters of every registered session.
	ses.sessionBufs = e.takeBufs(ses.hasSink())
	e.sessions[ses.id] = ses
	e.mu.Unlock()
	if m := e.cfg.Obs; m != nil {
		sm := m.Sessions()
		sm.Opened.Add(1)
		sm.Active.Add(1)
	}

	// Every node must learn about the session before its first message
	// can flow, so the evOpen posts complete before the ingest pump
	// starts (mailboxes are FIFO, and messages for a session only ever
	// follow its payloads).
	for _, n := range e.nodes {
		n.mb.post(event{kind: evOpen, ses: ses})
	}
	if parent.Done() != nil {
		ses.stopParent = context.AfterFunc(parent, func() { ses.end(context.Cause(parent), nil) })
	}
	if ses.hasSink() {
		go ses.sinkPump(e.sink)
	}
	go ses.ingestPump(e.source)
	return ses, nil
}

// takeBufs returns buffers for a new session: scrubbed ones from the free
// list, or fresh ones when it is empty.  The sink ring is made the first
// time a session with a sink needs it and kept after.  Caller holds e.mu.
func (e *Engine) takeBufs(sink bool) *sessionBufs {
	var b *sessionBufs
	if k := len(e.free) - 1; k >= 0 {
		b, e.free[k] = e.free[k], nil
		e.free = e.free[:k]
	} else {
		// Each ring (a power of two, for mask indexing) holds its window:
		// the ingest ring's occupancy never exceeds outstanding grants, so
		// the pump never waits for ring space.  The pump's fill scratch
		// holds one window too.
		b = &sessionBufs{
			live:    make([]ownedCounter, len(e.nodes)),
			at:      make([]*nodeSession, len(e.nodes)),
			edges:   make([]edgeCounts, e.g.NumEdges()),
			ready:   make(chan struct{}, 1),
			ring:    make([]any, 1<<bits.Len(uint(e.srcWin-1))),
			scratch: make([]any, e.srcWin),
		}
	}
	if sink && b.emPay == nil {
		// The payloads outstanding at the pump are capped at sinkWin, so
		// sinkWin slots always have room for the next pass.
		b.emSeq = make([]uint64, 1<<bits.Len(uint(e.sinkWin-1)))
		b.emPay = make([]any, len(b.emSeq))
		b.sinkWake = make(chan struct{}, 1)
	}
	return b
}

// Close fails every active session with ErrEngineClosed and drains the
// resident node goroutines; it is idempotent, and Open fails afterwards.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	for _, s := range e.Active() {
		s.end(ErrEngineClosed, nil)
	}
	close(e.stop)
	for _, n := range e.nodes {
		n.mb.close()
	}
	e.wg.Wait()
	// The node loops are gone: any session whose abort acks were cut
	// short by the mailbox teardown resolves here instead of hanging its
	// Wait (its outcome was already recorded by end()).
	e.mu.Lock()
	stranded := make([]*EngineSession, 0, len(e.sessions))
	for _, s := range e.sessions {
		stranded = append(stranded, s)
	}
	e.mu.Unlock()
	for _, s := range stranded {
		s.closeDone()
	}
	return nil
}

// watchdog scans the active sessions once per period: a session whose
// liveness counters, summed over the nodes, did not move across a full
// period, with no in-flight Source/Sink callback and no armed timer, is
// wedged, and fails with a DeadlockError naming it.  Sessions blocked in
// user code (a quiet source, a backpressuring sink) are the outside
// world's pace, not deadlock; so is a node loop that held one batch for
// the whole period (a slow kernel), and no session fails in that scan.
func (e *Engine) watchdog() {
	ticker := time.NewTicker(e.cfg.WatchdogTimeout)
	defer ticker.Stop()
	taken := make([]uint64, len(e.nodes))
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			busy := false
			for i, n := range e.nodes {
				if n.mb.busy(&taken[i]) {
					busy = true
				}
			}
			for _, ses := range e.Active() {
				var cur int64
				for i := range ses.live {
					cur += ses.live[i].n.Load()
				}
				if !busy && ses.watched && cur == ses.lastProgress && ses.external.Load() == 0 && ses.timersArmed.Load() == 0 {
					// The session's edge atomics: racy but indicative, and
					// safe from this goroutine (the node-owned inflight
					// counters are never touched here).
					chans, stalled := Wedge(e.g, func(id graph.EdgeID) int64 { return ses.edges[id].occupancy() })
					ses.end(&DeadlockError{Session: ses.id, Channels: chans, Stalled: stalled}, nil)
					continue
				}
				ses.lastProgress = cur
				ses.watched = true
			}
		}
	}
}

// ingestWindow is how many payloads a session's ingest pump may have
// outstanding (granted or queued at the source node).  One would
// round-trip a grant per payload; a small window pipelines ingestion
// while still bounding a session's run-ahead over its own sends.
// Grants travel as a counter (readyN) with a one-slot wake channel, and
// ingested payloads land in a lock-free SPSC ring drained in bulk by
// the source node on a coalesced kick event — so a fast source costs
// one mailbox post per drain cycle, not one per payload.
const ingestWindow = 16

// sinkWindow is how many emissions a session may have outstanding at
// its sink pump.  One would round-trip an evSinkDone per firing and
// serialize the sink; a small window pipelines the handoff while still
// bounding how far a session can run ahead of a slow Sink.  Order is
// unaffected (FIFO ring, single pump) and so is the error contract:
// the pump stops at the first Emit error, so queued emissions behind it
// are never delivered.
const sinkWindow = 16

// EngineSession is one logical stream being served by an Engine.
//
// Its fields fall in three groups, padded apart: what every node loop
// reads on every message and nobody writes once the session streams, what
// the pumps and the rim nodes write on every message, and the cold rest.
// A read-mostly field on a line the pumps write would miss in every node's
// cache at every message.
type EngineSession struct {
	id       proto.SessionID
	e        *Engine
	ctx      context.Context
	cancel   context.CancelCauseFunc
	source   SourceFunc
	spanSrc  SpanSourceFunc
	sink     SinkFunc
	spanSink SpanSinkFunc
	// The session's buffers, borrowed from the engine's free list for as
	// long as the session holds them (see unhold).  The pointer is set
	// before the session is registered and never changes.
	*sessionBufs
	ended atomic.Bool // set once, by end

	_ [64]byte

	// external counts in-flight Source/Sink callbacks (blocked user code
	// is not a wedge).
	external atomic.Int64
	// Ingest handoff.  The source node issues grants by adding to readyN
	// and waking the pump through the one-slot ready channel; the pump
	// publishes each payload to the single-producer single-consumer ring
	// as soon as Source.Next returns it — never holding one back while
	// demanding another — and posts one coalesced evIngest kick (ingKick)
	// per drain cycle rather than one event per payload.  The ring never
	// fills: occupancy is bounded by the source node's outstanding grants,
	// which never exceed the ingest window the ring is sized for.  Only
	// the pump writes ingTail and only the source node's goroutine writes
	// ingHead; ingEOF is set (once) after the last payload's tail store,
	// so a reader that observes it also observes every payload.
	readyN  atomic.Int64
	ingHead atomic.Uint64
	ingTail atomic.Uint64
	ingEOF  atomic.Bool
	ingKick atomic.Bool

	_ [64]byte

	// Sink handoff, the ingest ring's mirror: the sink node copies each
	// pass's emissions in at emTail (publish), and the pump delivers up to
	// it, clears the slots, stores emHead and acks with one evSinkDone.  The
	// node never reads the head: the sink window bounds what is outstanding.
	// The pump raises sinkParked before it blocks on sinkWake; whoever
	// lowers it owes the one token.  sinkData is the sink node's count, read
	// at completion.
	emTail     atomic.Uint64
	emHead     atomic.Uint64
	sinkParked atomic.Bool
	sinkData   int64

	_ [64]byte

	// holds counts who still uses the buffers (see unhold).
	holds atomic.Int32
	// timersArmed counts the session's armed time-aware flush timers; the
	// watchdog treats an armed timer like in-flight external work (a
	// session quietly idle inside an open window is the clock's pace, not
	// a wedge).
	timersArmed atomic.Int64
	// lastProgress/watched belong to the engine watchdog goroutine.
	lastProgress int64
	watched      bool
	start        time.Time

	endOnce sync.Once
	err     error
	stats   *Stats
	// checkouts and abortAcks count nodes through with the session and
	// nodes that processed its evAbort (failures only).  done closes on the
	// last checkout of a finished session or the last ack of a failed one,
	// so Wait/Done imply full quiescence: no node loop will invoke a kernel
	// for this session afterwards (which is what makes the public layer's
	// Stateful re-initialization safe), nor touch its buffers.
	checkouts atomic.Int64
	abortAcks atomic.Int64
	doneOnce  sync.Once
	done      chan struct{}
	// onDone is SessionConfig.OnDone; stopParent unregisters the parent
	// context's AfterFunc (nil when the parent can never be cancelled).
	onDone     DoneHook
	stopParent func() bool
}

// sessionBufs are the parts of a session that its node loops and pumps
// use while it streams and that no one reads once it is over.  The engine
// keeps them on a free list, so a short session does not rebuild them.
type sessionBufs struct {
	// live[n] counts node n's advances of the session for the watchdog,
	// which sums them: one padded counter per node, bumped as each
	// advance begins and again when its sends are out, by that node's
	// goroutine alone.  An advance follows every absorbed batch of the
	// session's events and runs its every firing, send and sink
	// hand-off, so it is the one liveness fact needed.
	live []ownedCounter
	// at[n] is node n's state for the session, nil before its evOpen and
	// after its retire; only node n's goroutine touches its slot.
	at []*nodeSession
	// edges[e] is edge e's counts, each half written by one end.
	edges []edgeCounts

	// ready wakes the ingest pump (grants, and end); ring is the ingest
	// ring; scratch is the pump's fill buffer.
	ready   chan struct{}
	ring    []any
	scratch []any

	// emSeq/emPay are the sink ring, one slot per payload, and sinkWake
	// the parked sink pump's wake channel (see EngineSession.emTail); all
	// are made for the first session with a sink.
	emSeq    []uint64
	emPay    []any
	sinkWake chan struct{}
}

// ownedCounter is an atomic counter alone on its cache line: one
// goroutine bumps it, the watchdog reads it.
type ownedCounter struct {
	n atomic.Int64
	_ [56]byte
}

// edgeCounts is one edge's counts for one session, on two cache lines
// each written by one node alone: the producer's sent (EOS included) and
// data/dummies by kind, read at completion (the sink node's final EOS
// happens-after every send), and the consumer's consumed, taken once per
// advance with the credit ack.
type edgeCounts struct {
	sent          atomic.Int64
	data, dummies int64
	_             [40]byte
	consumed      atomic.Int64
	_             [56]byte
}

// occupancy is sent − consumed; consumed is read first, so never < 0.
func (c *edgeCounts) occupancy() int64 {
	d := c.consumed.Load()
	return c.sent.Load() - d
}

// unhold gives up one of the session's holds on its buffers.  The done
// resolution holds them (node loops write them until done closes)
// and so does each pump until it returns — a pump stuck in user code that
// ignores its context keeps them until it comes back.  The last hold to
// go scrubs them and returns them to the engine's free list, or leaves
// them to the collector when the list already keeps freeSessions sets.
func (s *EngineSession) unhold() {
	if s.holds.Add(-1) != 0 {
		return
	}
	s.scrub()
	e := s.e
	e.mu.Lock()
	if len(e.free) < freeSessions {
		e.free = append(e.free, s.sessionBufs)
	}
	e.mu.Unlock()
}

// scrub empties the buffers for their next session: counters zeroed (the
// atomics with stores, since a watchdog scan that listed the old session
// may still read them), rings and scratch cleared so no payload outlives
// its session, and a stale ready token drained.  (Each node empties its
// own at slot when it retires.)
func (b *sessionBufs) scrub() {
	for i := range b.live {
		b.live[i].n.Store(0)
	}
	for i := range b.edges {
		c := &b.edges[i]
		c.sent.Store(0)
		c.consumed.Store(0)
		c.data, c.dummies = 0, 0
	}
	clear(b.ring)
	clear(b.scratch)
	clear(b.emPay)
	select {
	case <-b.ready:
	default:
	}
}

// closeDone resolves Wait/Done exactly once: the session leaves the
// engine's registry and gives up its buffers, OnDone runs, and done
// closes.
func (s *EngineSession) closeDone() {
	s.doneOnce.Do(func() {
		s.e.mu.Lock()
		delete(s.e.sessions, s.id)
		s.e.mu.Unlock()
		s.unhold()
		if s.onDone != nil {
			s.onDone.SessionDone()
		}
		close(s.done)
	})
}

// hasSink reports whether the session delivers its emissions (a sink pump
// runs) rather than only counting them.
func (s *EngineSession) hasSink() bool { return s.sink != nil || s.spanSink != nil }

// ID returns the session's id.
func (s *EngineSession) ID() proto.SessionID { return s.id }

// Done is closed when the session has resolved.
func (s *EngineSession) Done() <-chan struct{} { return s.done }

// Wait blocks until the session drains or fails and returns its stats.
func (s *EngineSession) Wait() (*Stats, error) {
	<-s.done
	return s.stats, s.err
}

// end resolves the session exactly once: record the outcome, wake the
// pumps so they see it, and cancel the session context with it as the
// cause (unblocking Source/Sink calls that honour it).  A failure also
// posts the abort that makes every node drop the session's state, and done
// closes on the last node's ack (absorb); a finished session has retired
// at every node on its own, and done closes on the last checkout.  Either
// way observers of Wait/Done see a fully detached session.
//
// The pumps wait on their own channels, not on the context: its done
// channel is then made only if user code asks for it.  The pokes follow
// the ended store and never block (a one-slot channel, where a token
// already there wakes the pump just as well, and the sink's parked flag).
func (s *EngineSession) end(err error, stats *Stats) {
	s.endOnce.Do(func() {
		s.ended.Store(true)
		s.err = err
		s.stats = stats
		select {
		case s.ready <- struct{}{}:
		default:
		}
		s.wakeSink()
		if m := s.e.cfg.Obs; m != nil {
			sm := m.Sessions()
			sm.Active.Add(-1)
			if err == nil {
				sm.Completed.Add(1)
			} else {
				sm.Failed.Add(1)
			}
			sm.Latency.Observe(int64(time.Since(s.start)))
		}
		s.cancel(err)
		if s.stopParent != nil {
			s.stopParent()
		}
		if err != nil {
			for _, n := range s.e.nodes {
				n.mb.post(event{kind: evAbort, ses: s})
			}
		}
	})
}

// checkout records that one node has retired the session and run its last
// advance.  The last checkout follows the sink's end call (the sink retires
// only once finished), so err is settled: a finished session resolves
// here, a failed one on its abort acks — its buffers wait for every ack, so
// no abort outlives them to reach the next session's state.
func (s *EngineSession) checkout() {
	if s.checkouts.Add(1) == int64(len(s.e.nodes)) && s.err == nil {
		s.closeDone()
	}
}

// callbackFailed ends the session with a Source or Sink error — unless
// the session's context is already done, in which case the callback only
// echoed the cancellation and the session ends with its cause.
func (s *EngineSession) callbackFailed(what string, err error) {
	if cause := context.Cause(s.ctx); cause != nil {
		s.end(cause, nil)
		return
	}
	s.end(fmt.Errorf("stream: %s: %w", what, err), nil)
}

// finishFromSink completes the session successfully; only the sink node's
// goroutine calls it, after consuming EOS on every in-edge — which
// happens-after every node's last send, so reading the plain counters
// here is safe.
func (s *EngineSession) finishFromSink() {
	stats := &Stats{
		Data:     make(map[graph.EdgeID]int64, len(s.edges)),
		Dummies:  make(map[graph.EdgeID]int64, len(s.edges)),
		SinkData: s.sinkData,
		Elapsed:  time.Since(s.start),
	}
	for i := range s.edges {
		stats.Data[graph.EdgeID(i)] = s.edges[i].data
		stats.Dummies[graph.EdgeID(i)] = s.edges[i].dummies
	}
	s.end(nil, stats)
}

// ingestPump pulls the session's payloads.  Each grant buys one payload,
// and the node keeps up to the ingest window of grants outstanding, so a
// session's source runs ahead a bounded window and a slow consumer
// applies backpressure to its own source only.  Each fill is published
// before the next is asked for — a request/response feedback source,
// filled one payload per call, never sees the engine hold one payload
// while demanding another — but the publish is slot writes and one tail
// store on the lock-free SPSC ring, and the mailbox kick coalesces: under
// load the source node drains whole runs of payloads per event, and a
// SpanSource pays the handoff per window.
func (s *EngineSession) ingestPump(src *engineNode) {
	defer s.unhold()
	scratch, mask := s.scratch, uint64(len(s.ring)-1)
	for {
		g := s.readyN.Swap(0)
		if g == 0 {
			if s.ended.Load() {
				return
			}
			<-s.ready
			continue
		}
		// One external-callback window covers the whole granted run: the
		// watchdog only needs to know user code may be blocking, not how
		// many calls deep the run is.
		s.external.Add(1)
		for g > 0 {
			m := min(g, int64(len(scratch)))
			n, eof, err := s.fill(scratch[:m])
			if err != nil {
				s.external.Add(-1)
				s.callbackFailed("source", err)
				return
			}
			if n < 0 || int64(n) > m {
				s.external.Add(-1)
				s.end(fmt.Errorf("stream: span source filled %d of a %d-payload buffer", n, m), nil)
				return
			}
			t := s.ingTail.Load()
			for j := 0; j < n; j++ {
				s.ring[(t+uint64(j))&mask] = scratch[j]
				scratch[j] = nil
			}
			s.ingTail.Store(t + uint64(n))
			if eof = eof || n == 0; eof { // an empty error-free fill ends the stream
				// After the last payload's tail store, so the drain that
				// observes EOF has observed every payload.
				s.ingEOF.Store(true)
			}
			// Load-then-CAS: skip the bus-locked op while the kick is
			// already armed.  A drain clears the kick before reading the
			// tail, so a payload published after its read re-arms and
			// re-posts — none are stranded.
			if !s.ingKick.Load() && s.ingKick.CompareAndSwap(false, true) {
				src.mb.post(event{kind: evIngest, ses: s})
			}
			if eof {
				s.external.Add(-1)
				return
			}
			g -= int64(n)
		}
		s.external.Add(-1)
	}
}

// fill asks the source for up to len(buf) payloads: one NextSpan call for
// a SpanSource, otherwise one Next call for one payload, which keeps
// SourceFunc's one-at-a-time contract.
func (s *EngineSession) fill(buf []any) (int, bool, error) {
	if s.spanSrc != nil {
		return s.spanSrc(s.ctx, buf)
	}
	payload, ok, err := s.source(s.ctx)
	if err != nil || !ok {
		return 0, true, err
	}
	buf[0] = payload
	return 1, false, nil
}

// sinkPump delivers the session's emissions in order, draining the ring
// eagerly and acknowledging each drained run with one batched evSinkDone
// (cnt = count), so a fast sink costs one mailbox round-trip per batch
// rather than per emission.  The pump stops at the first Emit error, or
// once the session has ended; emissions still queued are never delivered.
func (s *EngineSession) sinkPump(sink *engineNode) {
	defer s.unhold()
	for h := uint64(0); !s.ended.Load(); {
		start := h
		for t := s.emTail.Load(); h != t; t = s.emTail.Load() {
			if err := s.deliver(h, t); err != nil {
				s.callbackFailed("sink", err)
				return
			}
			h = t
		}
		if h == start {
			s.parkSink(h)
			continue
		}
		s.emHead.Store(h)
		sink.mb.post(event{kind: evSinkDone, ses: s, cnt: int(h - start)})
	}
}

// deliver hands the ring's slots [h, t) to the sink under one
// external-callback window — one EmitSpan, or two where the ring wraps,
// or Emit per element — and clears them.
func (s *EngineSession) deliver(h, t uint64) (err error) {
	s.external.Add(1)
	for h != t && err == nil {
		i := int(h & uint64(len(s.emPay)-1))
		j := min(i+int(t-h), len(s.emPay))
		seqs, pays := s.emSeq[i:j], s.emPay[i:j]
		if s.spanSink != nil {
			err = s.spanSink(s.ctx, seqs, pays)
		} else {
			for k := 0; k < len(pays) && err == nil; k++ {
				err = s.sink(s.ctx, seqs[k], pays[k])
			}
		}
		clear(pays)
		h += uint64(j - i)
	}
	s.external.Add(-1)
	return err
}

// parkSink blocks the sink pump until the ring holds more than h or the
// session ends: a publish or end racing the re-check sees the flag.
func (s *EngineSession) parkSink(h uint64) {
	s.sinkParked.Store(true)
	if s.emTail.Load() == h && !s.ended.Load() {
		<-s.sinkWake
	} else if !s.sinkParked.CompareAndSwap(true, false) {
		<-s.sinkWake // a waker cleared the flag first: take its token
	}
}

// publish copies one pass's emissions into the sink ring: slot writes
// and a tail store, and a wake only when the pump is parked.
func (s *EngineSession) publish(seqs []uint64, pays []any) {
	t := s.emTail.Load()
	mask := uint64(len(s.emPay) - 1)
	for j := range pays {
		k := (t + uint64(j)) & mask
		s.emSeq[k], s.emPay[k] = seqs[j], pays[j]
	}
	s.emTail.Store(t + uint64(len(pays)))
	s.wakeSink()
}

// wakeSink wakes a parked sink pump; whoever clears the flag sends the one
// token, so the one-slot channel never blocks.
func (s *EngineSession) wakeSink() {
	if s.sinkParked.Load() && s.sinkParked.CompareAndSwap(true, false) {
		s.sinkWake <- struct{}{}
	}
}

// ---------------------------------------------------------------------
// Node event loops.

type evKind uint8

const (
	evOpen evKind = iota
	evMsg
	evCredit
	evIngest // coalesced kick: drain the session's shared ingest buffer
	evSinkDone
	evTick // a time-aware node's flush timer fired for the session
	evAbort
)

// event is one unit of work for a node loop, 32 bytes.  Carrying the
// session pointer (not just the id) lets late events for an ended session
// be dropped without a registry lookup.  An evMsg is a run of messages —
// data and dummies interleaved in sequence order, one or a batch — whose
// copy sits in its batch's arena at [off, off+cnt).
type event struct {
	kind evKind
	pos  int32 // in-edge position (evMsg), out-edge position (evCredit)
	cnt  int   // batched count (evCredit, evSinkDone), run length (evMsg)
	ses  *EngineSession
	off  int // run offset in the batch's arena (evMsg)
}

// batch is a mailbox's queue: its events in post order and the arena
// holding their runs.
type batch struct {
	evs   []event
	arena []Message
}

// reset zeroes the batch (no payload outlives its absorb) for reuse.
func (b *batch) reset() {
	clear(b.evs)
	clear(b.arena)
	b.evs, b.arena = b.evs[:0], b.arena[:0]
}

// mailbox is the unbounded MPSC queue feeding one node loop.  Posts
// never block, which is what keeps the node loops deadlock-free among
// themselves: all flow control lives in the per-session credit windows,
// which also bound what the queue holds.  A run is copied in on post, so
// the sender keeps its buffer and no buffer changes goroutine.  The
// consumer drains whole batches (takeAll), so the lock is taken once per
// batch, not once per event, and two batches ping-pong: memory is bounded
// by the largest backlog, not by total traffic.  A consumer that finds
// the queue empty raises parked and waits on wake; the post (or close)
// that lowers the flag owes it the one token.
type mailbox struct {
	mu     sync.Mutex
	q      batch
	parked bool
	closed bool
	wake   chan struct{}
	// taken counts the batches handed out, for the watchdog's busy check.
	taken uint64
}

func newMailbox() *mailbox { return &mailbox{wake: make(chan struct{}, 1)} }

func (m *mailbox) post(ev event) {
	m.mu.Lock()
	if !m.closed {
		m.q.evs = append(m.q.evs, ev)
	}
	m.unlock()
}

// postRun posts an evMsg carrying a copy of run.
func (m *mailbox) postRun(ev event, run []Message) {
	m.mu.Lock()
	if !m.closed {
		ev.off, ev.cnt = len(m.q.arena), len(run)
		m.q.arena = append(m.q.arena, run...)
		m.q.evs = append(m.q.evs, ev)
	}
	m.unlock()
}

// unlock releases the lock and wakes a parked consumer — after Unlock, so
// that it does not wake into the lock its waker still holds.
func (m *mailbox) unlock() {
	wake := m.parked
	m.parked = false
	m.mu.Unlock()
	if wake {
		m.wake <- struct{}{}
	}
}

// takeAll blocks for the next batch, handing ownership of the queued one
// to the caller and installing spare (reset by its owner) as the new
// queue.  It returns ok=false when the mailbox is closed and drained.
func (m *mailbox) takeAll(spare batch) (batch, bool) {
	m.mu.Lock()
	for len(m.q.evs) == 0 && !m.closed {
		m.parked = true
		m.mu.Unlock()
		<-m.wake
		m.mu.Lock()
	}
	b := m.q
	m.q = spare
	m.taken++
	m.mu.Unlock()
	return b, len(b.evs) > 0
}

// busy reports whether the consumer still holds the batch it had when
// the count read *seen: it is unparked and has taken none since.  It
// stores the current count in *seen.
func (m *mailbox) busy(seen *uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := !m.parked && m.taken == *seen
	*seen = m.taken
	return b
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.unlock()
}

// engineNode is one resident node loop.
type engineNode struct {
	e   *Engine
	id  graph.NodeID
	in  []graph.EdgeID
	out []graph.EdgeID
	mb  *mailbox

	// upMB[i] takes in-edge i's credit returns and downMB[i] out-edge i's
	// messages: the neighbour's mailbox, tagged upPos/downPos with the
	// edge's position in the neighbour's order — or, for a cross edge, its
	// carrier's outbox, tagged with the edge id.
	upMB    []*mailbox
	upPos   []int32
	downMB  []*mailbox
	downPos []int32
	outCap  []int

	// batch is the node's vectorization width (>= 1): how many aligned
	// firings one pass of fireRun may take.
	batch int
	// kern is the kernel's SliceForm, resolved once at NewEngine.  spanK
	// is non-nil when the node has at most one in-edge and the kernel
	// vectorizes (SpanKernel), at any batch width — batch 1 is a span of
	// length one.
	kern  SliceKernel
	spanK SpanKernel
	// timed is non-nil when the kernel is time-aware (TimedKernel); the
	// node then consumes its input silently and fires only for the
	// kernel's own emissions, re-sequenced (see timed.go).  queued marks
	// the nodes whose firings come from ns.ingestQ at ns.nextSeq rather
	// than from aligned heads: the source and the time-aware nodes.
	timed  TimedKernel
	queued bool

	// The dirty list and the scratch below are owned by the node
	// goroutine; the scratch is reused by every firing of every session.
	dirty []*nodeSession
	// retiring holds the batch's retired sessions until its advance loop
	// is over, and free the released ones the next evOpen reuses (at most
	// freeSessions; see retire and release).
	retiring  []*nodeSession
	free      []*nodeSession
	creditAcc []int // per in-pos credits consumed this advance
	cur       []int // per in-pos heads taken by the pass in progress
	// kin, kout and present are a firing's kernel arguments; spanIn,
	// spanOut and spanSeq, batch long, a ProcessSpan stretch's.
	kin             []Input
	kout            []any
	present         []bool
	spanIn, spanOut []any
	spanSeq         []uint64
	// acc[i] accumulates the pass's run for out-pos i and accDummy[i]
	// counts the dummies in it; ship copies the run out and empties it.
	acc      [][]Message
	accDummy []int
	// emSeqs/emPays accumulate a sink's emissions the same way.
	emSeqs []uint64
	emPays []any
	// allTrue is the constant all-edges-emitted mask handed to FireRun
	// by a ProcessSpan stretch.
	allTrue []bool

	// Observability pointers, nil when Config.Obs is nil (the default):
	// the node's counters, the shared session counters, and the node's
	// in-/out-edge counters by position.  A nil obsN disables every
	// instrumentation site in this node's loop.
	obsN   *obs.NodeMetrics
	obsS   *obs.SessionMetrics
	obsIn  []*obs.EdgeMetrics
	obsOut []*obs.EdgeMetrics
	// obsTick counts advance passes for ServiceTime sampling: timing
	// every pass costs two clock reads per mailbox wake, which dominates
	// the observer's overhead on near-zero-cost stages, so only one pass
	// in obsSampleRate is timed and the reading scaled back up.
	obsTick uint
}

// obsSampleRate is the ServiceTime sampling stride: one advance pass in
// this many is wall-clocked and the duration scaled by the stride.  A
// power of two keeps the tick test a mask.
const obsSampleRate = 8

// nodeSession is one node's protocol state for one session.  A node
// recycles them: a retired one is emptied and kept for the next evOpen
// (release), so a short session does not rebuild its slices, its
// proto.Engine and its head arrays at every node.
type nodeSession struct {
	ses *EngineSession
	// live is this node's slot of the session's liveness counters.
	live *ownedCounter
	// heads[i] is the FIFO of arrived, unconsumed messages on in-pos i.
	heads []fifo[Message]
	// engine is this session's dummy-protocol state at this node.
	engine *proto.Engine
	// pendingMsg[i]/pendingSet[i] park the one message a pass may produce
	// beyond out-pos i's window — its last firing's, or an EOS — until a
	// credit makes room; pendingN counts set slots.  A node fires only
	// with no pending sends.
	pendingMsg []Message
	pendingSet []bool
	pendingN   int
	// inflight[i] counts messages sent but not yet credited on out-pos i;
	// the window is full at outCap[i].
	inflight []int
	// stallSince[i] is the wall-clock ns at which out-pos i's current
	// blocked-send episode began (0 = not stalled); allocated only with
	// an observer attached, owned by the node goroutine.
	stallSince []int64

	// The firing queue of a queued node: a source's granted payloads, a
	// time-aware node's matured emissions.  nextSeq is the sequence number
	// the queue's head fires at, and srcDone says nothing more will be
	// queued, so EOS follows the last firing.
	nextSeq      uint64
	ingestQ      fifo[any]
	srcDone      bool
	grants       int  // source only: grant tokens outstanding at the pump
	sinkInflight int  // sink only: emissions outstanding at the pump
	finishOnIdle bool // sink only: EOS consumed, waiting for the pump
	done         bool
	retired      bool // detached from the node; skip advances (see retire)
	dirty        bool // queued in the node's per-batch advance list

	// Time-aware node state (n.timed != nil only).  tickDue records an
	// absorbed but not-yet-delivered flush-timer wakeup; timer is the
	// session's one flush timer (allocated once, Reset thereafter),
	// timerArmed its contribution to ses.timersArmed and armedAt the
	// deadline it is pending for (zero once its tick is delivered).
	tickDue    bool
	timer      clock.Timer
	timerArmed bool
	armedAt    time.Time
}

func (n *engineNode) run() {
	var spare batch
	for {
		b, ok := n.mb.takeAll(spare)
		if !ok {
			return
		}
		// Two-phase batch: absorb every event's state change first, then
		// advance each touched session once — so a batch of arrivals
		// costs one fire loop and one batched credit ack per session,
		// not one per event.
		for i := range b.evs {
			n.absorb(&b.evs[i], b.arena)
		}
		b.reset() // release references before reuse
		var t0 time.Time
		if n.obsN != nil && len(n.dirty) > 0 {
			if n.obsTick++; n.obsTick&(obsSampleRate-1) == 0 {
				t0 = time.Now()
			}
		}
		for i, ns := range n.dirty {
			ns.dirty = false
			n.advance(ns)
			n.dirty[i] = nil
		}
		if !t0.IsZero() {
			n.obsN.ServiceTime.Add(int64(time.Since(t0)) * obsSampleRate)
		}
		n.dirty = n.dirty[:0]
		for i, ns := range n.retiring {
			ses := ns.ses
			n.release(ns)
			ses.checkout()
			n.retiring[i] = nil
		}
		n.retiring = n.retiring[:0]
		spare = b
	}
}

// obsDrainSession folds a detached session's residual per-edge
// occupancy into the drained counts, so the queue-depth gauge converges
// back to zero after a cancelled or failed session whose in-flight
// messages are dropped rather than consumed.  It runs exactly once, on
// the final abort ack, when every node has dropped the session and no
// counter of it moves anymore.
func (n *engineNode) obsDrainSession(ses *EngineSession) {
	m := n.e.cfg.Obs
	if m == nil {
		return
	}
	for e := range ses.edges {
		if r := ses.edges[e].occupancy(); r != 0 {
			m.Edge(e).Consumed.Add(r)
		}
	}
}

func (n *engineNode) markDirty(ns *nodeSession) {
	if !ns.dirty {
		ns.dirty = true
		n.dirty = append(n.dirty, ns)
	}
}

// freeSessions caps a node's free list of released sessions.  The list
// only has to cover the sessions that retire between two opens (the
// harness's session_churn keeps four in flight), and what each one keeps
// is bounded: its arrays, emptied — a head array under 4 × its in-edge's
// Buf messages of 32 bytes (a head never holds more than the edge's
// window; see fifo), a queued node's ingest array under 4 × the longest
// queue it held (a source's is its ingest window) — plus about 0.3 KB of
// struct, proto.Engine and per-out-edge slices.  A node with one in-edge
// of Buf 64 thus retains at most 16 × (8 + 0.3) KB ≈ 133 KB.  The engine's
// free list of session buffers (takeBufs, unhold) has the same cap; one
// entry is a padded counter and a state slot per node, two lines per edge,
// the ingest ring and fill scratch (a grant window each) and the sink ring
// (a sink window of 24-byte seq and payload slots), about 2 KB on a
// five-node chain.
const freeSessions = 16

// openSession returns the node's state for a new session: a released one
// from the free list, or a fresh one when the list is empty.
func (n *engineNode) openSession(ses *EngineSession) *nodeSession {
	var ns *nodeSession
	if k := len(n.free) - 1; k >= 0 {
		ns, n.free[k] = n.free[k], nil
		n.free = n.free[:k]
	} else {
		ns = &nodeSession{
			heads:      make([]fifo[Message], len(n.in)),
			engine:     proto.NewEngine(n.out, proto.Config{Algorithm: n.e.cfg.Algorithm, Intervals: n.e.cfg.Intervals}),
			pendingMsg: make([]Message, len(n.out)),
			pendingSet: make([]bool, len(n.out)),
			inflight:   make([]int, len(n.out)),
		}
		if n.obsN != nil {
			ns.stallSince = make([]int64, len(n.out))
		}
	}
	ns.ses, ns.live = ses, &ses.live[n.id]
	return ns
}

// retire is the one exit of a node session: the session was aborted, or
// it is over at this node (EOS sent, or the sink finished).  It detaches
// the state from the node at once and queues it for release and checkout
// after the batch's advance loop (n.dirty may still hold it, and the
// advance may still count).  Retiring twice is a no-op — a sink that
// finishes inside advance retires in finishSink and again in advance's
// reclaim — so one state never reaches the free list twice.
func (n *engineNode) retire(ns *nodeSession) {
	if ns.retired {
		return
	}
	ns.retired = true
	if n.timed != nil {
		n.stopTimer(ns)
	}
	ns.ses.at[n.id] = nil
	n.retiring = append(n.retiring, ns)
}

// release empties a retired session and keeps it for the next evOpen, up
// to freeSessions; past the cap it is left to the collector.  Arrays stay,
// zeroed (no payload outlives its session); scalars, the session pointer
// and the flush timer — stopped at retire, its closure bound to the old
// session — are dropped by rebuilding the struct around the arrays.
func (n *engineNode) release(ns *nodeSession) {
	if len(n.free) >= freeSessions {
		return
	}
	for i := range ns.heads {
		ns.heads[i].reset()
	}
	ns.ingestQ.reset()
	ns.engine.Reset()
	clear(ns.pendingMsg)
	clear(ns.pendingSet)
	clear(ns.inflight)
	clear(ns.stallSince)
	*ns = nodeSession{
		heads: ns.heads, engine: ns.engine, ingestQ: ns.ingestQ,
		pendingMsg: ns.pendingMsg, pendingSet: ns.pendingSet,
		inflight: ns.inflight, stallSince: ns.stallSince,
	}
	n.free = append(n.free, ns)
}

// absorb applies one event's state change and marks the session for the
// batch's advance pass; arena holds the batch's runs.
func (n *engineNode) absorb(ev *event, arena []Message) {
	if ev.kind == evAbort {
		if ns := ev.ses.at[n.id]; ns != nil {
			n.retire(ns)
		}
		if ev.ses.abortAcks.Add(1) == int64(len(n.e.nodes)) {
			n.obsDrainSession(ev.ses)
			ev.ses.closeDone()
		}
		return
	}
	// Events of an ended session are dead: dropping them stops kernel
	// invocations for the old stream as soon as end() runs, before the
	// slot is read — after done, the buffers may serve the next session.
	if ev.ses.ended.Load() {
		return
	}
	if ev.kind == evOpen {
		ns := n.openSession(ev.ses)
		ev.ses.at[n.id] = ns
		n.markDirty(ns)
		return
	}
	ns := ev.ses.at[n.id]
	if ns == nil {
		return // session drained here; late event
	}
	switch ev.kind {
	case evMsg:
		ns.heads[ev.pos].pushAll(arena[ev.off : ev.off+ev.cnt])
	case evCredit:
		if ev.cnt > ns.inflight[ev.pos] {
			n.failCredit(ns, ev)
			return
		}
		ns.inflight[ev.pos] -= ev.cnt
	case evIngest:
		// Clear the kick before draining: a payload published after the
		// drain re-arms it and posts a fresh event, so none are stranded.
		ev.ses.ingKick.Store(false)
		// EOF before tail: the pump stores the tail of its last payload
		// before setting EOF, so seeing EOF here means the tail read below
		// covers the whole stream — srcDone is never set with payloads
		// still in the ring.
		eof := ev.ses.ingEOF.Load()
		h := ev.ses.ingHead.Load()
		t := ev.ses.ingTail.Load()
		if t != h {
			ring, mask := ev.ses.ring, uint64(len(ev.ses.ring)-1)
			for i := h; i < t; i++ {
				ns.ingestQ.push(ring[i&mask])
				ring[i&mask] = nil
			}
			ev.ses.ingHead.Store(t)
			ns.grants -= int(t - h)
		}
		if eof && !ns.srcDone {
			ns.srcDone = true
			ns.grants-- // the grant the EOS-returning Next consumed
		}
	case evSinkDone:
		ns.sinkInflight -= ev.cnt
	case evTick:
		ns.tickDue = true
	}
	n.markDirty(ns)
}

// failCredit fails a session that was returned more credits than it has
// in flight on an out-edge.  Only a remote consumer can do that (a corrupt
// or hostile credit frame): a local one acks exactly what it popped.
// Kept out of absorb so the check costs the hot path one compare.
//
//go:noinline
func (n *engineNode) failCredit(ns *nodeSession, ev *event) {
	ed := n.e.g.Edge(n.out[ev.pos])
	ns.ses.end(fmt.Errorf("stream: session %d: credit for %d messages on edge %s→%s with %d in flight",
		ns.ses.id, ev.cnt, n.e.g.Name(ed.From), n.e.g.Name(ed.To), ns.inflight[ev.pos]), nil)
}

// advance drives the session's state machine at this node as far as it
// can go without blocking: flush parked sends, fire while inputs align
// and sends land, re-grant the ingest window, ack consumed heads, and
// reclaim drained state.
func (n *engineNode) advance(ns *nodeSession) {
	if ns.retired {
		return
	}
	ns.live.n.Store(ns.live.n.Load() + 1) // one writer: no locked add
	n.flush(ns)
	if n.queued {
		n.advanceQueued(ns)
	} else {
		for !ns.done && ns.pendingN == 0 && n.fireRun(ns) {
		}
	}
	n.flushCredits(ns)
	// Bump again once the sends and acks are out: a long advance that
	// began before a watchdog scan and ends just before the next one has
	// moved the session, though its consumers may not have taken what it
	// sent yet (a cross edge's frames can still be on the wire).
	ns.live.n.Store(ns.live.n.Load() + 1)
	if n.timed != nil {
		n.armTimer(ns)
	}
	// A sink whose EOS arrived while Emits were still at the pump
	// finishes on the pump's final ack.
	if ns.done && ns.finishOnIdle && ns.sinkInflight == 0 {
		n.finishSink(ns)
		return
	}
	// Reclaim drained state — except at a sink still waiting for its
	// pump's final Emit (finishSink retires it then).
	if ns.done && ns.pendingN == 0 && !ns.finishOnIdle {
		n.retire(ns)
	}
}

// advanceQueued is the advance body of a queued node: fire the queue
// while sends land, and end the stream once nothing more will be queued
// and the queue has drained.  The source's queue is refilled by its pump,
// which is kept granted up to the ingest window; a time-aware node
// refills its own, by delivering a due flush-timer tick and consuming
// inputs, but only with the queue empty and nothing parked — a tick that
// finds sends parked is deferred (the credit that drains them re-runs the
// advance) and the timer stays disarmed meanwhile, so a genuinely wedged
// downstream still trips the watchdog instead of being masked by an
// immediately-due timer respinning forever.
func (n *engineNode) advanceQueued(ns *nodeSession) {
loop:
	for !ns.done && ns.pendingN == 0 {
		switch {
		case ns.ingestQ.len() > 0:
			if !n.fireRun(ns) {
				break loop // degenerate source-sink: pump window full
			}
		case ns.srcDone:
			n.endStream(ns)
		case n.timed == nil:
			break loop
		case ns.tickDue:
			ns.tickDue, ns.armedAt = false, time.Time{}
			n.timed.Tick(n.timed.TimedClock().Now())
			if m := n.e.cfg.Obs; m != nil {
				m.Time().TimerTicks.Add(1)
			}
			n.queueEmissions(ns)
		case !n.consumeTimed(ns):
			break loop
		}
	}
	// Keep the pump running ahead, up to the ingest window of
	// outstanding payloads (granted or queued) — backpressure still
	// propagates once the queue fills, but a fast source no longer
	// round-trips a grant per payload: grants post as one counter add
	// plus a non-blocking wake.
	if n.timed == nil && !ns.done && !ns.srcDone {
		if k := n.e.srcWin - ns.grants - ns.ingestQ.len(); k > 0 {
			ns.grants += k
			ns.ses.readyN.Add(int64(k))
			select {
			case ns.ses.ready <- struct{}{}:
			default:
			}
		}
	}
}

// endStream finishes the session at this node after its last firing:
// EOS on every out-edge, or the session's completion at the sink.
func (n *engineNode) endStream(ns *nodeSession) {
	ns.done = true
	if len(n.out) == 0 {
		n.finishSink(ns)
		return
	}
	for i := range n.out {
		n.setPending(ns, i, Message{Seq: proto.EOSSeq, Kind: EOS})
	}
	n.flush(ns)
}

// flushCredits acks this advance's consumed heads upstream, one batched
// credit event per in-edge, and counts them consumed in the same step.
func (n *engineNode) flushCredits(ns *nodeSession) {
	for i, c := range n.creditAcc {
		if c > 0 {
			n.creditAcc[i] = 0
			d := &ns.ses.edges[n.in[i]].consumed
			d.Store(d.Load() + int64(c))
			n.upMB[i].post(event{kind: evCredit, ses: ns.ses, pos: n.upPos[i], cnt: c})
		}
	}
}

// flush delivers parked sends whose windows have room.
func (n *engineNode) flush(ns *nodeSession) {
	if ns.pendingN == 0 {
		return
	}
	var now int64 // lazily stamped wall clock for stall accounting
	for i, set := range ns.pendingSet {
		if !set {
			continue
		}
		if n.room(ns, i) <= 0 {
			n.obsStall(ns, i, &now)
			continue
		}
		data, dummies := 0, 0
		switch ns.pendingMsg[i].Kind {
		case Data:
			data = 1
		case Dummy:
			dummies = 1
		}
		n.sent(ns, i, 1, data, dummies, &now)
		n.downMB[i].postRun(event{kind: evMsg, ses: ns.ses, pos: n.downPos[i]}, ns.pendingMsg[i:i+1])
		ns.pendingSet[i] = false
		ns.pendingMsg[i] = Message{}
		ns.pendingN--
	}
}

// ship sends each out-edge the run the pass accumulated for it, whole:
// one window update, one count update and one post per edge, whatever
// the run's length and mix.  A run one longer than the window held at
// pass start ends in the firing that stopped the pass; that message
// parks, exactly as a per-message firing's blocked send would.
func (n *engineNode) ship(ns *nodeSession) {
	var now int64
	for i, run := range n.acc {
		m, d := len(run), n.accDummy[i]
		if m == 0 {
			continue
		}
		n.accDummy[i] = 0
		parks := m > n.room(ns, i)
		if parks {
			m--
			if run[m].Kind == Dummy {
				d--
			}
		}
		if m > 0 {
			n.sent(ns, i, m, m-d, d, &now)
			n.downMB[i].postRun(event{kind: evMsg, ses: ns.ses, pos: n.downPos[i]}, run[:m])
		}
		if parks {
			n.setPending(ns, i, run[m])
			n.obsStall(ns, i, &now)
		}
		clear(run)
		n.acc[i] = run[:0]
	}
}

// sent accounts for m messages leaving on out-pos i — the window, the
// session's per-edge counts (in all, and by kind: an EOS is neither) and
// telemetry — with no look at the messages themselves.
func (n *engineNode) sent(ns *nodeSession, i, m, data, dummies int, now *int64) {
	ns.inflight[i] += m
	c := &ns.ses.edges[n.out[i]]
	c.sent.Store(c.sent.Load() + int64(m))
	c.data += int64(data)
	if dummies != 0 {
		c.dummies += int64(dummies)
	}
	if n.obsOut != nil {
		n.obsUnstall(ns, i, now)
		om := n.obsOut[i]
		om.Data.Add(int64(data))
		if dummies != 0 {
			om.Dummies.Add(int64(dummies))
		}
		om.Sent.Add(int64(m))
	}
}

// obsStall opens out-pos i's blocked-send episode (first blocked flush
// wins); a no-op without an observer or when already stalled.
func (n *engineNode) obsStall(ns *nodeSession, i int, now *int64) {
	if ns.stallSince == nil || ns.stallSince[i] != 0 {
		return
	}
	if *now == 0 {
		*now = time.Now().UnixNano()
	}
	ns.stallSince[i] = *now
	n.obsOut[i].CreditStalls.Add(1)
}

// obsUnstall closes out-pos i's blocked-send episode on a successful
// (possibly partial) ship, crediting the blocked time.
func (n *engineNode) obsUnstall(ns *nodeSession, i int, now *int64) {
	if ns.stallSince == nil || ns.stallSince[i] == 0 {
		return
	}
	if *now == 0 {
		*now = time.Now().UnixNano()
	}
	n.obsOut[i].CreditStallTime.Add(*now - ns.stallSince[i])
	ns.stallSince[i] = 0
}

// room is how many more messages out-pos i's window holds; sends only
// happen between passes, so it is constant while one fires.
func (n *engineNode) room(ns *nodeSession, i int) int { return n.outCap[i] - ns.inflight[i] }

func (n *engineNode) setPending(ns *nodeSession, pos int, m Message) {
	ns.pendingMsg[pos] = m
	ns.pendingSet[pos] = true
	ns.pendingN++
}

// popHeads consumes the first k messages of in-pos i; the credit is
// accumulated and acked in one batch by flushCredits at the end of the
// advance.
func (n *engineNode) popHeads(ns *nodeSession, i, k int) {
	ns.heads[i].pop(k)
	if n.obsIn != nil {
		n.obsIn[i].Consumed.Add(int64(k))
	}
	n.creditAcc[i] += k
}

// fireRun is the node's one firing body, at every in-degree, output mask
// and batch width: a pass of up to batch firings, each aligned on the
// minimum sequence number across the heads (a queued node's next payload
// at its next sequence number is the trivial case) and each deciding its
// dummies with its own proto.Fire, whose messages — data and dummies
// interleaved, in sequence order — accumulate into one run per out-edge
// that ship sends once.  Protocol state, per-edge counts and sink order
// are those of firing per message; only the grouping in transit differs.
//
// Nothing is held back waiting for more input — a pass takes what is
// queued now — and a pass stops at the first firing that sends past an
// out-edge window, so a blocked node has consumed exactly what firing
// per message would have: batching never buffers beyond the edge
// capacities the dummy intervals were computed against.  A sink's pass
// stops where the pump's window does.  Reports whether anything was
// consumed; all-EOS heads are a pass of their own.
//
// The pass fires, then sends, in two calls rather than nested ones: a
// node goroutine's deepest stack is a send growing a mailbox, and under
// fire's frame it would outgrow the stack a goroutine starts with, on
// every node of every new engine.
func (n *engineNode) fireRun(ns *nodeSession) bool {
	fired, data, eos := n.fire(ns)
	if eos {
		for i := range ns.heads {
			n.popHeads(ns, i, 1)
		}
		n.endStream(ns)
		return true
	}
	if fired == 0 {
		return false
	}
	if n.queued {
		ns.ingestQ.pop(fired)
		ns.nextSeq += uint64(fired)
	}
	for i, c := range n.cur {
		if c > 0 {
			n.popHeads(ns, i, c)
			n.cur[i] = 0
		}
	}
	if n.obsN != nil {
		n.obsN.Firings.Add(int64(data))
	}
	if len(n.out) == 0 {
		n.sinkEmit(ns, data)
	} else {
		n.ship(ns)
	}
	return true
}

// fire takes the pass's firings and accumulates their output, consuming
// nothing yet: it returns how many firings it took (cur has them per
// in-edge) and how many carried data, or eos when every head is EOS.
// The kernel runs once per data-carrying firing, or once per stretch of
// data-only firings where it vectorizes (stretch); dummy-only firings
// never reach it.
func (n *engineNode) fire(ns *nodeSession) (fired, data int, eos bool) {
	if !n.queued {
		for i := range ns.heads {
			if ns.heads[i].len() == 0 {
				return 0, 0, false // the common empty pass, before any set-up
			}
		}
	}
	nOut := len(n.out)
	sinkRoom := n.batch
	emits := nOut == 0 && ns.ses.hasSink() // firings go to the sink pump
	if emits {
		sinkRoom = n.e.sinkWin - ns.sinkInflight
	}
pass:
	for full := false; fired < n.batch && data < sinkRoom && !full; {
		if n.spanK != nil {
			k := n.stretch(ns, fired, sinkRoom-data)
			vec := 0
			if k > 0 {
				vec = n.spanK.ProcessSpan(n.spanSeq[0], n.spanIn[:k], n.spanOut[:k])
			}
			if vec > 0 {
				if nOut > 0 {
					// Every edge emits on every element: never a dummy.
					ns.engine.FireRun(n.spanSeq[0], n.spanSeq[vec-1], n.allTrue)
				} else if emits {
					n.emSeqs = append(n.emSeqs, n.spanSeq[:vec]...)
					n.emPays = append(n.emPays, n.spanOut[:vec]...)
				}
				for i, run := range n.acc {
					for j := 0; j < vec; j++ {
						run = append(run, Message{Seq: n.spanSeq[j], Kind: Data, Payload: n.spanOut[j]})
					}
					n.acc[i] = run
					full = full || len(run) > n.room(ns, i)
				}
				if !n.queued {
					n.cur[0] += vec
				}
				fired, data = fired+vec, data+vec
				if n.obsN != nil {
					n.obsN.Spans.Add(1)
					n.obsN.SpanMsgs.Add(int64(vec))
				}
			}
			for j := 0; j < k; j++ { // not clear(): a call per tiny slice
				n.spanIn[j], n.spanOut[j] = nil, nil
			}
			if vec == k && k > 0 {
				continue
			}
			// The kernel declined element vec, or the cursor is not at a
			// data firing: this one goes through the per-firing path.
		}
		var seq uint64
		anyData := n.queued
		if n.queued {
			q := ns.ingestQ.live()
			if fired == len(q) {
				break
			}
			seq, n.kin[0] = ns.nextSeq+uint64(fired), Input{Present: true, Payload: q[fired]}
		} else {
			seq = proto.EOSSeq
			for i := range ns.heads {
				q := ns.heads[i].live()
				if n.cur[i] == len(q) {
					break pass // an input has nothing queued: no alignment yet
				}
				seq = min(seq, q[n.cur[i]].Seq)
			}
			if seq == proto.EOSSeq {
				eos = fired == 0 // else after this pass's run
				break
			}
			for i := range ns.heads {
				h := &ns.heads[i].live()[n.cur[i]]
				n.kin[i] = Input{}
				if h.Seq == seq {
					n.cur[i]++
					if h.Kind == Data {
						n.kin[i], anyData = Input{Present: true, Payload: h.Payload}, true
					}
				}
			}
		}
		if anyData {
			n.kern.ProcessInto(seq, n.kin, n.kout, n.present)
			data++
			if emits {
				n.emSeqs = append(n.emSeqs, seq)
				n.emPays = append(n.emPays, SinkPayload(n.kin, n.kout, n.present))
			}
		}
		dummy := ns.engine.Fire(seq, n.present[:nOut])
		for i, run := range n.acc {
			switch {
			case n.present[i]:
				run = append(run, Message{Seq: seq, Kind: Data, Payload: n.kout[i]})
			case dummy[i]:
				run = append(run, Message{Seq: seq, Kind: Dummy})
				n.accDummy[i]++
			default:
				continue
			}
			n.acc[i] = run
			full = full || len(run) > n.room(ns, i)
		}
		if anyData {
			clear(n.kin)
			for i := range n.kout {
				n.kout[i], n.present[i] = nil, false
			}
		}
		fired++
	}
	return fired, data, eos
}

// stretch stages, in spanIn/spanSeq, the longest run of data-only firings
// at the pass's cursor that the batch, the sink pump's window (limit) and
// the out-edge windows allow — one past the tightest window: the firing
// whose send parks — and returns its length.  Zero leaves the cursor's
// firing (a dummy, an EOS, or nothing yet) to the per-firing path.
func (n *engineNode) stretch(ns *nodeSession, fired, limit int) int {
	k := min(n.batch-fired, limit)
	for i, run := range n.acc {
		k = min(k, n.room(ns, i)-len(run)+1)
	}
	if n.queued {
		q := ns.ingestQ.live()[fired:]
		k = min(k, len(q))
		for j := 0; j < k; j++ {
			n.spanIn[j], n.spanSeq[j] = q[j], ns.nextSeq+uint64(fired+j)
		}
		return k
	}
	q := ns.heads[0].live()[n.cur[0]:]
	k = min(k, len(q))
	for j := 0; j < k; j++ {
		if q[j].Kind != Data {
			return j
		}
		n.spanIn[j], n.spanSeq[j] = q[j].Payload, q[j].Seq
	}
	return k
}

// sinkEmit counts the pass's data sink firings and copies them into the
// session's sink ring.
func (n *engineNode) sinkEmit(ns *nodeSession, data int) {
	if data == 0 {
		return
	}
	ns.ses.sinkData += int64(data)
	if n.obsS != nil {
		n.obsS.SinkMsgs.Add(int64(data))
	}
	if !ns.ses.hasSink() {
		return
	}
	// The pass stopped at the pump window's room, so the ring has room
	// for it (see EngineSession.emTail).
	ns.ses.publish(n.emSeqs, n.emPays)
	clear(n.emPays)
	n.emSeqs, n.emPays = n.emSeqs[:0], n.emPays[:0]
	ns.sinkInflight += data
}

// consumeTimed consumes one run of a time-aware node's input: up to batch
// queued heads under one clock reading.  The input's protocol alignment is
// absorbed silently — each stretch of data heads feeds the kernel in one
// Ingest call (staged in the span scratch, idle between firing passes),
// dummies are dropped, EOS flushes the kernel and ends the queue — and
// what the run matured is queued to fire in the node's private
// output-sequence space (see timed.go).  Reports whether it consumed.
func (n *engineNode) consumeTimed(ns *nodeSession) bool {
	q := ns.heads[0].live()
	if len(q) == 0 {
		return false
	}
	q = q[:min(len(q), n.batch)]
	now := n.timed.TimedClock().Now()
	k, data := 0, 0
	for k < len(q) {
		m := 0
		for ; k < len(q) && q[k].Kind == Data && q[k].Seq != proto.EOSSeq; k++ {
			n.spanIn[m], n.spanSeq[m] = q[k].Payload, q[k].Seq
			m++
		}
		if m > 0 {
			n.timed.Ingest(now, n.spanSeq[:m], n.spanIn[:m])
			clear(n.spanIn[:m])
			data += m
		}
		if k == len(q) {
			break
		}
		k++ // the head that ended the stretch: a dummy is dropped
		if q[k-1].Seq == proto.EOSSeq {
			n.stopTimer(ns)
			n.timed.Flush()
			ns.srcDone = true
			break
		}
	}
	n.popHeads(ns, 0, k)
	if n.obsN != nil {
		n.obsN.Firings.Add(int64(data))
	}
	n.queueEmissions(ns)
	return true
}

// queueEmissions moves the kernel's matured emissions to the firing
// queue: each fires at the node's next output sequence number, broadcast
// on every out-edge with the all-emitted mask — never a dummy; see
// timed.go for why re-sequencing is protocol-safe.
func (n *engineNode) queueEmissions(ns *nodeSession) {
	ems := n.timed.TakeEmissions()
	if len(ems) == 0 {
		return
	}
	ns.ingestQ.pushAll(ems)
	if m := n.e.cfg.Obs; m != nil {
		m.Time().TimedEmissions.Add(int64(len(ems)))
	}
}

// armTimer (re)arms the session's flush timer to the kernel's next
// deadline, maintaining the session's armed-timer count so the watchdog
// does not mistake a quietly open window for a deadlock.  No deadline,
// a finished session, or an undelivered tick leaves the timer stopped
// (the tick case already has its wakeup queued behind parked sends).  A
// timer still pending for the same deadline is left alone: the runs of
// one open window cost no clock read and no Reset.
func (n *engineNode) armTimer(ns *nodeSession) {
	if ns.done || ns.retired || ns.tickDue {
		n.stopTimer(ns)
		return
	}
	when, ok := n.timed.NextDeadline()
	if !ok {
		n.stopTimer(ns)
		return
	}
	if ns.timerArmed && when.Equal(ns.armedAt) {
		return
	}
	ns.armedAt = when
	clk := n.timed.TimedClock()
	d := when.Sub(clk.Now())
	if d < 0 {
		d = 0
	}
	if ns.timer == nil {
		ses := ns.ses
		ns.timer = clk.AfterFunc(d, func() {
			n.mb.post(event{kind: evTick, ses: ses})
		})
	} else {
		ns.timer.Reset(d)
	}
	if !ns.timerArmed {
		ns.timerArmed = true
		ns.ses.timersArmed.Add(1)
	}
}

// stopTimer disarms the session's flush timer and releases its
// armed-timer count.
func (n *engineNode) stopTimer(ns *nodeSession) {
	if ns.timer != nil {
		ns.timer.Stop()
	}
	if ns.timerArmed {
		ns.timerArmed = false
		ns.ses.timersArmed.Add(-1)
	}
}

// finishSink resolves the session at the sink node: immediately when the
// pump is idle, or on the final evSinkDone otherwise.
func (n *engineNode) finishSink(ns *nodeSession) {
	if ns.sinkInflight > 0 {
		ns.finishOnIdle = true
		return
	}
	n.retire(ns)
	ns.ses.finishFromSink()
}
