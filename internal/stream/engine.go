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
//     retry when the consumer's consumed count makes room (the simulator's
//     pending semantics — a firing's sends proceed independently per edge,
//     and the node consumes its next input only when all of them have
//     landed);
//   - Source.Next and Sink.Emit, which may block indefinitely, run in
//     per-session pump goroutines that meet the source and sink node loops
//     through rings windowed like a local edge's, so a quiet source or a
//     backpressuring sink stalls only its own session.
//
// Everything a session uses while it streams is one record, sessionBufs:
// its edge and rim counts and rings, and every node's state for it.  The
// engine keeps records on one free list, a node starts its state at the
// first event it takes for the session, and a per-engine watchdog reads
// the session's edge counts and in-flight Source/Sink callbacks, so a
// wedged session is reported as a DeadlockError naming that session while
// its neighbours keep streaming.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"streamdag/internal/clock"
	"streamdag/internal/cs4"
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
	// pump has it fill its ring's free segment in place, up to the room in
	// its window, in one call (two where the ring wraps).  Offer it only for
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

	mu sync.Mutex
	// sessions holds every session from Open until its done channel
	// closes (Active skips the ended ones).  Close force-resolves what is
	// left once the node loops are gone, so an end() racing Close's
	// mailbox teardown cannot strand a Wait.
	sessions map[proto.SessionID]*EngineSession
	closed   bool
	// free holds scrubbed session records for the next Open, at most
	// freeSessions (see EngineSession.unhold).
	free []*sessionBufs

	stop chan struct{}
	wg   sync.WaitGroup

	// onRetire, nil outside tests, sees each node session's protocol
	// counts as it retires, with the node's in-degree.
	onRetire func(inDegree int, c proto.Counts)
	// events, nil outside tests, counts the events the node loops take,
	// by kind.
	events *[evKinds]atomic.Int64
}

// minRing is the slot count a local edge's ring starts at, in its
// session's first send on the edge.  A ring grows by doubling only when
// the messages in flight on the edge outgrow it, so it never holds more
// than twice the deepest window the edge's sessions used, and never more
// than twice its Buf; a session of a few messages never pays for a wide
// window.  The consumer reads the slots in place, so the ring is the
// edge's only buffer.
const minRing = 8

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
	// Every node's struct, mailbox, neighbour tables and scratch are cut
	// from per-engine arrays, not allocated one by one.  The structs are
	// padded apart; the scratch, written at every firing, sits on whole
	// cache lines of its own (lineArena); the neighbour tables and allTrue
	// are only read once the loops run.
	slab := make([]engineNode, g.NumNodes())
	mbs := make([]mailbox, g.NumNodes())
	nbrs := make([]*engineNode, 2*g.NumEdges())
	inAtAndCaps := make([]int, 2*g.NumEdges())
	trues := make([]bool, g.NumEdges())
	var (
		ints  lineArena[int]
		ins   lineArena[Input]
		anys  lineArena[any]
		bools lineArena[bool]
		accs  lineArena[[]Message]
		msgs  lineArena[Message]
		seqs  lineArena[uint64]
	)
	e.nodes = make([]*engineNode, g.NumNodes())
	for i := range e.nodes {
		id := graph.NodeID(i)
		k := kernels[id]
		if k == nil {
			k = Passthrough(g.OutDegree(id))
		} else if pn, ok := k.(PerNode); ok {
			k = pn.ForNode()
		}
		mbs[i].wake = make(chan struct{}, 1)
		n := &slab[i]
		n.e, n.id = e, id
		n.in, n.out = g.In(id), g.Out(id)
		n.mb = &mbs[i]
		n.upNode, n.downNode = carve(&nbrs, len(n.in)), carve(&nbrs, len(n.out))
		n.inAt = carve(&inAtAndCaps, len(n.in))
		n.outCap = carve(&inAtAndCaps, len(n.out))
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
		n.cur = ints.take(len(n.in))
		// Sources receive one synthetic input; a node without out-edges
		// keeps one output slot, the SinkPayload hook.
		n.kin = ins.take(max(len(n.in), 1))
		n.kout = anys.take(max(len(n.out), 1))
		n.present = bools.take(max(len(n.out), 1))
		n.acc = accs.take(len(n.out))
		for i := range n.acc {
			// A line to start; append's doublings keep whole lines.
			n.acc[i] = msgs.take(1)[:0]
		}
		n.accDummy = ints.take(len(n.out))
		n.allTrue = carve(&trues, len(n.out))
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
			// A line, widened to a pass once a stretch needs more
			// (widenSpan); a time-aware node stages up to a pass per clock
			// reading (consumeTimed) from its first run.
			w := 1
			if n.timed != nil {
				w = passWidth
			}
			n.spanIn, n.spanOut, n.spanSeq = anys.take(w), anys.take(w), seqs.take(w)
		}
		e.nodes[i] = n
	}
	// Wire the neighbour tables.  A local edge is a ring per session
	// between its two nodes (upNode, downNode).  A cross edge has no
	// neighbour node: its runs and credits go to its carriers and come back
	// through Deliver and Credit (Engine.cross), into a receive side placed
	// after the graph's edges in a session's record.
	if len(cfg.Cross) > 0 {
		e.cross = make([]crossEnds, g.NumEdges())
		recv := g.NumEdges()
		for edge := range e.cross {
			if c, ok := cfg.Cross[graph.EdgeID(edge)]; ok {
				ed := g.Edge(graph.EdgeID(edge))
				e.cross[edge] = crossEnds{CrossEdge: c, from: e.nodes[ed.From], to: e.nodes[ed.To], recv: recv}
				recv++
			}
		}
	}
	for _, n := range e.nodes {
		for i, edge := range n.in {
			if _, ok := cfg.Cross[edge]; !ok {
				n.upNode[i] = e.nodes[g.Edge(edge).From]
			}
			n.inAt[i] = e.inSlot(edge)
		}
		for i, edge := range n.out {
			if _, ok := cfg.Cross[edge]; !ok {
				n.downNode[i] = e.nodes[g.Edge(edge).To]
			}
			n.outCap[i] = g.Edge(edge).Buf
		}
	}
	e.source = e.nodes[g.Source()]
	e.sink = e.nodes[g.Sink()]
	for _, n := range e.nodes {
		e.wg.Add(1)
		go n.start()
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.watchdog()
	}()
	return e, nil
}

// start is a node goroutine's body.
func (n *engineNode) start() {
	defer n.e.wg.Done()
	growStack()
	n.run()
}

// nodeStack is the frame a node goroutine takes before its loop.  It
// grows a 2 KB starting stack to 4 KB, the smallest stack in which a
// first firing on each of the benchmark harness's six workloads grew it no
// further (measured with adaptive start sizes off); a start size the
// runtime has already raised to 4 KB is not grown at all.
const nodeStack = 2 << 10

// growStack takes a nodeStack-byte frame, so that the runtime grows the
// goroutine's stack while its only other frame is the start closure's,
// instead of copying a deep advance → fire → kernel stack during the
// node's first firing.  The stack keeps its size until a garbage
// collection finds it mostly idle.
//
//go:noinline
func growStack() {
	var frame [nodeStack]byte
	keepFrame(&frame)
}

// keepFrame is an opaque use of growStack's frame, so the compiler keeps
// it.
//
//go:noinline
func keepFrame(*[nodeStack]byte) {}

// lineSlice returns n zero Ts in an array that fills whole cache lines.
// A node's scratch is written at every firing, by that node's goroutine
// alone; made at NewEngine or at a session's open one node after another,
// small arrays of different nodes would sit side by side in one line and
// every firing of one would evict the line from the other's core.  An
// array whose size is a multiple of 64 bytes is allocated from a size
// class of such multiples, so it starts on a line boundary too (or, past
// 512 bytes of pointerful elements, 8 bytes after one, behind the
// allocator's type header).
func lineSlice[T any](n int) []T {
	size := int(reflect.TypeFor[T]().Size())
	per := 64 / gcd(size, 64)
	return make([]T, n, (n+per-1)/per*per)
}

// lineChunk is the length in bytes of the arrays a lineArena cuts node
// scratch from: a size class of its own, which the allocator starts on a
// cache line and, pointers or not, puts no header in front of.
const lineChunk = 512

// lineArena hands out arrays like lineSlice's, whole lines from a line
// boundary, but cut one after another from shared chunks, so that
// NewEngine makes one allocation per chunk rather than one per array.
// Each array is capped at its last line: an append past it moves the
// array, never into its neighbour.  An array longer than a chunk is
// lineSlice's.
type lineArena[T any] struct{ free []T }

func (a *lineArena[T]) take(n int) []T {
	size := int(reflect.TypeFor[T]().Size())
	per := 64 / gcd(size, 64)
	c := (n + per - 1) / per * per
	if c > len(a.free) {
		chunk := lineChunk / (per * size) * per
		if c > chunk {
			return lineSlice[T](n)
		}
		a.free = make([]T, chunk)
	}
	s := a.free[:n:c]
	a.free = a.free[c:]
	return s
}

// carve returns the first k elements of *s, capped, and moves *s past them.
func carve[T any](s *[]T, k int) []T {
	w := (*s)[:k:k]
	*s = (*s)[k:]
	return w
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
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
		done:         make(chan struct{}),
		start:        time.Now(),
		onDone:       cfg.OnDone,
		lastProgress: -1,
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
	// watchdog reads the counts of every registered session.  No node is
	// told of the session; each starts its state at its first event.
	e.takeBufs(ses)
	e.sessions[ses.id] = ses
	e.mu.Unlock()
	if m := e.cfg.Obs; m != nil {
		sm := m.Sessions()
		sm.Opened.Add(1)
		sm.Active.Add(1)
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

// takeBufs gives ses its record: a scrubbed one from the free list, or a
// fresh one when it is empty; ses takes the record's next generation.  The
// sink ring is made the first time a session with a sink needs it and
// kept after.  Caller holds e.mu.
func (e *Engine) takeBufs(ses *EngineSession) {
	var b *sessionBufs
	if k := len(e.free) - 1; k >= 0 {
		b, e.free[k] = e.free[k], nil
		e.free = e.free[:k]
	} else {
		// The ingest ring holds its window; the pump fills it in place.
		// Edge rings are made at their first send.
		b = &sessionBufs{
			states:  make([]nodeSession, len(e.nodes)),
			edges:   make([]edgeCounts, e.g.NumEdges()+len(e.cfg.Cross)),
			kicks:   make([]kickFlag, len(e.nodes)),
			ingest:  new(edgeCounts),
			emit:    new(edgeCounts),
			srcWake: make(chan struct{}, 1),
			ring:    make([]any, rimWindow),
		}
		// The node states' arrays are cut from the record's own chunks,
		// each on lines of its own, as NewEngine cuts the node scratch.
		var (
			msgs   lineArena[Message]
			bools  lineArena[bool]
			ints   lineArena[int]
			stalls lineArena[int64]
		)
		for i, n := range e.nodes {
			ns := &b.states[i]
			ns.engine = proto.NewEngine(n.out, proto.Config{Algorithm: e.cfg.Algorithm, Intervals: e.cfg.Intervals})
			ns.pendingMsg = msgs.take(len(n.out))
			ns.pendingSet = bools.take(len(n.out))
			ns.inflight = ints.take(len(n.out))
			if n.obsN != nil {
				ns.stallSince = stalls.take(len(n.out))
			}
		}
	}
	if ses.hasSink() && b.emPay == nil {
		b.emSeq = make([]uint64, rimWindow)
		b.emPay = make([]any, len(b.emSeq))
		b.sinkWake = make(chan struct{}, 1)
	}
	b.gen++
	ses.sessionBufs, ses.gen = b, b.gen
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
// edge counts (progress) did not move across a full period, with no
// in-flight Source/Sink callback and no armed timer, is wedged, and fails
// with a DeadlockError naming it.  Sessions blocked in
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
				cur := ses.progress()
				if !busy && cur == ses.lastProgress && ses.external.Load() == 0 && ses.timersArmed.Load() == 0 {
					// The session's edge atomics: racy but indicative, and
					// safe from this goroutine (the node-owned inflight
					// counters are never touched here).
					chans, stalled := Wedge(e.g, func(id graph.EdgeID) int64 { return ses.edges[id].occupancy() })
					ses.end(&DeadlockError{Session: ses.id, Channels: chans, Stalled: stalled}, nil)
					continue
				}
				ses.lastProgress = cur
			}
		}
	}
}

// passWidth is how many firings a node's pass may take: it ships them as
// one run per out-edge, one publish and one kick, rather than one per
// message, and hands each stretch of data-only firings to a SpanKernel in
// one call.  The pass still stops at the first firing that sends past an
// out-edge window, so its width adds no buffering the dummy intervals were
// not computed against; a pass bounded by the windows alone cost chains
// CPU (ROADMAP item 2(b)).
const passWidth = 64

// rimWindow is both rims' window: on the ingest rim, how many payloads
// the pump may have published that the source node has not yet fired; on
// the sink rim, how many emissions the sink node may have published that
// its pump has not yet delivered — each measured as a local edge's is, the
// ring's tail (sent) minus the consumer's count.  Two passes, so a span
// source or sink fills or drains one pass's worth while the rim node
// fires the other, and never starves its own runs; a power of two, so the
// rings index by mask.  The rims lie outside the paper's graph, so no
// dummy interval depends on their windows.  The window still bounds how
// far a session's source runs ahead, and how far a session runs ahead of
// a slow Sink.  Order is unaffected (FIFO rings, single pumps) and so is
// the error contract: the sink pump stops at the first Emit error, so
// queued emissions behind it are never delivered.
const rimWindow = 2 * passWidth

// EngineSession is one logical stream being served by an Engine.
//
// Its fields fall in three groups, padded apart: what every node loop
// reads on every message and nobody writes once the session streams, what
// the pumps write at every callback, and the cold rest.  A read-mostly
// field on a line the pumps write would miss in every node's cache at
// every message.
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
	// long as the session holds them (see unhold), and the record's
	// generation they were taken at.  Both are set before the session is
	// registered and never change.
	*sessionBufs
	gen   uint64
	ended atomic.Bool // set once, by end

	_ [64]byte

	// external counts in-flight Source/Sink callbacks (blocked user code
	// is not a wedge).
	external atomic.Int64

	_ [64]byte

	// holds counts who still uses the buffers (see unhold).
	holds atomic.Int32
	// timersArmed counts the session's armed time-aware flush timers; the
	// watchdog treats an armed timer like in-flight external work (a
	// session quietly idle inside an open window is the clock's pace, not
	// a wedge).
	timersArmed atomic.Int64
	// lastProgress belongs to the engine watchdog goroutine: the session's
	// progress at the last scan, -1 before the first (progress is never
	// negative).
	lastProgress int64
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
// use while it streams and that no one reads once it is over: the one
// record of a session's bookkeeping.  The engine keeps scrubbed records on
// its free list, so a short session rebuilds none of them.
type sessionBufs struct {
	// states[n] is node n's state for the session, built with the record
	// and touched by node n's goroutine alone (see nodeSession).  gen
	// counts the sessions that took the record (takeBufs).
	states []nodeSession
	gen    uint64
	// edges[e] is edge e's counts, each half written by one end; past the
	// graph's edges come the cross edges' receive sides (see cross.go).
	edges []edgeCounts
	// kicks[n] is raised while an evKick for the session is queued at node
	// n (see EngineSession.kick).
	kicks []kickFlag

	// The rims: ingest's producer is the ingest pump and its consumer the
	// source node, emit's producer the sink node and its consumer the sink
	// pump.  Each is an edge's counts, on lines of its own.
	ingest, emit *edgeCounts

	// ring is the ingest ring, which the pump fills in place, and srcWake
	// the pump's wake channel (see await).
	ring    []any
	srcWake chan struct{}

	// emSeq/emPay are the sink ring, one slot per emission in parallel
	// arrays, and sinkWake the sink pump's wake channel; all are made for
	// the first session with a sink.
	emSeq    []uint64
	emPay    []any
	sinkWake chan struct{}
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
// closes on the last node's ack (run); a finished session has retired
// at every node on its own, and done closes on the last checkout.  Either
// way observers of Wait/Done see a fully detached session.
//
// The pumps wait on their own channels, not on the context: its done
// channel is then made only if user code asks for it.  The wakes follow
// the ended store (see await).
func (s *EngineSession) end(err error, stats *Stats) {
	s.endOnce.Do(func() {
		s.ended.Store(true)
		s.err = err
		s.stats = stats
		s.wakePump(s.ingest)
		s.wakePump(s.emit)
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
	edges := s.e.g.NumEdges()
	stats := &Stats{
		Data:     make(map[graph.EdgeID]int64, edges),
		Dummies:  make(map[graph.EdgeID]int64, edges),
		SinkData: s.emit.data,
		Elapsed:  time.Since(s.start),
	}
	for i := range edges {
		stats.Data[graph.EdgeID(i)] = s.edges[i].data
		stats.Dummies[graph.EdgeID(i)] = s.edges[i].dummies
	}
	s.end(nil, stats)
}

// ingestPump pulls the session's payloads into the ingest rim while its
// window has room, so a session's source runs ahead a bounded window and
// a slow consumer applies backpressure to its own source only.  Each fill
// is published before the next is asked for — a request/response
// feedback source, filled one payload per call, never sees the engine
// hold one payload while demanding another — but a fill writes the ring's
// free slots in place and the publish is one tail store, and the kick
// coalesces: under load the source node drains whole runs of payloads per
// event, and a SpanSource fills the window's room in one call, or two
// where the ring wraps.  A full window parks the pump until the source
// node's count moves.
func (s *EngineSession) ingestPump(src *engineNode) {
	defer s.unhold()
	c, win := s.ingest, int64(rimWindow)
	// One external-callback window covers each run of fills the window
	// has room for: the watchdog only needs to know that user code may be
	// blocking, not how many calls deep the run is.
	s.external.Add(1)
	defer s.external.Add(-1)
	for t, m := int64(0), int64(0); !s.ended.Load(); {
		if m == 0 {
			// The room is re-read only once the last reading is used up,
			// as the source node's count moves on every firing.
			if m = win - c.occupancy(); m == 0 {
				s.external.Add(-1)
				s.await(c)
				s.external.Add(1)
				continue
			}
		}
		// The free segment: from the tail up to the room or the ring's
		// end.  The window is no wider than the ring, so no slot in it
		// holds a payload the source node has yet to fire.
		j := int(t) & (len(s.ring) - 1)
		buf := s.ring[j : j+int(min(m, int64(len(s.ring)-j)))]
		n, eof, err := s.fill(buf)
		if err != nil {
			s.callbackFailed("source", err)
			return
		}
		if n < 0 || n > len(buf) {
			s.end(fmt.Errorf("stream: span source filled %d of a %d-payload buffer", n, len(buf)), nil)
			return
		}
		t, m = t+int64(n), m-int64(n)
		eof = eof || n == 0 // an empty error-free fill ends the stream
		s.feed(src, t, eof)
		if eof {
			return
		}
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

// sinkPump delivers the session's emissions in order, draining the sink
// rim eagerly: each delivery covers everything published when it began,
// and stores the pump's count after it, so a fast sink costs one store per
// run of emissions and kicks the sink node only if it stalled on the full
// window.  The pump stops at the first Emit error, or once the session has
// ended; emissions still queued are never delivered.
func (s *EngineSession) sinkPump(sink *engineNode) {
	defer s.unhold()
	c := s.emit
	for h := int64(0); !s.ended.Load(); {
		t := h + c.occupancy() // h is the pump's own consumed count
		if h == t {
			s.await(c)
			continue
		}
		if err := s.deliver(h, t); err != nil {
			s.callbackFailed("sink", err)
			return
		}
		if c.consume(t) {
			s.kick(sink)
			if sink.obsS != nil {
				sink.obsS.SinkWakes.Add(1)
			}
		}
		h = t
	}
}

// deliver hands the ring's slots [h, t) to the sink under one
// external-callback window — one EmitSpan, or two where the ring wraps,
// or Emit per element — and clears them.
func (s *EngineSession) deliver(h, t int64) (err error) {
	s.external.Add(1)
	for h != t && err == nil {
		i := int(h & int64(len(s.emPay)-1))
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
		h += int64(j - i)
	}
	s.external.Add(-1)
	return err
}

// ---------------------------------------------------------------------
// Node event loops.

type evKind uint8

const (
	evKick evKind = iota // coalesced kick: drain the rings that feed this node for the session
	evTick               // a time-aware node's flush timer fired for the session
	evAbort
	evKinds
)

// event is one unit of work for a node loop, 16 bytes.  Carrying the
// session pointer (not just the id) lets late events for an ended session
// be dropped without a registry lookup.  Messages never ride in events:
// they cross in rings, which a kick tells the node to drain.
type event struct {
	kind evKind
	ses  *EngineSession
}

// mailbox is the unbounded MPSC queue feeding one node loop.  Posts
// never block, which is what keeps the node loops deadlock-free among
// themselves: all flow control lives in the per-session edge windows,
// and kicks coalesce.  The consumer drains whole batches (takeAll), so
// the lock is taken once per batch, not once per event, and two batches
// ping-pong: memory is bounded by the largest backlog, not by total
// traffic.  A consumer that finds the queue empty raises parked and waits
// on wake; the post (or close) that lowers the flag owes it the one token.
type mailbox struct {
	_      [64]byte // apart from its neighbours in memory (see lineSlice)
	mu     sync.Mutex
	q      []event
	parked bool
	closed bool
	wake   chan struct{}
	// taken counts the batches handed out, for the watchdog's busy check.
	taken uint64
	_     [64]byte
}

func (m *mailbox) post(ev event) {
	m.mu.Lock()
	if !m.closed {
		m.q = append(m.q, ev)
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
// to the caller and installing spare (emptied by its owner) as the new
// queue.  It returns ok=false when the mailbox is closed and drained.
func (m *mailbox) takeAll(spare []event) ([]event, bool) {
	m.mu.Lock()
	for len(m.q) == 0 && !m.closed {
		m.parked = true
		m.mu.Unlock()
		<-m.wake
		m.mu.Lock()
	}
	b := m.q
	m.q = spare
	m.taken++
	m.mu.Unlock()
	return b, len(b) > 0
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
	_   [64]byte // apart from its neighbours in memory (see lineSlice)
	e   *Engine
	id  graph.NodeID
	in  []graph.EdgeID
	out []graph.EdgeID
	mb  *mailbox

	// upNode[i] and downNode[i] are the nodes at the far ends of in-edge
	// i and out-edge i, nil for a cross edge; inAt[i] is in-edge i's index
	// in a session's edges (a cross edge's receive side), and outCap[i] is
	// out-edge i's window.
	upNode   []*engineNode
	downNode []*engineNode
	inAt     []int
	outCap   []int

	// kern is the kernel's SliceForm, resolved once at NewEngine.  spanK
	// is non-nil when the node has at most one in-edge and the kernel
	// vectorizes (SpanKernel).
	kern  SliceKernel
	spanK SpanKernel
	// timed is non-nil when the kernel is time-aware (TimedKernel); the
	// node then consumes its input silently and fires only for the
	// kernel's own emissions, re-sequenced (see timed.go).  queued marks
	// the nodes whose firings come from ns.q at ns.nextSeq rather than
	// from aligned heads: the source and the time-aware nodes.
	timed  TimedKernel
	queued bool

	// The lists and the scratch below are owned by the node goroutine;
	// the scratch is reused by every firing of every session.  retiring
	// and acks hold the batch's retired states and aborted sessions until
	// its advance loop is over (see run).
	dirty    []*nodeSession
	retiring []*nodeSession
	acks     []*EngineSession
	cur      []int // per in-pos heads taken by the pass in progress
	// kin, kout and present are a firing's kernel arguments; spanIn,
	// spanOut and spanSeq a stretch's, a line long until a pass may need
	// more and then passWidth long (widenSpan).
	kin             []Input
	kout            []any
	present         []bool
	spanIn, spanOut []any
	spanSeq         []uint64
	// acc[i] accumulates the pass's run for out-pos i and accDummy[i]
	// counts the dummies in it; ship copies the run out and empties it.
	acc      [][]Message
	accDummy []int
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
	_       [64]byte
}

// obsSampleRate is the ServiceTime sampling stride: one advance pass in
// this many is wall-clocked and the duration scaled by the stride.  A
// power of two keeps the tick test a mask.
const obsSampleRate = 8

// nodeSession is one node's protocol state for one session, part of the
// session's record (sessionBufs.states) and recycled with it, so a short
// session does not rebuild its slices and its proto.Engine at every node.
// Only its node touches it.  The node starts it at its first event for a
// session (gen, the record's generation, is then the session's), and
// retires and then releases it when the session is over here: a late
// event of the session — a spare kick, a tick — finds its generation
// retired or released (no session) and is dropped.  A later session's
// first event finds an older generation.
type nodeSession struct {
	_   [64]byte // apart from its neighbours in memory (see lineSlice)
	ses *EngineSession
	gen uint64
	// engine is this session's dummy-protocol state at this node.
	engine *proto.Engine
	// pendingMsg[i]/pendingSet[i] park the one message a pass may produce
	// beyond out-pos i's window — its last firing's, or an EOS — until the
	// window has room; pendingN counts set slots.  A node fires only
	// with no pending sends.
	pendingMsg []Message
	pendingSet []bool
	pendingN   int
	// inflight[i] counts out-pos i's messages sent and not yet consumed,
	// as of the last reload (so never too few); the window is full at
	// outCap[i].
	inflight []int
	// stallSince[i] is the wall-clock ns at which out-pos i's current
	// blocked-send episode began (0 = not stalled); allocated only with
	// an observer attached, owned by the node goroutine.
	stallSince []int64

	// The firing queue of a queued node: a segment of the ingest ring at
	// the source (ingestSegment), the slice TakeEmissions handed over at a
	// time-aware node; each slot is cleared as it fires.  nextSeq is the
	// sequence number the queue's head fires at — at the source, also the
	// ingest rim's consumed count — and srcDone says nothing more will be
	// queued, so EOS follows the last firing.
	nextSeq uint64
	q       []any
	srcDone bool
	done    bool
	retired bool // over at this node; skip advances (see retire)
	dirty   bool // queued in the node's per-batch advance list

	// Time-aware node state (n.timed != nil only).  tickDue records an
	// absorbed but not-yet-delivered flush-timer wakeup; timer is the
	// session's one flush timer (allocated once, Reset thereafter),
	// timerArmed its contribution to ses.timersArmed and armedAt the
	// deadline it is pending for (zero once its tick is delivered).
	tickDue    bool
	timer      clock.Timer
	timerArmed bool
	armedAt    time.Time
	_          [64]byte
}

func (n *engineNode) run() {
	var spare []event
	for {
		b, ok := n.mb.takeAll(spare)
		if !ok {
			return
		}
		// Two-phase batch: absorb every event's state change first, then
		// advance each touched session once — so a batch of arrivals
		// costs one fire loop and one consumed-count store per session,
		// not one per event.  Retired states are released and check out,
		// and aborts are acked, only after the advance loop: the last
		// checkout or ack resolves the session and lists its record for
		// the next one, so this node must be through with its state in it
		// by then, n.dirty and n.retiring included.
		if k := n.e.events; k != nil {
			for i := range b {
				k[b[i].kind].Add(1)
			}
		}
		for i := range b {
			n.absorb(&b[i])
		}
		clear(b) // release references before reuse
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
		for i, ses := range n.acks {
			if ses.abortAcks.Add(1) == int64(len(n.e.nodes)) {
				n.obsDrainSession(ses)
				ses.closeDone()
			}
			n.acks[i] = nil
		}
		n.acks = n.acks[:0]
		spare = b[:0]
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
	for e := range n.e.g.NumEdges() {
		if r := ses.residue(e, n.e.inSlot(graph.EdgeID(e))); r != 0 {
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

// freeSessions caps the engine's free list of session records (takeBufs,
// unhold).  The list only has to cover the sessions that end between two
// opens (the harness's session_churn keeps four in flight), and what one
// record keeps is bounded: per node, its state — about 0.5 KB of struct,
// proto.Engine and per-out-edge slices — and a kick line; per edge, two
// lines of counts and a ring (32-byte slots, at most twice the deepest
// window its sessions used; see minRing), which its consumer reads in
// place; the ingest ring (a rimWindow of 16-byte payload slots, filled in
// place) and the sink ring (a rimWindow of 24-byte seq and payload slots),
// 5 KB at 128 slots.  A five-node chain of Buf 64 thus keeps at most
// 16 × (5 × 0.5 + 4 × 4 + 5) KB ≈ 0.4 MB.
const freeSessions = 16

// retire is the one exit of a node session: the session was aborted, or
// it is over at this node (EOS sent, or the sink finished).  It marks the
// state retired at once, which drops the session's later events here, and
// queues it for release and checkout after the batch's advance loop
// (n.dirty may still hold it).  Retiring twice is a no-op, so a state
// checks out once.
func (n *engineNode) retire(ns *nodeSession) {
	if ns.retired {
		return
	}
	ns.retired = true
	if n.timed != nil {
		n.stopTimer(ns)
	}
	n.retiring = append(n.retiring, ns)
	if f := n.e.onRetire; f != nil {
		f(len(n.in), ns.engine.Counts())
	}
}

// release resets a retired state for the record's next session: arrays
// emptied (no payload outlives its session here, even while the record
// waits for a pump), and the scalars, the firing queue, the session
// pointer and the flush timer — stopped at retire, its closure bound to
// the old session — dropped by rebuilding the struct around its arrays and
// the generation.  It is not inlined: its struct literal would widen the
// frame of run, which sits at the bottom of every node goroutine's stack.
//
//go:noinline
func (n *engineNode) release(ns *nodeSession) {
	ns.engine.Reset()
	clear(ns.pendingMsg)
	clear(ns.pendingSet)
	clear(ns.inflight)
	clear(ns.stallSince)
	*ns = nodeSession{
		gen: ns.gen, engine: ns.engine,
		pendingMsg: ns.pendingMsg, pendingSet: ns.pendingSet,
		inflight: ns.inflight, stallSince: ns.stallSince,
	}
}

// absorb applies one event's state change and marks the session for the
// batch's advance pass.
func (n *engineNode) absorb(ev *event) {
	ns := &ev.ses.states[n.id]
	if ev.kind == evAbort {
		if ns.ses == ev.ses {
			n.retire(ns)
		}
		n.acks = append(n.acks, ev.ses)
		return
	}
	// Events of an ended session are dead: dropping them stops kernel
	// invocations for the old stream as soon as end() runs, before the
	// state is read — after done, the record may serve the next session.
	if ev.ses.ended.Load() {
		return
	}
	if ns.gen != ev.ses.gen {
		ns.ses, ns.gen = ev.ses, ev.ses.gen // the session's first event here
	} else if ns.retired || ns.ses == nil {
		return // retired or released here: a late event
	}
	switch ev.kind {
	case evKick:
		n.drain(ns)
	case evTick:
		ns.tickDue = true
	}
	n.markDirty(ns)
}

// advance drives the session's state machine at this node as far as it
// can go without blocking: flush parked sends, fire while inputs align
// and sends land, store the consumed counts, and reclaim drained state.
func (n *engineNode) advance(ns *nodeSession) {
	if ns.retired {
		return
	}
	for i := range n.out {
		// Where a stale count could stop the first pass short.
		if n.room(ns, i) <= passWidth {
			n.reload(ns, i)
		}
	}
	for {
		n.flush(ns)
		if n.queued {
			n.advanceQueued(ns)
		} else {
			for !ns.done && ns.pendingN == 0 && n.fireRun(ns) {
			}
		}
		if !n.park(ns) {
			break
		}
	}
	n.flushCredits(ns)
	if n.timed != nil {
		n.armTimer(ns)
	}
	// Reclaim drained state.  A sink's goes once its pump has delivered
	// every emission (park waits for that), and completes the session.
	if ns.done && ns.pendingN == 0 {
		if len(n.out) > 0 {
			n.retire(ns)
		} else if ns.ses.emit.occupancy() == 0 {
			n.retire(ns)
			ns.ses.finishFromSink()
		}
	}
}

// advanceQueued is the advance body of a queued node: fire the queue
// while sends land, and end the stream once nothing more will be queued
// and the queue has drained.  The source's queue is the next segment of
// what its pump published, which runs ahead up to the ingest window; a
// time-aware node refills its own, by delivering a due flush-timer tick
// and consuming inputs, but only with the queue empty and nothing parked —
// a tick that finds sends parked is deferred (the kick that drains them
// re-runs the advance) and the timer stays disarmed meanwhile, so a
// genuinely wedged downstream still trips the watchdog instead of being
// masked by an immediately-due timer respinning forever.
func (n *engineNode) advanceQueued(ns *nodeSession) {
loop:
	for !ns.done && ns.pendingN == 0 {
		switch {
		case len(ns.q) > 0:
			if !n.fireRun(ns) {
				break loop // degenerate source-sink: pump window full
			}
		case n.timed == nil && ns.ingestSegment():
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
}

// endStream finishes the session at this node after its last firing: EOS
// on every out-edge (advance completes the session at the sink).
func (n *engineNode) endStream(ns *nodeSession) {
	ns.done = true
	for i := range n.out {
		n.setPending(ns, i, Message{Seq: proto.EOSSeq, Kind: EOS})
	}
	n.flush(ns)
}

// reload recounts out-pos i's in-flight messages from its consumer's
// consumed count (a cross edge's as its last credit stored it); the count
// kept between reloads only grows, so a stale one errs on the full side.
func (n *engineNode) reload(ns *nodeSession, i int) {
	ns.inflight[i] = int(ns.ses.edges[n.out[i]].occupancy())
}

// park stalls (see stall) on every out-edge where a send is parked,
// and at a sink on the sink rim while the node waits on its pump: for room
// in the window when its firing stopped with input it could take (only a
// full window stops it then; see fire), or, with EOS consumed, for the
// ring to drain (advance re-reads the count before it completes the
// session, so that check may race the pump).  Reports whether a window
// had room after all.
func (n *engineNode) park(ns *nodeSession) (room bool) {
	if len(n.out) == 0 {
		c := ns.ses.emit
		if ns.done {
			return c.occupancy() > 0 && c.stall(1)
		}
		return n.aligned(ns) && c.stall(rimWindow)
	}
	if ns.pendingN == 0 {
		return false
	}
	for i, set := range ns.pendingSet {
		if set && ns.ses.edges[n.out[i]].stall(int64(n.outCap[i])) {
			n.reload(ns, i)
			room = true
		}
	}
	return room
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
		n.send(ns, i, ns.pendingMsg[i:i+1], data, dummies, &now)
		ns.pendingSet[i] = false
		ns.pendingMsg[i] = Message{}
		ns.pendingN--
	}
}

// ship sends each out-edge the run the pass accumulated for it, whole:
// one window update, one count update and one publish per edge, whatever
// the run's length and mix.  A run one longer than the window held at
// pass start ends in the firing that stopped the pass; that message
// parks, exactly as a per-message firing's blocked send would — unless a
// reload of the edge's count finds the room after all.
func (n *engineNode) ship(ns *nodeSession) {
	var now int64
	for i, run := range n.acc {
		m, d := len(run), n.accDummy[i]
		if m == 0 {
			continue
		}
		n.accDummy[i] = 0
		if m > n.room(ns, i) {
			n.reload(ns, i)
		}
		parks := m > n.room(ns, i)
		if parks {
			m--
			if run[m].Kind == Dummy {
				d--
			}
		}
		if m > 0 {
			n.send(ns, i, run[:m], m-d, d, &now)
		}
		if parks {
			n.setPending(ns, i, run[m])
			n.obsStall(ns, i, &now)
		}
		clear(run)
		n.acc[i] = run[:0]
	}
}

// send puts run on out-pos i and accounts for it — the window, the
// session's per-edge counts (in all, and by kind: an EOS is neither) and
// telemetry — with no look at the messages themselves, then publishes it
// (put); a cross edge's run then goes to its Msgs carrier.
func (n *engineNode) send(ns *nodeSession, i int, run []Message, data, dummies int, now *int64) {
	m, live := len(run), ns.inflight[i]
	c := &ns.ses.edges[n.out[i]]
	ns.inflight[i] += m
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
	ns.ses.put(c, live, run, n.downNode[i])
	if n.downNode[i] == nil {
		if err := n.e.cross[n.out[i]].Msgs.Run(ns.ses.id, n.out[i], run); err != nil {
			ns.ses.end(err, nil)
		}
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

// inEdge is in-pos i's counts in the session: the consumer's view of its
// ring.
func (n *engineNode) inEdge(ns *nodeSession, i int) *edgeCounts {
	return &ns.ses.edges[n.inAt[i]]
}

// popHeads takes the first k messages of in-pos i; flushCredits stores
// the head as the consumed count at the end of the advance.
func (n *engineNode) popHeads(ns *nodeSession, i, k int) {
	n.inEdge(ns, i).head += int64(k)
	if n.obsIn != nil {
		n.obsIn[i].Consumed.Add(int64(k))
	}
}

// fireRun is the node's one firing body, at every in-degree and output
// mask: a pass of up to passWidth firings, each aligned on the
// minimum sequence number across the heads (a queued node's next payload
// at its next sequence number is the trivial case) and each deciding its
// dummies with its own proto.Fire (or its share of a FireRun or a
// FireDummyRun, which equal those calls), whose messages — data and dummies
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
		for i := range n.in {
			n.popHeads(ns, i, 1)
		}
		n.endStream(ns)
		return true
	}
	if fired == 0 {
		return false
	}
	if n.queued {
		clear(ns.q[:fired])
		ns.q = ns.q[fired:]
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
// The kernel runs once per data-carrying firing, or, where it vectorizes,
// once per stretch of data-only firings (stretch), which is one FireRun
// and one copy onto every out-edge's run; dummy-only firings never reach
// it, and a stretch of them (dummyStretch) skips alignment too: under the
// cascade it is one proto.FireDummyRun and one copy of its dummies onto
// every out-edge's run.
func (n *engineNode) fire(ns *nodeSession) (fired, data int, eos bool) {
	if !n.aligned(ns) {
		return 0, 0, false // the common empty pass, before any set-up
	}
	if len(n.spanIn) < passWidth && n.spanK != nil {
		n.widenSpan(ns)
	}
	nOut := len(n.out)
	sinkRoom := passWidth
	emits := nOut == 0 && ns.ses.hasSink() // firings go to the sink pump
	if emits {
		sinkRoom = rimWindow - int(ns.ses.emit.occupancy())
	}
pass:
	for full := false; fired < passWidth && data < sinkRoom && !full; {
		if n.spanK != nil {
			// The kernel takes the stretch in one call; a decline ends it.
			k := n.stretch(ns, fired, sinkRoom-data)
			vec := 0
			if k > 0 {
				vec = n.spanK.ProcessSpan(n.spanSeq[0], n.spanIn[:k], n.spanOut[:k])
				if n.obsN != nil {
					n.obsN.Spans.Add(1)
				}
			}
			if vec > 0 {
				if nOut > 0 {
					// Every edge emits on every element: never a dummy.
					ns.engine.FireRun(n.spanSeq[0], n.spanSeq[vec-1], n.allTrue)
				} else if emits {
					for j := 0; j < vec; j++ {
						ns.ses.emitAt(data+j, n.spanSeq[j], n.spanOut[j])
					}
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
					n.obsN.SpanMsgs.Add(int64(vec))
				}
			}
			clear(n.spanIn[:k])
			clear(n.spanOut[:k])
			if vec == k && k > 0 {
				continue
			}
			// The kernel declined element vec, or the cursor is not at a
			// data firing: this one goes through the per-firing path.
		}
		if k, stop := n.dummyStretch(ns, fired); k > 0 {
			fired, full = fired+k, stop
			continue
		}
		var seq uint64
		anyData := n.queued
		if n.queued {
			if fired == len(ns.q) {
				break
			}
			seq, n.kin[0] = ns.nextSeq+uint64(fired), Input{Present: true, Payload: ns.q[fired]}
		} else {
			seq = proto.EOSSeq
			for i := range n.in {
				c := n.inEdge(ns, i)
				if n.cur[i] == c.queued() {
					break pass // an input has nothing queued: no alignment yet
				}
				seq = min(seq, c.at(n.cur[i]).Seq)
			}
			if seq == proto.EOSSeq {
				eos = fired == 0 // else after this pass's run
				break
			}
			for i := range n.in {
				h := n.inEdge(ns, i).at(n.cur[i])
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
			if emits {
				ns.ses.emitAt(data, seq, SinkPayload(n.kin, n.kout, n.present))
			}
			data++
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

// aligned reports whether the node holds input for a firing: a message
// on every in-edge, or a queued node's next payload.  A firing then takes
// at least one unless the sink window is full.
func (n *engineNode) aligned(ns *nodeSession) bool {
	if n.queued {
		return len(ns.q) > 0
	}
	for i := range n.in {
		if n.inEdge(ns, i).queued() == 0 {
			return false
		}
	}
	return true
}

// stretch stages, in spanIn/spanSeq, the longest run of data-only firings
// at the pass's cursor that the rest of the pass, the sink pump's window
// (limit) and the out-edge windows allow — one past the tightest window:
// the firing whose send parks — and returns its length.  Zero leaves the
// cursor's firing (a dummy or an EOS) to the per-firing path.
func (n *engineNode) stretch(ns *nodeSession, fired, limit int) (k int) {
	k = min(passWidth-fired, limit)
	for i, run := range n.acc {
		k = min(k, n.room(ns, i)-len(run)+1)
	}
	if n.queued {
		k = min(k, len(ns.q)-fired)
		for j := 0; j < k; j++ {
			n.spanIn[j], n.spanSeq[j] = ns.q[fired+j], ns.nextSeq+uint64(fired+j)
		}
		return k
	}
	c, cur := n.inEdge(ns, 0), n.cur[0]
	k = min(k, c.queued()-cur)
	for j := 0; j < k; j++ {
		m := c.at(cur + j)
		if m.Kind != Data {
			return j
		}
		n.spanIn[j], n.spanSeq[j] = m.Payload, m.Seq
	}
	return k
}

// widenSpan gives the span scratch passWidth length, from its first line,
// once a pass finds more queued besides an EOS than the line holds: a
// stretch may then be longer.  A node that never sees such a pass, like
// every node of a one-message session, keeps its first line.
// fire calls it at the pass's start, so that stretch calls nothing and
// keeps a leaf's frame.
func (n *engineNode) widenSpan(ns *nodeSession) {
	q := len(ns.q)
	if !n.queued {
		c := n.inEdge(ns, 0)
		if q = c.queued(); c.at(q-1).Kind == EOS {
			q--
		}
	}
	if q <= len(n.spanIn) {
		return
	}
	s := lineSlice[any](2 * passWidth)
	n.spanIn, n.spanOut = s[:passWidth:passWidth], s[passWidth:]
	n.spanSeq = lineSlice[uint64](passWidth)
}

// dummyStretch takes, in one step, the longest run of dummy-only firings
// at the pass's cursor — each in-edge's j-th head a Dummy, all of them at
// one sequence number, so alignment would consume exactly those heads —
// that the pass and the out-edge windows allow, one past the tightest
// window as in stretch.  Under the Propagation cascade each such firing
// sends a dummy on every out-edge, so the run is one FireDummyRun and one
// copy of its dummies onto every out-edge's run.  Without the cascade each
// firing decides its own dummies: k = 0 leaves the cursor's firing to the
// per-firing path.  full reports whether an out-edge's run now passes its
// window.
func (n *engineNode) dummyStretch(ns *nodeSession, fired int) (k int, full bool) {
	if n.queued {
		return 0, false
	}
	c0, cur0 := n.inEdge(ns, 0), n.cur[0]
	if c0.queued() == cur0 || c0.at(cur0).Kind != Dummy {
		return 0, false // the common case off filtering paths, before any set-up
	}
	if n.e.cfg.Intervals == nil || n.e.cfg.Algorithm != cs4.Propagation {
		return 0, false
	}
	k = min(passWidth-fired, c0.queued()-cur0)
	for i, run := range n.acc {
		k = min(k, n.room(ns, i)-len(run)+1)
	}
	for j := 1; j < k; j++ {
		if c0.at(cur0+j).Kind != Dummy {
			k = j
			break
		}
	}
	for i := 1; i < len(n.in) && k > 0; i++ {
		c := n.inEdge(ns, i)
		k = min(k, c.queued()-n.cur[i])
		for j := 0; j < k; j++ {
			if m := c.at(n.cur[i] + j); m.Kind != Dummy || m.Seq != c0.at(cur0+j).Seq {
				k = j
				break
			}
		}
	}
	if k == 0 {
		return 0, false
	}
	ns.engine.FireDummyRun(c0.at(cur0+k-1).Seq, k)
	a, b := c0.run(cur0, k)
	for i, run := range n.acc {
		run = append(append(run, a...), b...)
		n.acc[i] = run
		n.accDummy[i] += k
		full = full || len(run) > n.room(ns, i)
	}
	for i := range n.cur {
		n.cur[i] += k
	}
	return k, full
}

// sinkEmit counts the pass's data sink firings and publishes them to the
// sink pump, written into the sink ring as they fired (emitAt).
func (n *engineNode) sinkEmit(ns *nodeSession, data int) {
	if data == 0 {
		return
	}
	ns.ses.emit.data += int64(data)
	if n.obsS != nil {
		n.obsS.SinkMsgs.Add(int64(data))
	}
	if !ns.ses.hasSink() {
		return
	}
	if ns.ses.publish(data) && n.obsS != nil {
		n.obsS.SinkWakes.Add(1)
	}
}

// consumeTimed consumes one run of a time-aware node's input: up to
// passWidth queued heads under one clock reading.  The input's protocol
// alignment is absorbed silently — each stretch of data heads feeds the
// kernel in one Ingest call (staged in the span scratch, idle between
// firing passes), dummies are dropped, EOS flushes the kernel and ends the
// queue — and what the run matured is queued to fire in the node's private
// output-sequence space (see timed.go).  Reports whether it consumed.
func (n *engineNode) consumeTimed(ns *nodeSession) bool {
	c := n.inEdge(ns, 0)
	q := min(c.queued(), passWidth)
	if q == 0 {
		return false
	}
	now := n.timed.TimedClock().Now()
	k, data := 0, 0
	for k < q {
		m := 0
		for ; k < q; k++ {
			h := c.at(k)
			if h.Kind != Data || h.Seq == proto.EOSSeq {
				break
			}
			n.spanIn[m], n.spanSeq[m] = h.Payload, h.Seq
			m++
		}
		if m > 0 {
			n.timed.Ingest(now, n.spanSeq[:m], n.spanIn[:m])
			clear(n.spanIn[:m])
			data += m
		}
		if k == q {
			break
		}
		k++ // the head that ended the stretch: a dummy is dropped
		if c.at(k-1).Seq == proto.EOSSeq {
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

// queueEmissions makes the kernel's matured emissions, the slice
// TakeEmissions hands over, the firing queue, which is empty (advanceQueued
// refills only an empty one): each fires at the node's next output
// sequence number, broadcast on every out-edge with the all-emitted mask —
// never a dummy; see timed.go for why re-sequencing is protocol-safe.
func (n *engineNode) queueEmissions(ns *nodeSession) {
	ems := n.timed.TakeEmissions()
	if len(ems) == 0 {
		return
	}
	ns.q = ems
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
