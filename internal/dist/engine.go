package dist

// This file is the resident multi-session distributed runtime: an Engine
// keeps a set of in-process workers — listeners, dialed peer links, frame
// readers — alive across unboundedly many logical streams, so binding
// listeners and dialing peers are paid once per topology.
//
// Sessions are multiplexed over the shared TCP links by tagging message
// and credit frames with the session id ('S'/'c' frames).  Everything
// that carries the protocol's safety argument is per session: each
// session gets its own per-edge buffers, its own credit windows sized to
// the edges' capacities, and its own node goroutines (nodeloop.go) — so
// each session is, protocol-wise, a stream running alone on the topology,
// and the dummy intervals protect it independently of its neighbours.
// The transport (connections, frame readers) is the only shared layer,
// and it never blocks on a session: inbound frames land in per-session
// buffers whose space is guaranteed by that session's credits.
//
// The Engine hosts all workers in the calling process (the arrangement
// the public Distributed backend uses); cross-worker traffic still
// round-trips real TCP frames and per-session credit windows, so the
// wire protocol is exercised end to end.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamdag/internal/clock"
	"streamdag/internal/fault"
	"streamdag/internal/graph"
	"streamdag/internal/obs"
	"streamdag/internal/proto"
	"streamdag/internal/stream"
)

// ErrEngineClosed is returned by Engine.Open after Close, and is the
// failure recorded against sessions still active when Close runs.
var ErrEngineClosed = errors.New("dist: engine closed")

// ErrEngineDraining is returned by Engine.Open while a Drain is in
// progress (or after one completed).
var ErrEngineDraining = errors.New("dist: engine draining")

// SessionIO parameterizes one Engine.Open.
type SessionIO struct {
	// ID tags the session's frames; nonzero and unique per engine.
	ID proto.SessionID
	// Source supplies the session's payloads (pulled by the worker
	// hosting the topology's source node); required.
	Source stream.SourceFunc
	// Sink receives the session's sink-node data firings in ascending
	// sequence order; nil discards (firings are still counted).
	Sink stream.SinkFunc
	// Ctx cancels the session; nil means Background.
	Ctx context.Context
}

// Engine is the resident distributed runtime for one topology.
type Engine struct {
	g     *graph.Graph
	part  Partition
	cfg   Config
	names []string          // worker names, sorted
	addrs map[string]string // shared live address book (addrsMu)

	mu       sync.Mutex
	workers  []*engineWorker // same order as names; entries swap on restart
	byName   map[string]int  // worker name → index into workers
	sessions map[proto.SessionID]*EngineSession
	closed   bool
	draining bool
	// repairing counts in-flight handleWorkerDown calls; Open waits for
	// zero (so retried sessions land on a whole topology, not mid-swap)
	// and Close refuses to tear workers down under a repair.
	repairing  int
	repairCond *sync.Cond // on mu

	// downMu guards the liveness ledger.  down marks workers currently
	// declared dead; gen counts how many times each worker has been
	// declared dead, so errors from links dialed against an earlier
	// incarnation are recognized as stale and dropped.
	downMu sync.Mutex
	down   map[string]bool
	gen    map[string]int

	det     *fault.Detector   // nil unless heartbeats are on
	obsF    *obs.FaultMetrics // nil without Config.Obs
	closedA atomic.Bool       // lock-free closed check for hot error paths

	stop chan struct{}
	wg   sync.WaitGroup // watchdog, monitor, beat senders
}

// NewEngine builds the resident workers (one per distinct partition
// name), binds their listeners, and connects the peer mesh; ingestion and
// delivery are per session (SessionIO).
func NewEngine(g *graph.Graph, partition Partition, kernels map[graph.NodeID]stream.Kernel, cfg Config) (*Engine, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if cfg.WatchdogTimeout == 0 {
		cfg.WatchdogTimeout = time.Second
	}
	names := make(map[string]bool)
	for n := 0; n < g.NumNodes(); n++ {
		owner, ok := partition[graph.NodeID(n)]
		if !ok {
			return nil, fmt.Errorf("dist: node %q not assigned to any worker", g.Name(graph.NodeID(n)))
		}
		names[owner] = true
	}
	ordered := make([]string, 0, len(names))
	for w := range names {
		ordered = append(ordered, w)
	}
	sort.Strings(ordered)
	addrs := make(map[string]string, len(ordered))
	for _, w := range ordered {
		addrs[w] = "127.0.0.1:0"
	}
	e := &Engine{
		g: g, part: partition, cfg: cfg,
		names:    ordered,
		addrs:    addrs,
		byName:   make(map[string]int, len(ordered)),
		sessions: make(map[proto.SessionID]*EngineSession),
		down:     make(map[string]bool, len(ordered)),
		gen:      make(map[string]int, len(ordered)),
		stop:     make(chan struct{}),
	}
	e.repairCond = sync.NewCond(&e.mu)
	if m := cfg.Obs; m != nil {
		e.obsF = m.Faults()
	}
	if cfg.HeartbeatMiss < 1 {
		cfg.HeartbeatMiss = 3
		e.cfg.HeartbeatMiss = 3
	}
	if cfg.HeartbeatInterval > 0 && len(ordered) > 1 {
		e.det = fault.NewDetector(cfg.HeartbeatInterval, cfg.HeartbeatMiss, ordered, time.Now())
	}
	for i, name := range ordered {
		e.byName[name] = i
		e.workers = append(e.workers, newEngineWorker(e, name, addrs))
	}
	for _, w := range e.workers {
		w.kernels = kernels
		if err := w.listen(); err != nil {
			e.Close()
			return nil, err
		}
	}
	for _, w := range e.workers {
		go w.acceptLoop()
		if err := w.dialPeers(); err != nil {
			e.Close()
			return nil, err
		}
	}
	for _, w := range e.workers {
		w.startHeartbeat()
	}
	if e.det != nil {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.monitor()
		}()
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.watchdog()
	}()
	return e, nil
}

// Open starts one logical stream over the resident workers.  The session
// is registered on every worker before any of its node goroutines start,
// so no frame can arrive ahead of its buffers.
func (e *Engine) Open(io SessionIO) (*EngineSession, error) {
	if io.Source == nil {
		return nil, errors.New("dist: engine session requires a Source")
	}
	if io.ID == 0 {
		return nil, errors.New("dist: engine session requires a nonzero id")
	}
	ctx := io.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	sctx, cancel := context.WithCancel(ctx)
	ses := &EngineSession{
		id: io.ID, e: e,
		ctx: sctx, cancel: cancel,
		source: io.Source, sink: io.Sink,
		abort:   make(chan struct{}),
		data:    make([]atomic.Int64, e.g.NumEdges()),
		dummies: make([]atomic.Int64, e.g.NumEdges()),
		done:    make(chan struct{}),
		start:   time.Now(),
	}
	e.mu.Lock()
	// A repair in flight is a topology mid-swap; wait it out so the
	// session starts on a whole mesh (this is what lets the retry layer
	// re-open immediately after a WorkerDownError).
	for e.repairing > 0 && !e.closed {
		e.repairCond.Wait()
	}
	if e.closed {
		e.mu.Unlock()
		cancel()
		return nil, ErrEngineClosed
	}
	if e.draining {
		e.mu.Unlock()
		cancel()
		return nil, ErrEngineDraining
	}
	if name := e.deadWorker(); name != "" {
		e.mu.Unlock()
		cancel()
		addrsMu.Lock()
		addr := e.addrs[name]
		addrsMu.Unlock()
		return nil, &fault.WorkerDownError{Worker: name, Addr: addr}
	}
	if _, dup := e.sessions[ses.id]; dup {
		e.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("dist: session id %d already open", ses.id)
	}
	e.sessions[ses.id] = ses
	workers := append([]*engineWorker(nil), e.workers...)
	e.mu.Unlock()
	if m := e.cfg.Obs; m != nil {
		sm := m.Sessions()
		sm.Opened.Add(1)
		sm.Active.Add(1)
	}

	// Phase 1: every worker allocates the session's buffers and windows.
	states := make([]*workerSession, len(workers))
	for i, w := range workers {
		states[i] = w.register(ses)
	}
	// Phase 2: node goroutines start only once every worker can route
	// the session's frames.
	for i, w := range workers {
		w.start(states[i])
	}
	go func() {
		select {
		case <-ctx.Done():
			ses.end(ctx.Err(), nil)
		case <-ses.done:
		}
	}()
	// Sole closer of done: whether the session drained or was aborted,
	// every node goroutine has exited first, so Wait/Done imply full
	// quiescence — no kernel runs for this session afterwards.
	go func() {
		ses.nodeWG.Wait()
		ses.finish()
		// An aborted session strands in-flight messages in its inboxes;
		// fold them into the drained counts (every node goroutine has
		// exited, so the buffers are final) to keep the queue-depth
		// gauge convergent.  A drained session's inboxes are empty.
		if m := e.cfg.Obs; m != nil {
			for _, ws := range states {
				for edge, ch := range ws.inbox {
					if ch != nil {
						if r := len(ch); r > 0 {
							m.Edge(edge).Consumed.Add(int64(r))
						}
					}
				}
			}
		}
		close(ses.done)
	}()
	return ses, nil
}

// Close fails every active session with ErrEngineClosed and tears the
// resident workers down; idempotent.
func (e *Engine) Close() error {
	e.closedA.Store(true)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	// A repair mid-flight holds worker state we are about to tear down;
	// let it finish (it observes closed and aborts the restart).
	for e.repairing > 0 {
		e.repairCond.Wait()
	}
	active := make([]*EngineSession, 0, len(e.sessions))
	for _, s := range e.sessions {
		active = append(active, s)
	}
	workers := append([]*engineWorker(nil), e.workers...)
	e.mu.Unlock()
	for _, s := range active {
		s.end(ErrEngineClosed, nil)
	}
	close(e.stop)
	for _, w := range workers {
		w.close()
	}
	for _, s := range active {
		<-s.done
	}
	e.wg.Wait()
	return nil
}

// Drain stops admitting sessions (Open returns ErrEngineDraining) and
// waits for the in-flight ones to resolve, or for ctx.  It does not
// close the engine; callers Close after a successful drain.
func (e *Engine) Drain(ctx context.Context) error {
	t0 := time.Now()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrEngineClosed
	}
	e.draining = true
	e.mu.Unlock()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		e.mu.Lock()
		n := len(e.sessions)
		e.mu.Unlock()
		if n == 0 {
			if e.obsF != nil {
				e.obsF.Drains.Add(1)
				e.obsF.DrainTime.Add(int64(time.Since(t0)))
			}
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

func (e *Engine) unregister(id proto.SessionID) {
	e.mu.Lock()
	delete(e.sessions, id)
	e.mu.Unlock()
}

// workerSnapshot copies the live worker set (entries swap on restart).
func (e *Engine) workerSnapshot() []*engineWorker {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*engineWorker(nil), e.workers...)
}

// deadWorker returns the name of a worker currently declared down, or ""
// (sorted scan, so the report is deterministic).  Callers may hold e.mu;
// only downMu is taken.
func (e *Engine) deadWorker() string {
	e.downMu.Lock()
	defer e.downMu.Unlock()
	for _, name := range e.names {
		if e.down[name] {
			return name
		}
	}
	return ""
}

// genOf reads a worker's current death generation; links record it at
// dial time so stale-link errors can be told from fresh ones.
func (e *Engine) genOf(name string) int {
	e.downMu.Lock()
	defer e.downMu.Unlock()
	return e.gen[name]
}

// noteWorkerDown is the single entry point for declaring a worker dead:
// transport errors, missed heartbeats, and KillWorker all land here.  It
// dedups — only the first report per incarnation spawns the handler —
// and drops reports that cannot be trusted: from a reporter that is
// itself the dying worker (a killed worker's own failed sends must not
// condemn healthy peers), or carrying a stale generation (errors on a
// link to an incarnation that was already replaced).
func (e *Engine) noteWorkerDown(reporter *engineWorker, name string, gen int, cause error) {
	if e.closedA.Load() {
		return
	}
	e.downMu.Lock()
	if e.down[name] || gen != e.gen[name] || (reporter != nil && e.down[reporter.name]) {
		e.downMu.Unlock()
		return
	}
	e.down[name] = true
	e.gen[name]++
	e.downMu.Unlock()
	// Mark the repair before returning so an Open racing the kill blocks
	// until the topology is whole (or degraded-but-settled) again.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.repairing++
	e.mu.Unlock()
	go e.handleWorkerDown(name, cause)
}

// handleWorkerDown is the supervisor for one worker death: fail the
// active sessions with a typed error naming the worker, tear the dead
// worker's transport down, and — when Config.Restart is set — spawn a
// fresh incarnation and re-dial the survivors' links to it.
func (e *Engine) handleWorkerDown(name string, cause error) {
	defer func() {
		e.mu.Lock()
		e.repairing--
		e.repairCond.Broadcast()
		e.mu.Unlock()
	}()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	old := e.workers[e.byName[name]]
	active := make([]*EngineSession, 0, len(e.sessions))
	ids := make([]uint64, 0, len(e.sessions))
	for id, s := range e.sessions {
		active = append(active, s)
		ids = append(ids, uint64(id))
	}
	e.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	addrsMu.Lock()
	addr := e.addrs[name]
	addrsMu.Unlock()
	if e.obsF != nil {
		e.obsF.WorkersDown.Add(1)
	}
	if e.det != nil {
		e.det.MarkDead(name)
	}
	wd := &fault.WorkerDownError{Worker: name, Addr: addr, Sessions: ids, Cause: cause}
	for _, s := range active {
		s.end(wd, nil)
	}
	// Ending the sessions first unblocks their node goroutines via abort;
	// closing the worker then tears its listener and links down.  The dead
	// worker's own in-flight sends fail here — those reports are
	// suppressed by the reporter-down rule above.
	old.close()
	if e.cfg.Restart && !e.closedA.Load() {
		if err := e.restartWorker(name, old); err == nil {
			if e.obsF != nil {
				e.obsF.Reconnects.Add(1)
			}
			if e.det != nil {
				e.det.Revive(name, time.Now())
			}
			e.downMu.Lock()
			e.down[name] = false
			e.downMu.Unlock()
		}
	}
}

// restartWorker spawns a fresh incarnation of a dead worker: new
// listener (the address book is updated under addrsMu), new dialed
// links, and every survivor's link to it re-dialed against the new
// generation.  Sessions are not resumed — the layer above re-opens.
func (e *Engine) restartWorker(name string, old *engineWorker) error {
	addrsMu.Lock()
	e.addrs[name] = "127.0.0.1:0"
	addrsMu.Unlock()
	nw := newEngineWorker(e, name, e.addrs)
	nw.kernels = old.kernels
	if err := nw.listen(); err != nil {
		return err
	}
	go nw.acceptLoop()
	if err := nw.dialPeers(); err != nil {
		nw.close()
		return err
	}
	nw.startHeartbeat()
	for _, w := range e.workerSnapshot() {
		if w.name == name {
			continue
		}
		if err := w.redial(name); err != nil {
			nw.close()
			return err
		}
	}
	e.mu.Lock()
	e.workers[e.byName[name]] = nw
	e.mu.Unlock()
	return nil
}

// KillWorker simulates a crash of the named in-process worker: its
// listener and connections drop mid-stream, active sessions fail with a
// *fault.WorkerDownError naming it, and — with Config.Restart — a fresh
// incarnation rejoins the mesh.  The repair is asynchronous; Open blocks
// until it settles.
func (e *Engine) KillWorker(name string) error {
	e.mu.Lock()
	_, ok := e.byName[name]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("dist: no worker %q", name)
	}
	e.noteWorkerDown(nil, name, e.genOf(name), errors.New("dist: worker killed"))
	return nil
}

// monitor is the heartbeat failure detector: workers beat each other
// over the data links (any frame counts), and a worker silent for
// HeartbeatMiss intervals is declared down.
func (e *Engine) monitor() {
	ticker := time.NewTicker(e.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			for _, name := range e.det.Expired(time.Now()) {
				if e.obsF != nil {
					e.obsF.HeartbeatsMissed.Add(1)
				}
				e.noteWorkerDown(nil, name, e.genOf(name),
					fmt.Errorf("dist: worker %q missed %d heartbeat intervals", name, e.cfg.HeartbeatMiss))
			}
		}
	}
}

// fail is the engine-wide failure path (a torn connection, a protocol
// violation): every active session dies with the transport error.
func (e *Engine) fail(err error) {
	e.mu.Lock()
	active := make([]*EngineSession, 0, len(e.sessions))
	for _, s := range e.sessions {
		active = append(active, s)
	}
	e.mu.Unlock()
	for _, s := range active {
		s.end(err, nil)
	}
}

// watchdog scans the active sessions once per period, as in the stream
// engine: no progress across a full period with no in-flight Source/Sink
// callback is a wedge, attributed to the one session that stalled.
func (e *Engine) watchdog() {
	ticker := time.NewTicker(e.cfg.WatchdogTimeout)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			e.mu.Lock()
			repairing := e.repairing > 0
			active := make([]*EngineSession, 0, len(e.sessions))
			for _, s := range e.sessions {
				active = append(active, s)
			}
			e.mu.Unlock()
			if repairing {
				// A worker swap stalls everything legitimately; don't let
				// the recovery window read as a wedge.
				continue
			}
			dead := e.deadWorker()
			for _, ses := range active {
				cur := ses.progress.Load()
				if ses.watched && cur == ses.lastProgress && ses.external.Load() == 0 && ses.timersArmed.Load() == 0 {
					if dead != "" {
						// The stall is already attributed: a dead worker with
						// no restart coming.  Name it instead of reporting a
						// protocol deadlock that isn't one.
						addrsMu.Lock()
						addr := e.addrs[dead]
						addrsMu.Unlock()
						ses.end(&fault.WorkerDownError{
							Worker: dead, Addr: addr,
							Sessions: []uint64{uint64(ses.id)},
						}, nil)
						continue
					}
					chans, stalled := e.snapshot(ses)
					ses.end(&stream.DeadlockError{Session: ses.id, Channels: chans, Stalled: stalled}, nil)
					continue
				}
				ses.lastProgress = cur
				ses.watched = true
			}
		}
	}
}

// snapshot renders the session's buffer and window occupancy across all
// workers, plus the sorted list of edges whose buffer or credit window
// is exhausted — where the stream stalled.  Reads are racy but
// indicative.
func (e *Engine) snapshot(ses *EngineSession) (map[string]string, []string) {
	chans := make(map[string]string, e.g.NumEdges())
	var stalled []string
	for _, w := range e.workerSnapshot() {
		ws := w.session(ses.id)
		if ws == nil {
			continue
		}
		for _, ed := range e.g.Edges() {
			key := fmt.Sprintf("%s→%s", e.g.Name(ed.From), e.g.Name(ed.To))
			if ch := ws.inbox[ed.ID]; ch != nil {
				chans[key] = fmt.Sprintf("%d/%d", len(ch), cap(ch))
				if cap(ch) > 0 && len(ch) == cap(ch) {
					stalled = append(stalled, key)
				}
			} else if win := ws.window[ed.ID]; win != nil {
				chans[key] = fmt.Sprintf("%d/%d in flight",
					win.capacity()-win.available(), win.capacity())
				if win.capacity() > 0 && win.available() == 0 {
					stalled = append(stalled, key)
				}
			}
		}
	}
	sort.Strings(stalled)
	return chans, stalled
}

// EngineSession is one logical stream served by the resident workers.
type EngineSession struct {
	id     proto.SessionID
	e      *Engine
	ctx    context.Context
	cancel context.CancelFunc
	source stream.SourceFunc
	sink   stream.SinkFunc

	abort  chan struct{} // closed on end: unblocks this session's nodes
	nodeWG sync.WaitGroup

	progress atomic.Int64
	external atomic.Int64
	// timersArmed counts armed time-aware flush timers across the
	// session's nodes (sessionPorts.runTimed); the watchdog treats an
	// armed timer like in-flight external work — a session quietly idle
	// inside an open window is the clock's pace, not a wedge.
	timersArmed  atomic.Int64
	lastProgress int64
	watched      bool

	data     []atomic.Int64
	dummies  []atomic.Int64
	sinkData atomic.Int64
	start    time.Time

	endOnce sync.Once
	ended   atomic.Bool
	err     error
	stats   *Stats
	done    chan struct{}
}

// ID returns the session's id.
func (s *EngineSession) ID() proto.SessionID { return s.id }

// Done is closed when the session has resolved.
func (s *EngineSession) Done() <-chan struct{} { return s.done }

// Wait blocks until the session drains or fails and returns its merged
// cross-worker stats.
func (s *EngineSession) Wait() (*Stats, error) {
	<-s.done
	return s.stats, s.err
}

// Cancel aborts the session; other sessions are unaffected.
func (s *EngineSession) Cancel() { s.end(context.Canceled, nil) }

// end records the session's outcome exactly once and tears its node
// goroutines down (abort unblocks every port); done is closed by the
// Open watcher once they have all exited.
func (s *EngineSession) end(err error, stats *Stats) {
	s.endOnce.Do(func() {
		s.ended.Store(true)
		s.err = err
		s.stats = stats
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
		s.cancel()
		close(s.abort)
		s.e.unregister(s.id)
		for _, w := range s.e.workerSnapshot() {
			w.drop(s.id)
		}
	})
}

// finish resolves a drained session: every node goroutine has returned,
// which happens-after every send, so the counters are final.
func (s *EngineSession) finish() {
	if s.ended.Load() {
		return
	}
	stats := &Stats{
		Data:     make(map[graph.EdgeID]int64, len(s.data)),
		Dummies:  make(map[graph.EdgeID]int64, len(s.dummies)),
		SinkData: s.sinkData.Load(),
		Elapsed:  time.Since(s.start),
	}
	for i := range s.data {
		stats.Data[graph.EdgeID(i)] = s.data[i].Load()
		stats.Dummies[graph.EdgeID(i)] = s.dummies[i].Load()
	}
	s.end(nil, stats)
}

// ---------------------------------------------------------------------
// Resident workers.

// engineWorker is one resident worker: a listener, a set of peer links,
// and the per-session state of the nodes it hosts.
type engineWorker struct {
	e       *Engine
	name    string
	addrs   map[string]string
	kernels map[graph.NodeID]stream.Kernel

	local     []graph.NodeID
	creditTo  []string // per edge; != "" = inbound cross edge's sender
	crossOut  []bool   // per edge; true = outbound cross edge
	peerNames []string
	// obsE holds the per-edge telemetry slots, resolved once at
	// construction; nil when Config.Obs is nil, so the port hot paths pay
	// a single nil check with observation off.
	obsE []*obs.EdgeMetrics

	ln net.Listener
	// peers maps peer name → link slot.  The map's shape is fixed at
	// construction (one slot per peerName); the slot's pointer swaps
	// atomically when a dead peer is restarted and its link re-dialed, so
	// the send hot path reads it lock-free.
	peers map[string]*peerSlot

	hbStop chan struct{} // non-nil when this worker sends heartbeats

	mu       sync.Mutex
	sessions map[proto.SessionID]*workerSession
	accepted []net.Conn
	closed   bool
	connWG   sync.WaitGroup
}

// peerSlot holds the current link to one peer; see engineWorker.peers.
type peerSlot struct{ p atomic.Pointer[peerLink] }

// peer returns the current link to the named peer (nil before dialPeers).
func (w *engineWorker) peer(name string) *peerLink {
	s := w.peers[name]
	if s == nil {
		return nil
	}
	return s.p.Load()
}

// workerSession is one worker's share of a session: per-edge buffers for
// the edges it consumes, per-edge windows for the cross edges it sends.
type workerSession struct {
	ses    *EngineSession
	inbox  []chan stream.Message
	window []*window
}

func newEngineWorker(e *Engine, name string, addrs map[string]string) *engineWorker {
	w := &engineWorker{
		e: e, name: name, addrs: addrs,
		creditTo: make([]string, e.g.NumEdges()),
		crossOut: make([]bool, e.g.NumEdges()),
		peers:    make(map[string]*peerSlot),
		sessions: make(map[proto.SessionID]*workerSession),
	}
	for n := 0; n < e.g.NumNodes(); n++ {
		if e.part[graph.NodeID(n)] == name {
			w.local = append(w.local, graph.NodeID(n))
		}
	}
	peerSet := make(map[string]bool)
	for _, ed := range e.g.Edges() {
		fromOwner, toOwner := e.part[ed.From], e.part[ed.To]
		if toOwner == name && fromOwner != name {
			w.creditTo[ed.ID] = fromOwner
			peerSet[fromOwner] = true
		}
		if fromOwner == name && toOwner != name {
			w.crossOut[ed.ID] = true
			peerSet[toOwner] = true
		}
	}
	for p := range peerSet {
		w.peerNames = append(w.peerNames, p)
		w.peers[p] = &peerSlot{}
	}
	sort.Strings(w.peerNames)
	if m := e.cfg.Obs; m != nil {
		w.obsE = make([]*obs.EdgeMetrics, e.g.NumEdges())
		for i := range w.obsE {
			w.obsE[i] = m.Edge(i)
		}
	}
	return w
}

func (w *engineWorker) listen() error {
	addrsMu.Lock()
	addr := w.addrs[w.name]
	addrsMu.Unlock()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	w.ln = ln
	addrsMu.Lock()
	w.addrs[w.name] = ln.Addr().String()
	addrsMu.Unlock()
	return nil
}

func (w *engineWorker) dialPeers() error {
	for _, p := range w.peerNames {
		link, err := w.dialOne(p)
		if err != nil {
			return err
		}
		w.peers[p].p.Store(link)
	}
	return nil
}

// dialOne connects to one peer (retrying until DialTimeout), performs
// the hello, and arms the coalescer.  The link records the peer's
// current death generation so later errors on it can be aged.
func (w *engineWorker) dialOne(p string) (*peerLink, error) {
	timeout := w.e.cfg.DialTimeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		addrsMu.Lock()
		addr := w.addrs[p]
		addrsMu.Unlock()
		c, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			link := &peerLink{name: p, conn: c, gen: w.e.genOf(p)}
			if m := w.e.cfg.Obs; m != nil {
				link.stats = m.Link(w.name + "→" + p)
			}
			if err := link.send(helloBody(w.name)); err != nil {
				c.Close()
				return nil, err
			}
			if w.e.cfg.MaxBatch > 1 {
				peer := p
				link.startCoalescer(w.e.cfg.MaxBatch, func(err error) {
					w.e.noteWorkerDown(w, peer, link.gen,
						fmt.Errorf("dist: coalesced write to %q: %w", peer, err))
				})
			}
			return link, nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: worker %q cannot reach %q at %s: %w", w.name, p, addr, lastErr)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// redial replaces this worker's link to a restarted peer: dial the new
// incarnation, swap the slot, and retire the stale link.  Workers whose
// edge set never links to peer have no slot and nothing to redial.
func (w *engineWorker) redial(peer string) error {
	if _, ok := w.peers[peer]; !ok {
		return nil
	}
	link, err := w.dialOne(peer)
	if err != nil {
		return err
	}
	if old := w.peers[peer].p.Swap(link); old != nil {
		old.stopCoalescer()
		old.conn.Close()
	}
	return nil
}

// startHeartbeat launches the liveness sender: one beat frame per
// interval on every peer link, so idle links still carry proof of life
// (loaded links prove it with data frames).  No-op when heartbeats are
// off or the worker has no peers.
func (w *engineWorker) startHeartbeat() {
	if w.e.det == nil || len(w.peerNames) == 0 {
		return
	}
	w.hbStop = make(chan struct{})
	w.e.wg.Add(1)
	go w.beatLoop()
}

func (w *engineWorker) beatLoop() {
	defer w.e.wg.Done()
	ticker := time.NewTicker(w.e.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-w.hbStop:
			return
		case <-ticker.C:
			for _, p := range w.peerNames {
				link := w.peer(p)
				if link == nil {
					continue
				}
				if err := link.send(appendBeat(getBody())); err != nil {
					w.e.noteWorkerDown(w, p, link.gen,
						fmt.Errorf("dist: heartbeat from %q to %q: %w", w.name, p, err))
				}
			}
		}
	}
}

// register allocates the session's buffers and windows on this worker.
func (w *engineWorker) register(ses *EngineSession) *workerSession {
	ws := &workerSession{
		ses:    ses,
		inbox:  make([]chan stream.Message, w.e.g.NumEdges()),
		window: make([]*window, w.e.g.NumEdges()),
	}
	for _, ed := range w.e.g.Edges() {
		if w.e.part[ed.To] == w.name {
			ws.inbox[ed.ID] = make(chan stream.Message, ed.Buf)
		}
		if w.crossOut[ed.ID] {
			ws.window[ed.ID] = newWindow(ed.Buf)
		}
	}
	w.mu.Lock()
	w.sessions[ses.id] = ws
	w.mu.Unlock()
	return ws
}

// start launches the session's node goroutines on this worker.
func (w *engineWorker) start(ws *workerSession) {
	for _, id := range w.local {
		ws.ses.nodeWG.Add(1)
		go func(id graph.NodeID) {
			defer ws.ses.nodeWG.Done()
			in := w.e.g.In(id)
			out := w.e.g.Out(id)
			kernel := w.kernels[id]
			if kernel == nil {
				kernel = stream.Passthrough(len(out))
			}
			if m := w.e.cfg.Obs; m != nil {
				if tk, ok := kernel.(stream.TimedKernel); ok {
					// A plain obsKernel would hide the TimedKernel methods
					// and silently demote the node to per-seq firing.
					kernel = &obsTimedKernel{obsKernel{k: kernel, n: m.Node(int(id))}, tk, m.Time()}
				} else {
					kernel = &obsKernel{k: kernel, n: m.Node(int(id))}
				}
			}
			engine := proto.NewEngine(out, proto.Config{
				Algorithm: w.e.cfg.Algorithm,
				Intervals: w.e.cfg.Intervals,
			})
			(&sessionPorts{w: w, ws: ws, in: in, out: out}).run(kernel, engine)
		}(id)
	}
}

// obsKernel decorates a node's kernel with telemetry: one Firing and the
// wall-clock service time per Process invocation.  The distributed node
// loop is strictly per-element, so wrapping the plain Kernel interface
// loses nothing.
type obsKernel struct {
	k stream.Kernel
	n *obs.NodeMetrics
}

func (o *obsKernel) Process(seq uint64, ins []stream.Input) map[int]any {
	t0 := time.Now()
	outs := o.k.Process(seq, ins)
	o.n.ServiceTime.Add(int64(time.Since(t0)))
	o.n.Firings.Add(1)
	return outs
}

// obsTimedKernel is obsKernel for a time-aware kernel: Process keeps
// the telemetry decoration while the TimedKernel methods pass through,
// so sessionPorts.run still dispatches the timed loop.
type obsTimedKernel struct {
	obsKernel
	t  stream.TimedKernel
	tm *obs.TimeMetrics
}

func (o *obsTimedKernel) TimedClock() clock.Clock { return o.t.TimedClock() }

func (o *obsTimedKernel) Tick(now time.Time) {
	o.t.Tick(now)
	o.tm.TimerTicks.Add(1)
}

func (o *obsTimedKernel) Flush() { o.t.Flush() }

func (o *obsTimedKernel) TakeEmissions() []any {
	ems := o.t.TakeEmissions()
	if len(ems) > 0 {
		o.tm.TimedEmissions.Add(int64(len(ems)))
	}
	return ems
}

func (o *obsTimedKernel) NextDeadline() (time.Time, bool) { return o.t.NextDeadline() }

func (w *engineWorker) session(id proto.SessionID) *workerSession {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sessions[id]
}

func (w *engineWorker) drop(id proto.SessionID) {
	w.mu.Lock()
	delete(w.sessions, id)
	w.mu.Unlock()
}

func (w *engineWorker) acceptLoop() {
	for {
		c, err := w.ln.Accept()
		if err != nil {
			return
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			c.Close()
			return
		}
		w.accepted = append(w.accepted, c)
		w.connWG.Add(1)
		w.mu.Unlock()
		go w.serveConn(c)
	}
}

// serveConn demuxes one inbound connection's frames into per-session
// state.  Frames for unknown sessions are dropped, not errors: a session
// that failed locally keeps receiving its peers' in-flight frames until
// they observe the teardown.  The read buffer is reused across frames
// (parsers copy whatever they retain), so steady-state reads allocate
// nothing beyond decoded payloads.
func (w *engineWorker) serveConn(c net.Conn) {
	defer w.connWG.Done()
	defer c.Close()
	hello, err := readFrame(c)
	if err != nil {
		return
	}
	peer, err := parseHello(hello)
	if err != nil {
		return // stray client; not a peer
	}
	var rx *obs.LinkMetrics
	if m := w.e.cfg.Obs; m != nil {
		rx = m.Link(peer + "→" + w.name)
	}
	// The generation at hello time ages this connection: a read error
	// after the peer has already been replaced is stale, not news.
	gen := w.e.genOf(peer)
	det := w.e.det
	var buf []byte
	for {
		body, err := readFrameReuse(c, &buf)
		if err != nil {
			if !w.isClosed() {
				w.e.noteWorkerDown(w, peer, gen,
					fmt.Errorf("dist: link from %q to %q broke: %w", peer, w.name, err))
			}
			return
		}
		if det != nil {
			det.Beat(peer, time.Now())
		}
		if rx != nil {
			rx.RxFrames.Add(1)
			rx.RxBytes.Add(int64(len(body)) + 4)
		}
		if !w.handleBody(body) {
			return
		}
	}
}

func (w *engineWorker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// errConnDone aborts a batch walk after a sub-body already failed the
// connection (the failure is reported where it happened).
var errConnDone = errors.New("dist: connection done")

// handleBody dispatches one frame body; false tears the connection down.
// A batch frame's sub-bodies come back through it one at a time, exactly
// as if each had arrived in its own frame (nesting is rejected by the
// batch walker).
func (w *engineWorker) handleBody(body []byte) bool {
	switch body[0] {
	case frameBeat:
		// Pure liveness; serveConn already recorded the arrival.
		return true
	case frameBatch:
		err := forEachBatchBody(body, func(sub []byte) error {
			if !w.handleBody(sub) {
				return errConnDone
			}
			return nil
		})
		if err != nil {
			if err != errConnDone {
				w.e.fail(err)
			}
			return false
		}
		return true
	case frameSessMsg:
		sid, e, m, err := parseSessMsg(body)
		if err != nil {
			w.e.fail(err)
			return false
		}
		ws := w.session(sid)
		if ws == nil {
			// The session ended before the frame arrived; the sender
			// already counted it, so credit the drained side to keep the
			// queue-depth gauge convergent.
			if om := w.obsE; om != nil && int(e) < len(om) {
				om[e].Consumed.Add(1)
			}
			return true
		}
		if int(e) >= len(ws.inbox) || ws.inbox[e] == nil {
			w.e.fail(fmt.Errorf("dist: worker %q received session message for foreign edge %d", w.name, e))
			return false
		}
		// The sender holds one of this session's credits, so the
		// buffer has room; select on abort anyway for teardown races.
		select {
		case ws.inbox[e] <- m:
			ws.ses.progress.Add(1)
		case <-ws.ses.abort:
			if om := w.obsE; om != nil {
				om[e].Consumed.Add(1)
			}
		}
		return true
	case frameSessCredit:
		sid, e, err := parseSessCredit(body)
		if err != nil {
			w.e.fail(err)
			return false
		}
		ws := w.session(sid)
		if ws == nil {
			return true
		}
		if int(e) >= len(ws.window) || ws.window[e] == nil || !ws.window[e].release() {
			w.e.fail(fmt.Errorf("dist: worker %q received bogus session credit for edge %d", w.name, e))
			return false
		}
		ws.ses.progress.Add(1)
		return true
	default:
		w.e.fail(fmt.Errorf("dist: unknown frame type %q on engine worker %q", body[0], w.name))
		return false
	}
}

func (w *engineWorker) close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	conns := w.accepted
	w.accepted = nil
	w.mu.Unlock()
	if w.hbStop != nil {
		close(w.hbStop)
	}
	if w.ln != nil {
		w.ln.Close()
	}
	for _, slot := range w.peers {
		if link := slot.p.Load(); link != nil {
			link.stopCoalescer()
			link.conn.Close()
		}
	}
	for _, c := range conns {
		c.Close()
	}
	w.connWG.Wait()
}

// sessionPorts is the transport one hosted node's loop (nodeloop.go)
// drives for one session, addressed by in-/out-edge position: local
// buffers, or session-tagged credit-gated TCP frames.  send may be called
// concurrently for distinct out positions (one firing's sends are issued
// in parallel; see DESIGN.md, "Protocol soundness" note 2).
type sessionPorts struct {
	w       *engineWorker
	ws      *workerSession
	in, out []graph.EdgeID
}

// recv blocks for the next message on in-edge position i, returning
// ok=false when the session is aborted.
func (p *sessionPorts) recv(i int) (stream.Message, bool) {
	select {
	case m := <-p.ws.inbox[p.in[i]]:
		if p.w.obsE != nil {
			p.w.obsE[p.in[i]].Consumed.Add(1)
		}
		p.ws.ses.progress.Add(1)
		return m, true
	case <-p.ws.ses.abort:
		return stream.Message{}, false
	}
}

// send delivers m on out-edge position i, blocking on backpressure and
// returning false when the session is aborted.
func (p *sessionPorts) send(i int, m stream.Message) bool {
	e := p.out[i]
	ses := p.ws.ses
	om := p.w.obsE
	if win := p.ws.window[e]; win != nil {
		// With observation on, a send that finds the window empty is a
		// credit stall: count the episode and its wall-clock duration.
		if om == nil || win.tryAcquire() {
			if om == nil && !win.acquire(ses.abort) {
				return false
			}
		} else {
			om[e].CreditStalls.Add(1)
			t0 := time.Now()
			if !win.acquire(ses.abort) {
				return false
			}
			om[e].CreditStallTime.Add(int64(time.Since(t0)))
		}
		body, err := appendSessMsg(getBody(), ses.id, e, m)
		if err != nil {
			putBody(body)
			ses.end(err, nil)
			return false
		}
		peer := p.w.e.part[p.w.e.g.Edge(e).To]
		link := p.w.peer(peer)
		if link == nil {
			putBody(body)
			return false
		}
		if err := link.send(body); err != nil {
			p.w.e.noteWorkerDown(p.w, peer, link.gen,
				fmt.Errorf("dist: sending on session %d to %q: %w", ses.id, peer, err))
			return false
		}
	} else if om == nil {
		select {
		case p.ws.inbox[e] <- m:
		case <-ses.abort:
			return false
		}
	} else {
		select {
		case p.ws.inbox[e] <- m:
		default:
			om[e].CreditStalls.Add(1)
			t0 := time.Now()
			select {
			case p.ws.inbox[e] <- m:
				om[e].CreditStallTime.Add(int64(time.Since(t0)))
			case <-ses.abort:
				om[e].CreditStallTime.Add(int64(time.Since(t0)))
				return false
			}
		}
	}
	switch m.Kind {
	case stream.Data:
		ses.data[e].Add(1)
		if om != nil {
			om[e].Data.Add(1)
		}
	case stream.Dummy:
		ses.dummies[e].Add(1)
		if om != nil {
			om[e].Dummies.Add(1)
		}
	}
	if om != nil {
		om[e].Sent.Add(1)
	}
	ses.progress.Add(1)
	return true
}

// consumed reports that one message was popped from in-edge position i:
// on an inbound cross edge it returns a flow-control credit to the
// sending worker.  False aborts the node.
func (p *sessionPorts) consumed(i int) bool {
	e := p.in[i]
	peer := p.w.creditTo[e]
	if peer == "" {
		return true
	}
	link := p.w.peer(peer)
	if link == nil {
		return false
	}
	if err := link.send(appendSessCredit(getBody(), p.ws.ses.id, e)); err != nil {
		p.w.e.noteWorkerDown(p.w, peer, link.gen,
			fmt.Errorf("dist: returning session %d credit to %q: %w", p.ws.ses.id, peer, err))
		return false
	}
	return true
}

// ingest returns the next payload to inject at the source node; ok=false
// ends the stream (EOS follows) or signals an abort.
func (p *sessionPorts) ingest() (any, bool) {
	ses := p.ws.ses
	select {
	case <-ses.abort:
		return nil, false
	default:
	}
	ses.external.Add(1)
	payload, ok, err := ses.source(ses.ctx)
	ses.external.Add(-1)
	if err != nil {
		ses.end(&CallbackError{Op: "source", Err: err}, nil)
		return nil, false
	}
	if ok {
		ses.progress.Add(1)
	}
	return payload, ok
}

// sinkEmit delivers one data-carrying firing at the sink node —
// emissions arrive in ascending sequence order — blocking on sink
// backpressure and returning false when the session is aborted.
func (p *sessionPorts) sinkEmit(seq uint64, payload any) bool {
	ses := p.ws.ses
	ses.sinkData.Add(1)
	if m := p.w.e.cfg.Obs; m != nil {
		m.Sessions().SinkMsgs.Add(1)
	}
	ses.progress.Add(1)
	if ses.sink == nil {
		return true
	}
	ses.external.Add(1)
	err := ses.sink(ses.ctx, seq, payload)
	ses.external.Add(-1)
	if err != nil {
		ses.end(&CallbackError{Op: "sink", Err: err}, nil)
		return false
	}
	return true
}
