package dist

// This file is the resident distributed runtime: an Engine keeps a set of
// in-process workers — listeners, dialed peer links, frame readers, link
// writers — and one stream.Engine over the whole topology alive across
// unboundedly many logical streams, so binding listeners, dialing peers
// and spawning node loops are paid once per topology.
//
// Sessions are the stream engine's: each owns its sequence space, its
// per-node protocol state and its per-edge credit windows, so each is,
// protocol-wise, a stream running alone on the topology, and the dummy
// intervals protect it independently of its neighbours.  They are
// multiplexed over the shared TCP links by the session id every run and
// credit frame carries.  What this file adds to a session is what a wire
// can do to it: a worker that dies fails the sessions open at that
// moment with a *fault.WorkerDownError naming it, and a frame that does
// not parse, or names an edge or a count the topology rules out, fails
// them with an error naming the frame.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamdag/internal/box"
	"streamdag/internal/fault"
	"streamdag/internal/graph"
	"streamdag/internal/obs"
	"streamdag/internal/stream"
)

// Engine is the resident distributed runtime for one topology.
type Engine struct {
	g     *graph.Graph
	part  Partition
	cfg   Config
	names []string          // worker names, sorted
	addrs map[string]string // shared live address book (addrsMu)

	// eng runs every node of the topology; carriers are the detours of its
	// cross edges, one per direction of every worker pair sharing an edge.
	eng      *stream.Engine
	carriers map[[2]string]*carrier // keyed {from, to}

	mu      sync.Mutex
	workers []*engineWorker // same order as names; entries swap on restart
	byName  map[string]int  // worker name → index into workers
	closed  bool
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
	wg   sync.WaitGroup // link writers, monitor, beat senders
}

// NewEngine starts the node loops, builds the resident workers (one per
// distinct partition name), binds their listeners, and connects the peer
// mesh; ingestion and delivery are per session (SessionIO).
func NewEngine(g *graph.Graph, partition Partition, kernels map[graph.NodeID]stream.Kernel, cfg Config) (*Engine, error) {
	if err := g.Validate(); err != nil {
		return nil, err
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
	if cfg.HeartbeatMiss < 1 {
		cfg.HeartbeatMiss = 3
	}
	e := &Engine{
		g: g, part: partition, cfg: cfg,
		names:    ordered,
		addrs:    addrs,
		carriers: make(map[[2]string]*carrier),
		byName:   make(map[string]int, len(ordered)),
		down:     make(map[string]bool, len(ordered)),
		gen:      make(map[string]int, len(ordered)),
		stop:     make(chan struct{}),
	}
	e.repairCond = sync.NewCond(&e.mu)
	if m := cfg.Obs; m != nil {
		e.obsF = m.Faults()
	}
	if cfg.HeartbeatInterval > 0 && len(ordered) > 1 {
		e.det = fault.NewDetector(cfg.HeartbeatInterval, cfg.HeartbeatMiss, ordered, time.Now())
	}
	cross := make(map[graph.EdgeID]stream.CrossEdge)
	for _, ed := range g.Edges() {
		if from, to := partition[ed.From], partition[ed.To]; from != to {
			cross[ed.ID] = stream.CrossEdge{Msgs: e.carrier(from, to).box, Credits: e.carrier(to, from).box}
		}
	}
	eng, err := stream.NewEngine(g, kernels, stream.Config{
		Algorithm:       cfg.Algorithm,
		Intervals:       cfg.Intervals,
		WatchdogTimeout: cfg.WatchdogTimeout,
		MaxBatch:        cfg.MaxBatch,
		NodeBatch:       cfg.NodeBatch,
		Cross:           cross,
		Obs:             cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	e.eng = eng
	for _, c := range e.carriers {
		e.wg.Add(1)
		go e.writeLoop(c)
	}
	for i, name := range ordered {
		e.byName[name] = i
		e.workers = append(e.workers, newEngineWorker(e, name))
	}
	for _, w := range e.workers {
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
	return e, nil
}

// carrier returns (creating on first use, NewEngine only) the carrier of
// the from→to direction.
func (e *Engine) carrier(from, to string) *carrier {
	key := [2]string{from, to}
	c := e.carriers[key]
	if c == nil {
		c = &carrier{from: from, to: to, box: stream.NewOutbox()}
		e.carriers[key] = c
	}
	return c
}

// writeLoop is the from→to link's writer: it encodes everything the node
// loops queued per wake-up into one buffer and issues one write on
// whichever link currently carries the direction.  It never waits for a
// batch to fill, so flow-control timing is what the node loops make it,
// and per-link FIFO order holds because messages and credits share the
// one outbox.  A parcel that cannot be encoded fails its session; a
// write that fails reports the peer down (the sessions fail with it, and
// what they still had queued is skipped by Drain).
func (e *Engine) writeLoop(c *carrier) {
	defer e.wg.Done()
	var buf []byte
	var frames, bodies int
	encode := func(p stream.Parcel) {
		if p.Run == nil {
			buf = appendCredit(buf, p.Session.ID(), p.Edge, p.Credits)
			frames, bodies = frames+1, bodies+p.Credits
			return
		}
		var n int
		var err error
		if buf, n, err = appendRun(buf, p.Session.ID(), p.Edge, p.Run); err != nil {
			p.Session.Fail(err)
			return
		}
		frames, bodies = frames+n, bodies+len(p.Run)
	}
	for c.box.Drain(encode) {
		if link := c.link.Load(); link != nil && len(buf) > 0 {
			c.fence.Add(1)
			if err := link.write(buf, frames, bodies); err != nil {
				e.noteWorkerDown(c.from, c.to, link.gen,
					fmt.Errorf("dist: write from %q to %q: %w", c.from, c.to, err))
			}
		}
		if cap(buf) > 1<<20 {
			buf = nil // don't pin a one-off huge batch
		}
		buf, frames, bodies = buf[:0], 0, 0
	}
}

// Open starts one logical stream.  It holds the engine lock across the
// stream engine's Open, so a session is either refused because a worker
// is down or visible to the repair that fails the sessions of one that
// goes down later — never in between.
func (e *Engine) Open(io SessionIO) (*EngineSession, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// A repair in flight is a topology mid-swap; wait it out so the
	// session starts on a whole mesh (this is what lets the retry layer
	// re-open immediately after a WorkerDownError).
	for e.repairing > 0 && !e.closed {
		e.repairCond.Wait()
	}
	if e.closed {
		return nil, ErrEngineClosed
	}
	if name := e.deadWorker(); name != "" {
		return nil, &fault.WorkerDownError{Worker: name, Addr: e.addrOf(name)}
	}
	return e.eng.Open(io)
}

// Close fails every active session with ErrEngineClosed and tears the
// node loops and the resident workers down; idempotent.
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
	workers := append([]*engineWorker(nil), e.workers...)
	e.mu.Unlock()
	e.eng.Close()
	close(e.stop)
	for _, w := range workers {
		w.close()
	}
	for _, c := range e.carriers {
		c.box.Close()
	}
	e.wg.Wait()
	return nil
}

// workerSnapshot copies the live worker set (entries swap on restart).
func (e *Engine) workerSnapshot() []*engineWorker {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*engineWorker(nil), e.workers...)
}

func (e *Engine) addrOf(name string) string {
	addrsMu.Lock()
	defer addrsMu.Unlock()
	return e.addrs[name]
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
// and drops reports that cannot be trusted: from a reporter ("" for
// none) that is itself the dying worker (a killed worker's own failed
// sends must not condemn healthy peers), or carrying a stale generation
// (errors on a link to an incarnation that was already replaced).
func (e *Engine) noteWorkerDown(reporter, name string, gen int, cause error) {
	if e.closedA.Load() {
		return
	}
	e.downMu.Lock()
	if e.down[name] || gen != e.gen[name] || (reporter != "" && e.down[reporter]) {
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
	active := e.eng.Active()
	e.mu.Unlock()
	ids := make([]uint64, len(active))
	for i, s := range active {
		ids[i] = uint64(s.ID())
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if e.obsF != nil {
		e.obsF.WorkersDown.Add(1)
	}
	if e.det != nil {
		e.det.MarkDead(name)
	}
	wd := &fault.WorkerDownError{Worker: name, Addr: e.addrOf(name), Sessions: ids, Cause: cause}
	for _, s := range active {
		s.Fail(wd)
	}
	// Closing the worker tears its listener and links down.  The dead
	// worker's own in-flight writes fail here — those reports are
	// suppressed by the reporter-down rule above.
	old.close()
	if e.cfg.Restart && !e.closedA.Load() {
		if err := e.restartWorker(name); err == nil {
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
func (e *Engine) restartWorker(name string) error {
	addrsMu.Lock()
	e.addrs[name] = "127.0.0.1:0"
	addrsMu.Unlock()
	nw := newEngineWorker(e, name)
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
	e.noteWorkerDown("", name, e.genOf(name), errors.New("dist: worker killed"))
	return nil
}

// monitor is the heartbeat failure detector: workers beat each other
// over the data links (any frame counts), and a worker silent for
// HeartbeatMiss intervals is declared down.
func (e *Engine) monitor() {
	ticker := time.NewTicker(e.cfg.HeartbeatInterval)
	defer ticker.Stop()
	// The silence that counts starts now, with the beat senders running —
	// not when the detector was built, before the mesh was dialed.
	prev := time.Now()
	for _, name := range e.names {
		e.det.Revive(name, prev)
	}
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			// All workers share this process: when the monitor's own tick
			// is late, whatever held it up (a descheduled VM, a long pause)
			// held the beat senders and frame readers up too, and the
			// silence proves nothing.  Give them a tick to catch up.
			now := time.Now()
			late := now.Sub(prev) > 2*e.cfg.HeartbeatInterval
			prev = now
			if late {
				continue
			}
			for _, name := range e.det.Expired(now) {
				if e.obsF != nil {
					e.obsF.HeartbeatsMissed.Add(1)
				}
				e.noteWorkerDown("", name, e.genOf(name),
					fmt.Errorf("dist: worker %q missed %d heartbeat intervals", name, e.cfg.HeartbeatMiss))
			}
		}
	}
}

// fail is the engine-wide failure path (a frame that violates the
// protocol): every active session dies with the error.
func (e *Engine) fail(err error) {
	for _, s := range e.eng.Active() {
		s.Fail(err)
	}
}

// ---------------------------------------------------------------------
// Resident workers.

// engineWorker is one resident worker's transport: a listener, the frame
// readers of its accepted connections, and the links it dialed.  The
// nodes the partition assigns to it run in the Engine's stream engine.
type engineWorker struct {
	e         *Engine
	name      string
	peerNames []string // every worker this one shares an edge with, sorted

	ln     net.Listener
	hbStop chan struct{} // non-nil when this worker sends heartbeats

	mu       sync.Mutex
	accepted []net.Conn
	closed   bool
	connWG   sync.WaitGroup
}

func newEngineWorker(e *Engine, name string) *engineWorker {
	w := &engineWorker{e: e, name: name}
	for key := range e.carriers {
		if key[0] == name {
			w.peerNames = append(w.peerNames, key[1])
		}
	}
	sort.Strings(w.peerNames)
	return w
}

func (w *engineWorker) listen() error {
	ln, err := net.Listen("tcp", w.e.addrOf(w.name))
	if err != nil {
		return err
	}
	w.ln = ln
	addrsMu.Lock()
	w.e.addrs[w.name] = ln.Addr().String()
	addrsMu.Unlock()
	return nil
}

func (w *engineWorker) dialPeers() error {
	for _, p := range w.peerNames {
		if err := w.redial(p); err != nil {
			return err
		}
	}
	return nil
}

// redial points this worker's direction of the pair at a fresh link to
// peer — at start-up, or when peer was restarted — and retires the link
// it replaces.  Workers that share no edge with peer have nothing to do.
func (w *engineWorker) redial(peer string) error {
	c := w.e.carriers[[2]string{w.name, peer}]
	if c == nil {
		return nil
	}
	link, err := w.dialOne(peer)
	if err != nil {
		return err
	}
	if old := c.link.Swap(link); old != nil {
		old.conn.Close()
	}
	return nil
}

// dialOne connects to one peer (retrying until DialTimeout) and sends
// the hello.  The link records the peer's current death generation so
// later errors on it can be aged.
func (w *engineWorker) dialOne(p string) (*peerLink, error) {
	timeout := w.e.cfg.DialTimeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout)
	for {
		addr := w.e.addrOf(p)
		c, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			link := &peerLink{conn: c, gen: w.e.genOf(p)}
			if m := w.e.cfg.Obs; m != nil {
				link.stats = m.Link(w.name + "→" + p)
			}
			if err := link.write(appendHello(nil, w.name), 1, 0); err != nil {
				c.Close()
				return nil, err
			}
			return link, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: worker %q cannot reach %q at %s: %w", w.name, p, addr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// link returns this worker's current link to peer (nil before dialPeers).
func (w *engineWorker) link(peer string) *peerLink {
	return w.e.carriers[[2]string{w.name, peer}].link.Load()
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
	beat := appendBeat(nil)
	for {
		select {
		case <-w.hbStop:
			return
		case <-ticker.C:
			for _, p := range w.peerNames {
				link := w.link(p)
				if link == nil {
					continue
				}
				if err := link.write(beat, 1, 0); err != nil {
					w.e.noteWorkerDown(w.name, p, link.gen,
						fmt.Errorf("dist: heartbeat from %q to %q: %w", w.name, p, err))
				}
			}
		}
	}
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

// readBuffer sizes a connection's buffered reader: large enough that a
// writer's whole batch of frames usually costs one read syscall.
const readBuffer = 64 << 10

// serveConn reads one inbound connection's frames and hands their
// contents to the node loops.  It never blocks on a session — deliveries
// are mailbox posts — so the peer's writer always drains.  The frame
// buffer and the run scratch are reused across frames (parsers copy
// whatever they retain, Deliver copies the run), and the frames' 8-byte
// scalar payloads are boxed from one word arena per connection, which
// this goroutine alone uses.
func (w *engineWorker) serveConn(c net.Conn) {
	defer w.connWG.Done()
	defer c.Close()
	r := bufio.NewReaderSize(c, readBuffer)
	var buf []byte
	hello, err := readFrame(r, &buf)
	if err != nil {
		return
	}
	peer, err := parseHello(hello)
	if err != nil {
		return // stray client; not a peer
	}
	in := w.e.carriers[[2]string{peer, w.name}]
	if in == nil {
		return // no edge between the two: nothing it could carry
	}
	var rx *obs.LinkMetrics
	if m := w.e.cfg.Obs; m != nil {
		rx = m.Link(peer + "→" + w.name)
	}
	// The generation at hello time ages this connection: a read error
	// after the peer has already been replaced is stale, not news.
	gen := w.e.genOf(peer)
	det := w.e.det
	var run []stream.Message
	words := boxUint64.Arena()
	for {
		body, err := readFrame(r, &buf)
		if err != nil {
			if !w.isClosed() {
				w.e.noteWorkerDown(w.name, peer, gen,
					fmt.Errorf("dist: link from %q to %q broke: %w", peer, w.name, err))
			}
			return
		}
		in.fence.Load()
		if det != nil {
			det.Beat(peer, time.Now())
		}
		if rx != nil {
			rx.RxFrames.Add(1)
			rx.RxBytes.Add(int64(len(body)) + 4)
		}
		if err := w.handleBody(peer, body, &run, &words); err != nil {
			w.e.fail(err)
			return
		}
	}
}

func (w *engineWorker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// handleBody dispatches one frame body from peer; an error fails the
// engine's sessions and tears the connection down.  Everything in the
// frame is input from outside the program: the edge must be one that
// runs between the two workers in the frame's direction, and a count
// must fit the edge's capacity — what the sender's window would have
// allowed — before anything is decoded or posted.  Frames for sessions
// that are not open are dropped by the stream engine, not errors: a
// session that failed keeps receiving its peers' in-flight frames until
// they observe the teardown.
func (w *engineWorker) handleBody(peer string, body []byte, run *[]stream.Message, words *box.Arena[uint64]) error {
	switch body[0] {
	case frameBeat:
		// Pure liveness; serveConn already recorded the arrival.
		return nil
	case frameRun:
		sid, edge, count, elems, err := parseRunHeader(body)
		if err != nil {
			return err
		}
		if err = w.checkCross(edge, count, peer, w.name); err == nil {
			var msgs []stream.Message
			if msgs, err = decodeRun(elems, count, *run, words); err == nil {
				err = w.e.eng.Deliver(sid, edge, msgs)
				clear(msgs)
				*run = msgs
			}
		}
		if err != nil {
			return fmt.Errorf("dist: worker %q: run frame from %q for session %d on edge %d: %w", w.name, peer, sid, edge, err)
		}
		return nil
	case frameCredit:
		sid, edge, n, err := parseCredit(body)
		if err != nil {
			return err
		}
		if err = w.checkCross(edge, n, w.name, peer); err == nil {
			err = w.e.eng.Credit(sid, edge, n)
		}
		if err != nil {
			return fmt.Errorf("dist: worker %q: credit frame from %q for session %d on edge %d: %w", w.name, peer, sid, edge, err)
		}
		return nil
	default:
		return fmt.Errorf("dist: worker %q: unknown frame type %q from %q", w.name, body[0], peer)
	}
}

// checkCross accepts a frame's edge and count if the edge runs from a
// node on worker from to a node on worker to and the count is one the
// edge's window allows.
func (w *engineWorker) checkCross(edge graph.EdgeID, count int, from, to string) error {
	if int(edge) >= w.e.g.NumEdges() {
		return errors.New("no such edge")
	}
	ed := w.e.g.Edge(edge)
	if w.e.part[ed.From] != from || w.e.part[ed.To] != to {
		return fmt.Errorf("the edge runs %q→%q, not %q→%q", w.e.part[ed.From], w.e.part[ed.To], from, to)
	}
	if count < 1 || count > ed.Buf {
		return fmt.Errorf("count %d outside the edge's capacity 1..%d", count, ed.Buf)
	}
	return nil
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
	for _, p := range w.peerNames {
		if link := w.link(p); link != nil {
			link.conn.Close()
		}
	}
	for _, c := range conns {
		c.Close()
	}
	w.connWG.Wait()
}
