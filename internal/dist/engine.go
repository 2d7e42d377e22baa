package dist

// This file is the resident distributed runtime: an Engine keeps one
// loopback listener per worker, a dialed link per direction of every
// worker pair sharing an edge, their frame readers and link writers, and
// one stream.Engine over the whole topology alive across unboundedly many
// logical streams, so binding listeners, dialing peers and spawning node
// loops are paid once per topology.
//
// Sessions are the stream engine's: each owns its sequence space, its
// per-node protocol state and its per-edge credit windows, so each is,
// protocol-wise, a stream running alone on the topology, and the dummy
// intervals protect it independently of its neighbours.  They are
// multiplexed over the shared TCP links by the session id every run and
// credit frame carries.  What this file adds to a session is what a wire
// can do to it: a link that breaks, or a KillWorker, fails the sessions
// open at that moment with a *fault.WorkerDownError naming the worker and
// re-dials its links in place, and a frame that does not parse, or names
// an edge or a count the topology rules out, fails them with an error
// naming the frame.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"streamdag/internal/box"
	"streamdag/internal/fault"
	"streamdag/internal/graph"
	"streamdag/internal/obs"
	"streamdag/internal/stream"
)

// Engine is the resident distributed runtime for one topology.
type Engine struct {
	g    *graph.Graph
	part Partition
	cfg  Config

	// eng runs every node of the topology; carriers carry its cross edges,
	// one per direction of every worker pair sharing an edge.
	// Neither map changes after NewEngine, and neither does listeners, the
	// one loopback listener per worker.
	eng       *stream.Engine
	carriers  map[[2]string]*carrier // keyed {from, to}
	listeners map[string]net.Listener
	obsF      *obs.FaultMetrics // nil without Config.Obs

	// mu orders Open, KillWorker, link errors and Close: a relink runs
	// whole under it, so a session opens either before it (and fails with
	// it) or after it (on the re-dialed links).
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{} // accepted connections still being read

	wg sync.WaitGroup // link writers, accept loops, frame readers
}

// NewEngine starts the node loops (stream.NewEngine validates g), binds
// one listener per distinct partition name, and dials the peer mesh;
// ingestion and delivery are per session (SessionIO).
func NewEngine(g *graph.Graph, partition Partition, kernels map[graph.NodeID]stream.Kernel, cfg Config) (*Engine, error) {
	e := &Engine{
		g: g, part: partition, cfg: cfg,
		carriers:  make(map[[2]string]*carrier),
		listeners: make(map[string]net.Listener),
		conns:     make(map[net.Conn]struct{}),
	}
	for n := 0; n < g.NumNodes(); n++ {
		if _, ok := partition[graph.NodeID(n)]; !ok {
			return nil, fmt.Errorf("dist: node %q not assigned to any worker", g.Name(graph.NodeID(n)))
		}
	}
	if m := cfg.Obs; m != nil {
		e.obsF = m.Faults()
	}
	cross := make(map[graph.EdgeID]stream.CrossEdge)
	for _, ed := range g.Edges() {
		if from, to := partition[ed.From], partition[ed.To]; from != to {
			cross[ed.ID] = stream.CrossEdge{Msgs: e.carrier(from, to), Credits: e.carrier(to, from)}
		}
	}
	cfg.Cross = cross
	eng, err := stream.NewEngine(g, kernels, cfg)
	if err != nil {
		return nil, err
	}
	e.eng = eng
	for _, c := range e.carriers {
		e.wg.Add(1)
		go e.writeLoop(c)
	}
	for n := 0; n < g.NumNodes(); n++ {
		name := partition[graph.NodeID(n)]
		if e.listeners[name] != nil {
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.Close()
			return nil, err
		}
		e.listeners[name] = ln
		e.wg.Add(1)
		go e.acceptLoop(name, ln)
	}
	for _, c := range e.carriers {
		if err := e.dial(c); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// carrier returns (creating on first use, NewEngine only) the carrier of
// the from→to direction.
func (e *Engine) carrier(from, to string) *carrier {
	key := [2]string{from, to}
	c := e.carriers[key]
	if c == nil {
		c = &carrier{from: from, to: to, wake: make(chan struct{}, 1)}
		e.carriers[key] = c
	}
	return c
}

// writeLoop is the from→to link's writer: per wake-up it swaps out every
// frame the node loops encoded into the carrier and issues one write on
// whichever link currently carries the direction, until Close closes its
// wake channel.  It never waits for a batch to fill, so flow-control
// timing is what the node loops make it, and per-link FIFO order holds
// because runs and credits share the one carrier.  A write that fails on
// the current link re-links the peer (the sessions fail with it, and what
// they still had pending is dropped on arrival).
func (e *Engine) writeLoop(c *carrier) {
	defer e.wg.Done()
	var buf []byte
	for open := true; open; {
		_, open = <-c.wake
		c.mu.Lock()
		buf, c.pending = c.pending, buf
		frames, bodies := c.frames, c.bodies
		c.frames, c.bodies = 0, 0
		c.mu.Unlock()
		if link := c.link.Load(); link != nil && len(buf) > 0 {
			c.fence.Add(1)
			if err := link.write(buf, frames, bodies); err != nil {
				e.linkBroke(c, link, c.to, fmt.Errorf("dist: write from %q to %q: %w", c.from, c.to, err))
			}
		}
		if cap(buf) > 1<<20 {
			buf = nil // don't pin a one-off huge batch
		}
		buf = buf[:0]
	}
}

// Open starts one logical stream.  It holds the engine lock across the
// stream engine's Open, so a session is either visible to a relink that
// fails the sessions open at that moment or starts after it, on the
// re-dialed links — never in between.
func (e *Engine) Open(io SessionIO) (*EngineSession, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrEngineClosed
	}
	return e.eng.Open(io)
}

// Close fails every active session with ErrEngineClosed and tears the
// node loops, listeners and links down; idempotent.  Both ends of every
// link close at once (closeNow): no session is left to carry.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := make([]net.Conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()
	e.eng.Close()
	for _, ln := range e.listeners {
		ln.Close()
	}
	for _, c := range conns {
		closeNow(c)
	}
	for _, c := range e.carriers {
		close(c.wake) // the node loops, the only senders, are gone
		if link := c.link.Load(); link != nil {
			closeNow(link.conn)
		}
	}
	e.wg.Wait()
	return nil
}

// KillWorker drops every link the named worker shares with a peer, as a
// crash of its transport would: the active sessions fail with a
// *fault.WorkerDownError naming it, and the links are re-dialed before
// KillWorker returns, so the next Open runs on a whole mesh.
func (e *Engine) KillWorker(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.listeners[name] == nil {
		return fmt.Errorf("dist: no worker %q", name)
	}
	if e.closed {
		return ErrEngineClosed
	}
	return e.relink(name, errors.New("dist: worker killed"))
}

// linkBroke handles an error on link, which carried c's direction toward
// or from peer.  It counts only if link is still c's current one: a link
// that relink or Close already replaced or closed fails as expected.
func (e *Engine) linkBroke(c *carrier, link *peerLink, peer string, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed && c.link.Load() == link {
		// A direction that cannot be re-dialed keeps its broken link, so
		// its next write comes back here and tries again.
		_ = e.relink(peer, err)
	}
}

// relink is the one response to a worker going down, whether KillWorker
// says so or one of its links broke; e.mu is held.  It fails the active
// sessions with a *fault.WorkerDownError naming the worker, its address
// and their IDs, then gives each direction the worker shares with a peer
// a freshly dialed link before closing the old one.  Frames still on the
// old links belong to the failed sessions: their readers drop them, and
// so does the stream engine, for an ended session.
func (e *Engine) relink(name string, cause error) error {
	active := e.eng.Active()
	ids := make([]uint64, len(active))
	for i, s := range active {
		ids[i] = uint64(s.ID())
	}
	slices.Sort(ids)
	if e.obsF != nil {
		e.obsF.WorkersDown.Add(1)
	}
	wd := &fault.WorkerDownError{Worker: name, Addr: e.listeners[name].Addr().String(), Sessions: ids, Cause: cause}
	for _, s := range active {
		s.Fail(wd)
	}
	for key, c := range e.carriers {
		if key[0] == name || key[1] == name {
			if err := e.dial(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// dialTimeout bounds connecting to a worker's loopback listener.
const dialTimeout = 10 * time.Second

// dial connects c's direction to the receiving worker's listener, sends
// the hello, and swaps the new link in before closing the one it
// replaces, so the writer never finds the direction without a link.  The
// old link closes at once (closeNow): what it could still carry belongs
// to the sessions relink failed.
func (e *Engine) dial(c *carrier) error {
	addr := e.listeners[c.to].Addr().String()
	conn, err := (&net.Dialer{Timeout: dialTimeout}).Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: worker %q cannot reach %q at %s: %w", c.from, c.to, addr, err)
	}
	link := &peerLink{conn: conn, local: conn.LocalAddr().String()}
	if m := e.cfg.Obs; m != nil {
		link.stats = m.Link(c.from + "→" + c.to)
	}
	if err := link.write(appendHello(nil, c.from), 1, 0); err != nil {
		conn.Close()
		return err
	}
	if old := c.link.Swap(link); old != nil {
		closeNow(old.conn)
	}
	return nil
}

// closeNow closes c with a reset rather than the orderly shutdown, so
// neither end is left in TIME_WAIT holding a loopback port for a minute:
// a link closes only once every frame it could still carry belongs to an
// ended session.
func closeNow(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	c.Close()
}

// fail is the engine-wide failure path (a frame that violates the
// protocol): every active session dies with the error.
func (e *Engine) fail(err error) {
	for _, s := range e.eng.Active() {
		s.Fail(err)
	}
}

// acceptLoop serves worker self's listener until Close closes it.
func (e *Engine) acceptLoop(self string, ln net.Listener) {
	defer e.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.conns[c] = struct{}{}
		e.wg.Add(1)
		e.mu.Unlock()
		go e.serveConn(self, c)
	}
}

// readBuffer sizes a connection's buffered reader: large enough that a
// writer's whole batch of frames usually costs one read syscall.
const readBuffer = 64 << 10

// serveConn reads one connection accepted by worker self and hands the
// frames' contents to the stream engine.  It never blocks on a session —
// a delivery is a copy into a ring whose window has room — so the peer's
// writer always drains.  Only the connection that carries the link hands
// frames on: a replaced or stray one has its well-formed frames dropped,
// which keeps one writer per receive ring and per consumed count.
// The frame buffer and the run scratch are reused across frames (parsers
// copy whatever they retain, Deliver copies the run), and the frames'
// 8-byte scalar payloads are boxed from one word arena per connection,
// which this goroutine alone uses.
func (e *Engine) serveConn(self string, c net.Conn) {
	defer e.wg.Done()
	defer func() {
		e.mu.Lock()
		delete(e.conns, c)
		e.mu.Unlock()
		c.Close()
	}()
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
	in := e.carriers[[2]string{peer, self}]
	if in == nil {
		return // no edge between the two: nothing it could carry
	}
	var rx *obs.LinkMetrics
	if m := e.cfg.Obs; m != nil {
		rx = m.Link(peer + "→" + self)
	}
	var run []stream.Message
	words := boxUint64.Arena()
	remote := c.RemoteAddr().String()
	for {
		body, err := readFrame(r, &buf)
		if err != nil {
			if link := in.link.Load(); link.feeds(remote) {
				e.linkBroke(in, link, peer, fmt.Errorf("dist: link from %q to %q broke: %w", peer, self, err))
			}
			return
		}
		in.fence.Load()
		if rx != nil {
			rx.RxFrames.Add(1)
			rx.RxBytes.Add(int64(len(body)) + 4)
		}
		if err := e.handleBody(peer, self, in.link.Load().feeds(remote), body, &run, &words); err != nil {
			e.fail(err)
			return
		}
	}
}

// handleBody dispatches one frame body that worker self received from
// peer, on a connection that carries the link if feeds; an error fails
// the engine's sessions and tears the connection down.  Everything in the
// frame is input from outside the program: the edge must be one that
// runs between the two workers in the frame's direction, and a run must
// fit the edge's capacity — what the sender's window would have allowed —
// before anything is decoded or delivered.  Frames for sessions that are
// not open are dropped by the stream engine, not errors: a session that
// failed keeps receiving its peers' in-flight frames until they observe
// the teardown.
func (e *Engine) handleBody(peer, self string, feeds bool, body []byte, run *[]stream.Message, words *box.Arena[uint64]) error {
	switch body[0] {
	case frameRun:
		sid, edge, count, elems, err := parseRunHeader(body)
		if err != nil {
			return err
		}
		if err = e.checkCross(edge, peer, self); err == nil && (count < 1 || count > e.g.Edge(edge).Buf) {
			err = fmt.Errorf("count %d outside the edge's capacity 1..%d", count, e.g.Edge(edge).Buf)
		}
		if err == nil {
			var msgs []stream.Message
			if msgs, err = decodeRun(elems, count, *run, words); err == nil {
				if feeds {
					err = e.eng.Deliver(sid, edge, msgs)
				}
				clear(msgs)
				*run = msgs
			}
		}
		if err != nil {
			return fmt.Errorf("dist: worker %q: run frame from %q for session %d on edge %d: %w", self, peer, sid, edge, err)
		}
		return nil
	case frameCredit:
		sid, edge, consumed, err := parseCredit(body)
		if err != nil {
			return err
		}
		if err = e.checkCross(edge, self, peer); err != nil {
			return fmt.Errorf("dist: worker %q: credit frame from %q for session %d on edge %d: %w", self, peer, sid, edge, err)
		}
		if feeds {
			e.eng.Credit(sid, edge, consumed)
		}
		return nil
	default:
		return fmt.Errorf("dist: worker %q: unknown frame type %q from %q", self, body[0], peer)
	}
}

// checkCross accepts a frame's edge if it runs from a node on worker
// from to a node on worker to.
func (e *Engine) checkCross(edge graph.EdgeID, from, to string) error {
	if int(edge) >= e.g.NumEdges() {
		return errors.New("no such edge")
	}
	ed := e.g.Edge(edge)
	if e.part[ed.From] != from || e.part[ed.To] != to {
		return fmt.Errorf("the edge runs %q→%q, not %q→%q", e.part[ed.From], e.part[ed.To], from, to)
	}
	return nil
}
