// Package dist is the TCP-distributed runtime for streaming computations
// with filtering: the topology's nodes are partitioned across named
// workers, local edges stay buffered Go channels, and cross edges become
// length-prefixed frames over TCP with credit-based flow control that
// preserves each edge's finite buffer capacity over the wire.  Because
// the deadlock-avoidance intervals of Buhler et al. are computed against
// those capacities, the same dummy-message protection that works
// in-process works across workers — each worker drives the shared
// per-node protocol engine (internal/proto) around its local nodes, so
// the transport is the only thing that changes between backends.
//
// Lifecycle: NewEngine builds one resident worker per partition name,
// all hosted in the calling process on loopback listeners, and connects
// the peer mesh; Engine.Open serves each stream as a session over them;
// Engine.Close tears them down.  Workers in separate processes are not
// supported.
package dist

import (
	"fmt"
	"net"
	"sync"
	"time"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/ival"
	"streamdag/internal/obs"
	"streamdag/internal/stream"
)

// Partition assigns every node of the topology to a named worker.
type Partition map[graph.NodeID]string

// Config parameterizes NewEngine (mirrors stream.Config).
type Config struct {
	// Algorithm selects the dummy protocol when Intervals != nil.
	Algorithm cs4.Algorithm
	// Intervals are per-edge dummy intervals (nil disables avoidance).
	Intervals map[graph.EdgeID]ival.Interval
	// WatchdogTimeout is how long the watchdog waits without progress in
	// a session (messages moved, credits exchanged, on any worker) before
	// declaring it deadlocked.  Zero defaults to one second.
	WatchdogTimeout time.Duration
	// DialTimeout bounds connection establishment to each peer.  Zero
	// defaults to ten seconds.
	DialTimeout time.Duration
	// MaxBatch, when > 1, turns on transport-level write coalescing:
	// each peer link runs a dedicated writer that drains everything
	// queued per wakeup and packs up to MaxBatch frames into a single
	// aggregate wire frame — one syscall per batch instead of one per
	// message.  Draining is eager (a lone frame goes out immediately in
	// its plain form), so the message timing the protocol observes is
	// unchanged and the per-session logical stream — data, dummies,
	// credits — is identical to the unbatched wire.  Values of 0 and 1
	// write one frame per message.
	MaxBatch int
	// Obs, when non-nil, receives per-node/per-edge/per-session
	// telemetry, plus per-link wire stats (frames, bodies, bytes) keyed
	// "sender→receiver".  All workers share the one Metrics — the Engine
	// hosts them in-process.  Nil compiles instrumentation out of the hot
	// paths.
	Obs *obs.Metrics
	// HeartbeatInterval enables liveness tracking: each worker sends a
	// beat frame to every peer it holds a link to once per interval (any
	// frame counts as a beat, so loaded links pay nothing), and a monitor
	// declares a worker down — failing its sessions with a
	// *fault.WorkerDownError naming it — after HeartbeatMiss intervals of
	// silence.  Zero disables heartbeats: a dead worker is then noticed
	// only when a read or write on one of its links fails.
	HeartbeatInterval time.Duration
	// HeartbeatMiss is how many consecutive silent intervals are
	// tolerated before a worker is declared down; <1 defaults to 3.
	HeartbeatMiss int
	// Restart re-spawns a dead in-process worker (fresh listener, peers
	// re-dialed) so sessions retried by the layer above land on a whole
	// topology again.  Without it the engine stays degraded: sessions
	// touching the dead worker's nodes fail with *fault.WorkerDownError.
	Restart bool
}

// Stats is a session's traffic summary, merged across the workers.
type Stats = stream.Stats

// CallbackError reports a failure raised by the application's Source or
// Sink callback.
type CallbackError struct {
	// Op is "source" or "sink".
	Op  string
	Err error
}

func (e *CallbackError) Error() string { return fmt.Sprintf("dist: %s: %v", e.Op, e.Err) }

// Unwrap exposes the callback's error for errors.Is/As.
func (e *CallbackError) Unwrap() error { return e.Err }

// addrsMu serializes access to the address book the in-process workers
// share: listen publishes bound addresses into it while other workers may
// be listening or dialing concurrently.
var addrsMu sync.Mutex

// peerLink is an outbound connection to one peer worker; all frames this
// worker sends to that peer share it.
//
// With coalescing enabled (Config.MaxBatch > 1), send hands encoded
// bodies to a dedicated writer goroutine that drains the queue as fast
// as the wire accepts it, packing everything pending — up to maxBodies
// per frame — into one batch frame per syscall.  Draining is eager: the
// writer never waits for a batch to fill, so flow-control timing (and
// with it the deadlock argument) is unchanged, and per-link FIFO order
// holds because messages and credits share the one queue.  send takes
// ownership of body either way; drained bodies return to bodyPool.
type peerLink struct {
	name string
	conn net.Conn
	// gen is the generation of the peer this link was dialed against (the
	// Engine bumps a worker's generation every time it is declared down),
	// so errors surfacing on a stale link after the peer was already
	// replaced are recognized and suppressed.
	gen int
	mu  sync.Mutex
	// stats, when non-nil, receives this link's transmit-side wire
	// telemetry: one TxFrame per conn.Write, one TxBody per logical body
	// (so TxBodies/TxFrames is the realized coalescing factor).
	stats *obs.LinkMetrics

	coalesce  bool
	maxBodies int
	qmu       sync.Mutex
	qcond     *sync.Cond
	queue     [][]byte
	qclosed   bool
	qerr      error
	wg        sync.WaitGroup
}

func (p *peerLink) send(body []byte) error {
	if len(body) > maxFrame {
		return fmt.Errorf("dist: frame of %d bytes to %q exceeds the %d-byte limit (payload too large)",
			len(body), p.name, maxFrame)
	}
	if p.coalesce {
		return p.enqueue(body)
	}
	f := frameFor(body)
	p.mu.Lock()
	defer p.mu.Unlock()
	n, err := p.conn.Write(f)
	if p.stats != nil {
		p.stats.TxFrames.Add(1)
		p.stats.TxBodies.Add(1)
		p.stats.TxBytes.Add(int64(n))
	}
	putBody(body)
	return err
}

// startCoalescer switches the link to queued writes and launches the
// drain goroutine.  Call once, after the synchronous hello, before any
// concurrent sends; onErr reports an asynchronous write failure exactly
// once.
func (p *peerLink) startCoalescer(maxBodies int, onErr func(error)) {
	p.coalesce = true
	p.maxBodies = maxBodies
	p.qcond = sync.NewCond(&p.qmu)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.writeLoop(onErr)
	}()
}

// stopCoalescer wakes the writer for exit and waits for it.  Pending
// frames are dropped — the engine only stops the writer at teardown,
// after every session has already ended.  Harmless when the coalescer
// was never started.
func (p *peerLink) stopCoalescer() {
	if !p.coalesce {
		return
	}
	p.qmu.Lock()
	p.qclosed = true
	p.qmu.Unlock()
	p.qcond.Broadcast()
	p.wg.Wait()
}

func (p *peerLink) enqueue(body []byte) error {
	p.qmu.Lock()
	if p.qerr != nil || p.qclosed {
		err := p.qerr
		p.qmu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return err
	}
	p.queue = append(p.queue, body)
	p.qmu.Unlock()
	p.qcond.Signal()
	return nil
}

func (p *peerLink) writeLoop(onErr func(error)) {
	var pending [][]byte
	for {
		p.qmu.Lock()
		for len(p.queue) == 0 && !p.qclosed {
			p.qcond.Wait()
		}
		if p.qclosed {
			p.qmu.Unlock()
			return
		}
		// Slice ping-pong: take the whole queue, hand back the drained
		// (now empty) slice so steady state allocates nothing.
		pending, p.queue = p.queue, pending[:0]
		p.qmu.Unlock()
		if err := p.flushPending(pending); err != nil {
			p.qmu.Lock()
			p.qerr = err
			p.qmu.Unlock()
			onErr(err)
			return
		}
		for i := range pending {
			putBody(pending[i])
			pending[i] = nil
		}
	}
}

// flushPending writes the drained bodies in order, packing runs of up to
// maxBodies (bounded by maxFrame) into one batch frame per conn.Write; a
// lone body goes out as a plain frame, byte-identical to the sync path.
func (p *peerLink) flushPending(bodies [][]byte) error {
	var frame []byte
	for len(bodies) > 0 {
		n, size := 0, 0
		for n < len(bodies) && n < p.maxBodies {
			need := 4 + len(bodies[n])
			if n > 0 && 5+size+need > maxFrame {
				break
			}
			size += need
			n++
		}
		if n == 1 {
			wrote, err := p.conn.Write(frameFor(bodies[0]))
			if err != nil {
				return err
			}
			if p.stats != nil {
				p.stats.TxFrames.Add(1)
				p.stats.TxBodies.Add(1)
				p.stats.TxBytes.Add(int64(wrote))
			}
		} else {
			if frame == nil {
				frame = getBody()
			}
			frame = appendBatchFrame(frame[:0], bodies[:n])
			wrote, err := p.conn.Write(frame)
			if err != nil {
				return err
			}
			if p.stats != nil {
				p.stats.TxFrames.Add(1)
				p.stats.TxBodies.Add(int64(n))
				p.stats.TxBytes.Add(int64(wrote))
			}
		}
		bodies = bodies[n:]
	}
	if frame != nil {
		putBody(frame)
	}
	return nil
}
