// Package dist is the TCP-distributed runtime for streaming computations
// with filtering: the topology's nodes are partitioned across named
// workers, and an edge whose two ends sit on different workers crosses a
// real TCP link.  The node semantics are not re-implemented here: one
// resident stream.Engine runs every node — spans, ProcessSpan, span
// sources and sinks, timed stages, the watchdog and its wedge report —
// and this package is the detour its cross edges take (stream/cross.go).
// The producing node's sends and the consuming node's credit returns are
// posted into the sending worker's per-link outbox; a link writer drains
// the outbox, encodes each wake-up's parcels as run and credit frames
// (codec.go) and issues one write; the receiving worker's frame reader
// decodes them and posts the same events into the real node's mailbox.
// The sender-side window is the stream engine's own per-session
// inflight-vs-capacity check, so a cross edge never holds more messages
// than the capacity the deadlock-avoidance intervals of Buhler et al.
// were computed against, by the same code as in-process.
//
// Nothing on the wire path can wedge the protocol.  A frame reader never
// blocks on a session: mailboxes are unbounded, and what a session can
// have queued in them is bounded by its windows.  So a peer's socket
// always drains, a link writer stuck in a full socket always gets going
// again, and node loops never wait on a writer at all (outbox posts do
// not block).
//
// Lifecycle: NewEngine builds one resident worker per partition name —
// a loopback listener, a dialed link to every peer it shares an edge
// with — all hosted in the calling process, plus the stream engine over
// the whole topology; Engine.Open serves each stream as a session;
// Engine.Close tears everything down.  Workers in separate processes are
// not supported: sessions, their counters and their Source/Sink live in
// the one process.
package dist

import (
	"net"
	"sync"
	"sync/atomic"
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
	// MaxBatch is stream.Config.MaxBatch: the vectorization width of the
	// node loops, and so the longest run a single send puts in one frame.
	// The wire itself has no batching knob: a link writer is always on
	// and always eager — it writes whatever is queued per wake-up, never
	// waiting for more — so the message timing the protocol observes, and
	// each session's logical stream, are the same at every width.
	MaxBatch int
	// NodeBatch is stream.Config.NodeBatch (the Flow tier's Stage.Batch).
	NodeBatch map[graph.NodeID]int
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

// Stats is a session's traffic summary.
type Stats = stream.Stats

// SessionIO parameterizes one Engine.Open.
type SessionIO = stream.SessionConfig

// EngineSession is one logical stream served by the engine.
type EngineSession = stream.EngineSession

// ErrEngineClosed is returned by Engine.Open after Close, and is the
// failure recorded against sessions still active when Close runs.
var ErrEngineClosed = stream.ErrEngineClosed

// addrsMu serializes access to the address book the in-process workers
// share: listen publishes bound addresses into it while other workers may
// be listening or dialing concurrently.
var addrsMu sync.Mutex

// peerLink is an outbound connection to one peer worker; all frames this
// worker sends to that peer share it.
type peerLink struct {
	conn net.Conn
	// gen is the generation of the peer this link was dialed against (the
	// Engine bumps a worker's generation every time it is declared down),
	// so errors surfacing on a stale link after the peer was already
	// replaced are recognized and suppressed.
	gen int
	// mu orders the link writer's batches with the heartbeat sender.
	mu sync.Mutex
	// stats, when non-nil, receives this link's transmit-side wire
	// telemetry.
	stats *obs.LinkMetrics
}

// write sends frames — one or more complete frames carrying bodies
// protocol messages and credits — in one conn.Write.
func (p *peerLink) write(frames []byte, nframes, bodies int) error {
	p.mu.Lock()
	n, err := p.conn.Write(frames)
	p.mu.Unlock()
	if p.stats != nil {
		p.stats.TxFrames.Add(int64(nframes))
		p.stats.TxBodies.Add(int64(bodies))
		p.stats.TxBytes.Add(int64(n))
	}
	return err
}

// carrier is one direction of one worker pair: the outbox the stream
// engine posts that direction's cross-edge traffic into, and the link
// currently carrying it.  The outbox lives as long as the Engine; the
// link swaps when either end is restarted.
type carrier struct {
	from, to string
	box      *stream.Outbox
	link     atomic.Pointer[peerLink]
	// fence makes the wire a synchronization edge inside this process:
	// the writer bumps it before a write and the reader of the same
	// direction loads it after each frame, so what a node did before
	// posting (the per-edge counters it bumped) happens-before what the
	// receiving node does with the message — which a socket alone would
	// not establish, although all workers share one address space.
	fence atomic.Uint64
}
