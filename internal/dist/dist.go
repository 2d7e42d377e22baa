// Package dist is the loopback-partitioned runtime for streaming
// computations with filtering: the topology's nodes are partitioned across
// named workers, all hosted in this process, and an edge whose two ends
// sit on different workers crosses a real TCP link.  The node semantics
// are not re-implemented here: one resident stream.Engine runs every node
// — spans, ProcessSpan, span sources and sinks, timed stages, the
// watchdog and its wedge report — and this package is the detour its
// cross edges take (stream/cross.go).
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
// Lifecycle: NewEngine gives every partition name a loopback listener and
// dials a link for each direction of every worker pair that shares an
// edge, plus the stream engine over the whole topology; Engine.Open
// serves each stream as a session; Engine.KillWorker drops a worker's
// links and re-dials them in place; Engine.Close tears everything down.
// Workers in separate processes are not supported: sessions, their
// counters and their Source/Sink live in the one process, so a worker
// cannot go silent without one of its links breaking.
package dist

import (
	"net"
	"sync/atomic"

	"streamdag/internal/graph"
	"streamdag/internal/obs"
	"streamdag/internal/stream"
)

// Partition assigns every node of the topology to a named worker.
type Partition map[graph.NodeID]string

// Config parameterizes NewEngine: it is the stream engine's own, and
// NewEngine sets Cross from the partition.  MaxBatch is the longest run a
// single send puts in one frame; the wire itself has no batching knob — a
// link writer writes whatever is queued per wake-up, never waiting for
// more — so the message timing the protocol observes, and each session's
// logical stream, are the same at every width.  Obs also receives
// per-link wire stats (frames, bodies, bytes) keyed "sender→receiver".
type Config = stream.Config

// Stats is a session's traffic summary.
type Stats = stream.Stats

// SessionIO parameterizes one Engine.Open.
type SessionIO = stream.SessionConfig

// EngineSession is one logical stream served by the engine.
type EngineSession = stream.EngineSession

// ErrEngineClosed is returned by Engine.Open after Close, and is the
// failure recorded against sessions still active when Close runs.
var ErrEngineClosed = stream.ErrEngineClosed

// peerLink is the dialed end of one direction's connection; its link
// writer is the only goroutine that writes on it once it carries traffic.
type peerLink struct {
	conn net.Conn
	// stats, when non-nil, receives this link's transmit-side wire
	// telemetry.
	stats *obs.LinkMetrics
}

// write sends frames — one or more complete frames carrying bodies
// protocol messages and credits — in one conn.Write.
func (p *peerLink) write(frames []byte, nframes, bodies int) error {
	n, err := p.conn.Write(frames)
	if p.stats != nil {
		p.stats.TxFrames.Add(int64(nframes))
		p.stats.TxBodies.Add(int64(bodies))
		p.stats.TxBytes.Add(int64(n))
	}
	return err
}

// feeds reports whether c is the accepted end of the link: on loopback
// the dialed end's local address is the accepted end's remote address.
func (p *peerLink) feeds(c net.Conn) bool {
	return p != nil && p.conn.LocalAddr().String() == c.RemoteAddr().String()
}

// carrier is one direction of one worker pair: the outbox the stream
// engine posts that direction's cross-edge traffic into, and the link
// currently carrying it.  The outbox lives as long as the Engine; the
// link is replaced whenever either end's links are re-dialed (relink).
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
