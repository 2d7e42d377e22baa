// Package dist is the loopback-partitioned runtime for streaming
// computations with filtering: the topology's nodes are partitioned across
// named workers, all hosted in this process, and an edge whose two ends
// sit on different workers crosses a real TCP link.  The node semantics
// are not re-implemented here: one resident stream.Engine runs every node,
// and a cross edge keeps the local window rule (stream/cross.go).  The
// producing node encodes each run as frames (codec.go) into the carrier
// of its direction, whose link writer sends what is pending in one write;
// the receiving worker's frame reader copies the run into the session's
// receive ring; and the consuming node's consumed count comes back,
// cumulative, in a credit frame.
//
// Nothing on the wire path can wedge the protocol.  A frame reader never
// blocks on a session — a run fits its ring's window, or fails the engine
// — so a peer's socket always drains, a link writer stuck in a full socket
// always gets going again, and node loops never wait on a writer.
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
	"sync"
	"sync/atomic"

	"streamdag/internal/graph"
	"streamdag/internal/obs"
	"streamdag/internal/proto"
	"streamdag/internal/stream"
)

// Partition assigns every node of the topology to a named worker.
type Partition map[graph.NodeID]string

// Config parameterizes NewEngine: it is the stream engine's own, and
// NewEngine sets Cross from the partition.  A single send puts one pass's
// run, up to 64 messages, in one frame; the wire itself has no batching
// knob — a link writer writes whatever is queued per wake-up, never
// waiting for more.  Obs also receives
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
	// local is conn's local address, the accepted end's remote one.
	local string
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

// feeds reports whether the accepted connection whose remote address is
// remote is the link's far end: on loopback the dialed end's local
// address is the accepted end's remote address.
func (p *peerLink) feeds(remote string) bool {
	return p != nil && p.local == remote
}

// carrier is one direction of one worker pair (a stream.Carrier): the
// frames the node loops encoded for that direction and not yet written,
// and the link currently carrying them.  The carrier lives as long as the
// Engine; the link is replaced whenever either end's links are re-dialed
// (relink).
type carrier struct {
	from, to string
	link     atomic.Pointer[peerLink]
	// fence makes the wire a synchronization edge inside this process:
	// the writer bumps it before a write and the reader of the same
	// direction loads it after each frame, so what a node did before
	// posting (the per-edge counters it bumped) happens-before what the
	// receiving node does with the message — which a socket alone would
	// not establish, although all workers share one address space.
	fence atomic.Uint64

	// mu guards the frames the node loops encoded and the writer has yet
	// to take, and their counts for the link's telemetry.  wake holds a
	// token while there are frames to take, and closes for the writer's
	// exit.
	mu             sync.Mutex
	pending        []byte
	frames, bodies int
	wake           chan struct{}
}

// Run appends run's frames to the pending bytes, which an error leaves as
// they were, and wakes the writer.
func (c *carrier) Run(sid proto.SessionID, edge graph.EdgeID, run []stream.Message) error {
	c.mu.Lock()
	buf, n, err := appendRun(c.pending, sid, edge, run)
	c.pending = buf
	if err == nil {
		c.frames, c.bodies = c.frames+n, c.bodies+len(run)
	}
	c.mu.Unlock()
	c.signal()
	return err
}

// Credit appends a credit frame carrying the consumed count and wakes the
// writer.
func (c *carrier) Credit(sid proto.SessionID, edge graph.EdgeID, consumed uint64) {
	c.mu.Lock()
	c.pending = appendCredit(c.pending, sid, edge, consumed)
	c.frames, c.bodies = c.frames+1, c.bodies+1
	c.mu.Unlock()
	c.signal()
}

// signal leaves the writer its wake token, unless one is waiting already.
func (c *carrier) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}
