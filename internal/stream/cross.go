package stream

// This file is the seam a transport plugs into: an edge named in
// Config.Cross keeps both of its nodes in this Engine and the window rule
// of a local edge (ring.go), split across a wire.  The producer's half is
// ringless: it hands each run to the edge's Msgs carrier, and Credit
// stores the far consumer's count as its consumed.  The consumer drains a
// receive ring whose one producer is the transport's reader (Deliver), and
// hands its count, absolute, to the Credits carrier.  Both halves hold
// sent − consumed to the edge's Buf, so a cross edge never holds more
// messages — queued, on the wire or unconsumed — than the dummy intervals
// were computed for.

import (
	"fmt"

	"streamdag/internal/graph"
	"streamdag/internal/proto"
)

// Carrier takes one direction of a transport link.  Run takes a run that
// a producing node sent on a cross edge going that way; its error (a
// payload the transport cannot carry) fails the session.  Credit takes
// the consumed count a consuming node reached on a cross edge coming
// back.  Node loops call both, so neither may wait on the far side.
type Carrier interface {
	Run(sid proto.SessionID, edge graph.EdgeID, run []Message) error
	Credit(sid proto.SessionID, edge graph.EdgeID, consumed uint64)
}

// CrossEdge names the carriers of one cross edge: Msgs takes what the
// producing node sends, Credits what the consuming node acknowledges.
type CrossEdge struct {
	Msgs, Credits Carrier
}

// crossEnds locates a cross edge's carriers, its two nodes, and its
// receive side, edges[recv] in a session's record.
type crossEnds struct {
	CrossEdge
	from, to *engineNode
	recv     int
}

// inSlot is the index of edge's consumer-side counts in a session's
// edges: the edge's own, or a cross edge's receive side.
func (e *Engine) inSlot(edge graph.EdgeID) int {
	if int(edge) < len(e.cross) && e.cross[edge].to != nil {
		return e.cross[edge].recv
	}
	return int(edge)
}

// Deliver publishes a run that crossed the wire on edge, a cross edge, on
// the receive ring of the session with that id, as a local producer's
// send would (put), and so kicks the consuming node.  A session that is
// not (or no longer) open drops the run: its peers' frames stay in flight
// until they observe the teardown.  The caller is the ring's one producer.
// The error is for a run that would hold the edge past its Buf: more than
// the sender's window allowed.
func (e *Engine) Deliver(sid proto.SessionID, edge graph.EdgeID, run []Message) error {
	x := &e.cross[edge]
	ses := e.hold(sid)
	if ses == nil {
		return nil
	}
	defer ses.unhold()
	c := &ses.edges[x.recv]
	live := int(c.occupancy())
	if buf := e.g.Edge(edge).Buf; live+len(run) > buf {
		return fmt.Errorf("stream: session %d: run of %d on edge %s with %d of its %d unconsumed",
			sid, len(run), e.edgeName(edge), live, buf)
	}
	ses.put(c, live, run, x.to)
	return nil
}

// Credit stores consumed, the count the far consumer of edge, a cross
// edge, acknowledged, as the producer's consumed count for the session
// with that id, and kicks the producing node if it stalled on the full
// window (consume).  Counts are absolute: one no larger than the last is a
// repeat and changes nothing, and one above what the producer sent fails
// the session.  The caller is the count's one writer.
func (e *Engine) Credit(sid proto.SessionID, edge graph.EdgeID, consumed uint64) {
	ses := e.hold(sid)
	if ses == nil {
		return
	}
	defer ses.unhold()
	c := &ses.edges[edge]
	if sent, ok := c.covers(consumed); !ok {
		ses.end(fmt.Errorf("stream: session %d: credit for %d messages on edge %s, of %d sent",
			sid, consumed, e.edgeName(edge), sent), nil)
	} else if c.consume(int64(consumed)) {
		ses.kick(e.cross[edge].from)
	}
}

func (e *Engine) edgeName(edge graph.EdgeID) string {
	ed := e.g.Edge(edge)
	return e.g.Name(ed.From) + "→" + e.g.Name(ed.To)
}

// hold returns the open session with the given id with a hold taken on
// its record (see unhold), or nil.  The hold is taken under e.mu while
// the session is registered, so its done hold still stands and the
// record cannot be scrubbed while the caller writes it.
func (e *Engine) hold(id proto.SessionID) *EngineSession {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.sessions[id]
	if s == nil || s.ended.Load() {
		return nil
	}
	s.holds.Add(1)
	return s
}

// Active returns the sessions that have not ended.
func (e *Engine) Active() []*EngineSession {
	e.mu.Lock()
	defer e.mu.Unlock()
	active := make([]*EngineSession, 0, len(e.sessions))
	for _, s := range e.sessions {
		if !s.ended.Load() {
			active = append(active, s)
		}
	}
	return active
}

// Fail ends the session with err, as a failed Source or Sink would; a
// session that has already resolved keeps its outcome.
func (s *EngineSession) Fail(err error) { s.end(err, nil) }
