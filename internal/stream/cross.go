package stream

// This file is the seam a transport plugs into: an edge named in
// Config.Cross keeps both of its nodes in this Engine — same node loops,
// same per-session credit window, same counters — but the producer's
// messages and the consumer's credit returns are posted into the edge's
// outboxes instead of the neighbour's mailbox.  The transport drains the
// outboxes, moves the parcels however it likes (internal/dist: one TCP
// link per worker pair), and hands them back on the far side through
// Deliver and Credit.  The sender-side window is the node's own
// inflight-vs-capacity check, so a cross edge never holds more messages —
// queued, on the wire or unconsumed — than the capacity the dummy
// intervals were computed against.

import (
	"fmt"

	"streamdag/internal/graph"
	"streamdag/internal/proto"
)

// CrossEdge names the carriers of one cross edge: Msgs takes what the
// producing node sends, Credits what the consuming node acknowledges.
// Edges that share a transport link share an Outbox.
type CrossEdge struct {
	Msgs    *Outbox
	Credits *Outbox
}

// crossEnds locates a cross edge's carriers and its two ends in the node
// loops.
type crossEnds struct {
	CrossEdge
	from   *engineNode // producer, at out-position outPos
	to     *engineNode // consumer, at in-position inPos
	outPos int32
	inPos  int32
}

// Outbox is the unbounded queue between the node loops and one transport
// writer.  Posts never block — its occupancy is bounded by the posting
// sessions' windows, like a node's mailbox — and the single drainer takes
// everything queued per wake-up.
type Outbox struct {
	mb    *mailbox
	spare batch
}

// NewOutbox returns an empty outbox.
func NewOutbox() *Outbox { return &Outbox{mb: newMailbox()} }

// Close wakes the drainer for exit; Drain returns false once the queue
// is empty.  Later posts are dropped.
func (o *Outbox) Close() { o.mb.close() }

// Parcel is one unit drained from an Outbox: a run of messages for the
// edge's consumer (Run, in send order) or, when Run is nil, Credits
// acknowledged messages for its producer.
type Parcel struct {
	Session *EngineSession
	Edge    graph.EdgeID
	Run     []Message
	Credits int
}

// Drain blocks for the next batch and calls visit for each parcel in
// post order, skipping sessions that have ended; it reports false when
// the outbox is closed and drained.  A parcel's Run is valid only during
// the call: the outbox reuses its storage for the next batch.  One
// goroutine drains an outbox at a time.
func (o *Outbox) Drain(visit func(Parcel)) bool {
	b, ok := o.mb.takeAll(o.spare)
	if !ok {
		return false
	}
	for i := range b.evs {
		ev := &b.evs[i]
		if ev.ses.ended.Load() {
			continue
		}
		p := Parcel{Session: ev.ses, Edge: graph.EdgeID(ev.pos)}
		if ev.kind == evCredit {
			p.Credits = ev.cnt
		} else {
			p.Run = b.arena[ev.off : ev.off+ev.cnt]
		}
		visit(p)
	}
	b.reset()
	o.spare = b
	return true
}

// Deliver hands a run that crossed the wire on edge to the edge's
// consuming node, for the session with that id; run is copied.  A session
// that is not (or no longer) open drops the run — its peers' frames stay
// in flight until they observe the teardown.  The error is for an edge
// not named in Config.Cross.
func (e *Engine) Deliver(sid proto.SessionID, edge graph.EdgeID, run []Message) error {
	if int(edge) >= len(e.cross) || e.cross[edge].to == nil {
		return fmt.Errorf("stream: edge %d is not a cross edge", edge)
	}
	ses := e.session(sid)
	if ses == nil || len(run) == 0 {
		return nil
	}
	c := &e.cross[edge]
	c.to.mb.postRun(event{kind: evMsg, ses: ses, pos: c.inPos}, run)
	return nil
}

// Credit returns n credits that crossed the wire on edge to the edge's
// producing node.  More than the session has in flight there fails the
// session (the node owns the count); the error is for an edge not named
// in Config.Cross.
func (e *Engine) Credit(sid proto.SessionID, edge graph.EdgeID, n int) error {
	if int(edge) >= len(e.cross) || e.cross[edge].from == nil {
		return fmt.Errorf("stream: edge %d is not a cross edge", edge)
	}
	if ses := e.session(sid); ses != nil && n > 0 {
		c := &e.cross[edge]
		c.from.mb.post(event{kind: evCredit, ses: ses, pos: c.outPos, cnt: n})
	}
	return nil
}

// session returns the open session with the given id, or nil.
func (e *Engine) session(id proto.SessionID) *EngineSession {
	e.mu.Lock()
	s := e.sessions[id]
	e.mu.Unlock()
	if s == nil || s.ended.Load() {
		return nil
	}
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
