package stream

// This file is the window handoff, the one rule of every edge of a
// session, local or cross, and of both rims, and the only code that loads
// or stores a handoff word — an edge's sent, consumed, stalled, parked or
// eof, or a node's kick flag — or sends a pump its wake token.
//
// A handoff has one producer, one consumer and one buffer, a ring that the
// consumer reads in place.  The producer writes slots past the tail, then
// stores the tail (sent); the consumer loads the tail, then the ring, and
// stores what it took (consumed).  sent − consumed is the window's
// occupancy: the producer never lets it pass the window, so it never
// writes a slot the consumer has yet to take.  A side that waits raises
// its flag, then re-reads the other's word; the other stores its word,
// then lowers the flag and owes the one wake (Dekker's order).  A node is
// woken by a kick, a pump by its token.
//
//	transition    side               steps, in order
//	put           node, link reader  copy the run into the ring; store sent; kick the consumer
//	feed          ingest pump        store sent, then eof; kick the source node
//	emitAt        sink node          write a slot past the tail
//	publish       sink node          store sent; wakePump the sink pump
//	stall         producer node      raise stalled; re-read consumed; lower it if there is room
//	drain         consumer node      lower its kick flag; load eof, sent, then the ring
//	consume       consumer, Credit   store consumed; lower stalled, owing one wake
//	flushCredits  consumer node      consume per in-edge; kick the producer node, send the
//	                                 ingest pump its token, or hand the count to the wire
//	await         pump               raise its flag; re-read occupancy; take one token
//	wakePump      a pump's waker     lower its flag; send its one token
//	kick          a node's waker     raise its kick flag; post evKick if it was lowered
//
// The pairs: two nodes on a local edge; the ingest pump (waiting under
// stalled) and the source node; the sink node and the sink pump (under
// parked); a link reader and its consumer node (Deliver); and a cross
// edge's ringless producer node and the link reader that stores its
// consumed (Credit).

import (
	"math/bits"
	"sync/atomic"
)

// edgeCounts is one edge's or rim's handoff for one session, 128 bytes on
// two cache lines: the producer's (sent, its ring, eof, and data/dummies
// by kind, read at completion) and the consumer's (consumed, taken and
// head, its view of the ring, and parked); stalled is written by both.
// Message k sits in ring slot k mod the length.  A drain loads the tail
// into taken and then the ring into slots; head counts what the consumer
// took since, and consumed is head as of its last store.  Slots are not
// cleared as they are taken — the consumer only reads them, so a growth
// can copy them without a race — so an edge's ring keeps up to its length
// of consumed payloads until they are overwritten or scrubbed; a rim's
// are cleared as the source node fires them or the sink pump delivers them.
type edgeCounts struct {
	sent          atomic.Int64
	data, dummies int64
	ring          atomic.Pointer[[]Message]
	eof           atomic.Bool // 4 bytes: the producer's line ends at 64
	_             [28]byte
	consumed      atomic.Int64
	taken, head   int64
	slots         []Message
	stalled       atomic.Bool
	parked        atomic.Bool
	_             [8]byte
}

// kickFlag is one node's kick flag for one session, alone on its cache
// line: raised by the wakers that post the kick, lowered by the node.
type kickFlag struct {
	raised atomic.Bool
	_      [60]byte
}

// occupancy is sent − consumed; consumed is read first, so never < 0.
func (c *edgeCounts) occupancy() int64 {
	d := c.consumed.Load()
	return c.sent.Load() - d
}

// consume raises the consumer's count to n and reports whether the
// producer stalled on the full window and is owed one wake, which the
// caller sends: the count is stored before the flag is read, the mirror of
// stall's order, so one of the two sees the other.  A count no larger than
// the last is a repeat and changes nothing.
func (c *edgeCounts) consume(n int64) (wake bool) {
	if n <= c.consumed.Load() {
		return false
	}
	c.consumed.Store(n)
	return c.stalled.Load() && c.stalled.CompareAndSwap(true, false)
}

// covers reports whether n, a consumed count that came over the wire, is
// no more than the producer sent, and what it sent.
func (c *edgeCounts) covers(n uint64) (sent int64, ok bool) {
	sent = c.sent.Load()
	return sent, n <= uint64(sent)
}

// stall raises the stalled flag of a node producer that needs occupancy
// below window, then re-reads the consumer's count.  Reports whether the
// window had room after all, lowering the flag again; a consumer that
// lowered it first sends one spare wake.
func (c *edgeCounts) stall(window int64) (room bool) {
	if !c.stalled.Load() {
		c.stalled.Store(true)
	}
	if c.occupancy() < window {
		c.stalled.CompareAndSwap(true, false)
		return true
	}
	return false
}

// queued is how many of the messages the consumer drained it has yet to
// take.
func (c *edgeCounts) queued() int { return int(c.taken - c.head) }

// at is the k-th message the consumer has yet to take, in place in the
// ring it loaded at its last drain.
func (c *edgeCounts) at(k int) *Message {
	return &c.slots[(int(c.head)+k)&(len(c.slots)-1)]
}

// run is the k messages the consumer has yet to take from its j-th on, in
// place: a second slice where the ring wraps.
func (c *edgeCounts) run(j, k int) (a, b []Message) {
	s := (int(c.head) + j) & (len(c.slots) - 1)
	if s+k <= len(c.slots) {
		return c.slots[s : s+k], nil
	}
	return c.slots[s:], c.slots[:s+k-len(c.slots)]
}

// scrub zeroes the counts and flags for the next session and clears the
// ring slots the session wrote.
func (c *edgeCounts) scrub() {
	if p := c.ring.Load(); p != nil {
		// Message k went to slot k mod the length, so a session that sent
		// fewer than that wrote only the slots below its count.
		clear((*p)[:min(c.sent.Load(), int64(len(*p)))])
	}
	c.sent.Store(0)
	c.consumed.Store(0)
	c.taken, c.head, c.slots = 0, 0, nil
	c.stalled.Store(false)
	c.parked.Store(false)
	c.eof.Store(false)
	c.data, c.dummies = 0, 0
}

// scrub empties the record for its next session: counts and flags zeroed
// (the atomics with stores, since a watchdog scan that listed the old
// session may still read them), and rings cleared so no payload outlives
// its session.  The node states are not scrubbed here: a node resets its
// own when it retires it (release), as a late event may still read it.
func (b *sessionBufs) scrub() {
	for i := range b.kicks {
		b.kicks[i].raised.Store(false)
	}
	for i := range b.edges {
		b.edges[i].scrub()
	}
	b.ingest.scrub()
	b.emit.scrub()
	clear(b.ring)
	clear(b.emPay)
}

// progress is the watchdog's figure for the session: its edges' and rims'
// sent and consumed counts, summed.  Every firing, send, consumption and
// rim handoff moves one of them.
func (b *sessionBufs) progress() int64 {
	p := b.ingest.sent.Load() + b.ingest.consumed.Load() + b.emit.sent.Load() + b.emit.consumed.Load()
	for i := range b.edges {
		p += b.edges[i].sent.Load() + b.edges[i].consumed.Load()
	}
	return p
}

// residue is how many messages edge e's producer sent in the session that
// its consumer, counting in edges[in], did not consume.
func (b *sessionBufs) residue(e, in int) int64 {
	return b.edges[e].sent.Load() - b.edges[in].consumed.Load()
}

// kick raises node n's kick flag for the session and, if it was lowered,
// posts the evKick that will lower it: one event per drain cycle, however
// many runs are published or stall wakes owed meanwhile.  Load-then-CAS
// skips the bus-locked op while the flag is already raised.
func (s *EngineSession) kick(n *engineNode) {
	f := &s.kicks[n.id].raised
	if !f.Load() && f.CompareAndSwap(false, true) {
		n.mb.post(event{kind: evKick, ses: s})
	}
}

// pumpWait is what the pump on rim c waits under: its flag, its wake
// channel and the occupancy it waits at.
func (s *EngineSession) pumpWait(c *edgeCounts) (*atomic.Bool, chan struct{}, int64) {
	if c == s.ingest {
		return &c.stalled, s.srcWake, rimWindow
	}
	return &c.parked, s.sinkWake, 0
}

// await blocks the pump on rim c while the rim holds it back and the
// session lasts.  The pump raises its flag, then re-checks both — a waker
// that stored its count or the end before the flag went up is seen here,
// one after sees the flag — and a waker that lowers the flag owes the one
// token (wakePump), which the pump takes even when it found no need to
// wait, so the one-slot channel never holds a stale one.
func (s *EngineSession) await(c *edgeCounts) {
	flag, wake, at := s.pumpWait(c)
	flag.Store(true)
	if c.occupancy() == at && !s.ended.Load() {
		<-wake
	} else if !flag.CompareAndSwap(true, false) {
		<-wake
	}
}

// wakePump sends the pump on rim c its one token, if it is waiting, and
// reports whether it sent: whoever lowers the flag sends, so the send
// never blocks.
func (s *EngineSession) wakePump(c *edgeCounts) bool {
	flag, wake, _ := s.pumpWait(c)
	if flag.Load() && flag.CompareAndSwap(true, false) {
		wake <- struct{}{}
		return true
	}
	return false
}

// put publishes run on edge c, with live messages in flight before it, and
// kicks its consumer node, to.  A cross edge's producer (to nil) is
// ringless: it stores only the tail, before the run goes to the wire, so
// no credit for the run can find sent short of it.
func (s *EngineSession) put(c *edgeCounts, live int, run []Message, to *engineNode) {
	t := c.sent.Load()
	if to != nil {
		slots := c.grow(t, live, live+len(run))
		copy(slots, run[copy(slots[int(t)&(len(slots)-1):], run):])
	}
	c.sent.Store(t + int64(len(run)))
	if to != nil {
		s.kick(to)
	}
}

// feed publishes what the ingest pump filled in place up to tail t, then
// the end of stream if eof, and kicks the source node.
func (s *EngineSession) feed(src *engineNode, t int64, eof bool) {
	s.ingest.sent.Store(t)
	if eof {
		s.ingest.eof.Store(true)
	}
	s.kick(src)
}

// emitAt writes a pass's k-th emission into its sink ring slot past the
// tail, which the pump leaves alone until publish moves the tail past it.
func (s *EngineSession) emitAt(k int, seq uint64, pay any) {
	j := int(s.emit.sent.Load()+int64(k)) & (len(s.emPay) - 1)
	s.emSeq[j], s.emPay[j] = seq, pay
}

// publish hands the pump the pass's n emissions written by emitAt: a tail
// store, and a wake only when the pump waits.  Reports whether it woke it.
func (s *EngineSession) publish(n int) (woke bool) {
	c := s.emit
	c.sent.Store(c.sent.Load() + int64(n))
	return s.wakePump(c)
}

// drain is a node's kick.  It lowers the node's kick flag before it reads
// the tails, so a run published or a wake owed after the read posts a
// fresh kick.  It loads each in-edge's tail and, after it, the ring, which
// then holds every message up to that tail the node has yet to take; the
// source loads the ingest rim's eof before its tail, which the pump stores
// in the other order, so srcDone is never set with payloads unloaded.
func (n *engineNode) drain(ns *nodeSession) {
	ns.ses.kicks[n.id].raised.Store(false)
	if len(n.in) == 0 {
		c := ns.ses.ingest
		eof := c.eof.Load()
		c.taken = c.sent.Load()
		if eof {
			ns.srcDone = true
		}
		return
	}
	for _, k := range n.inAt {
		c := &ns.ses.edges[k]
		if t := c.sent.Load(); t != c.taken {
			c.taken = t
			c.slots = *c.ring.Load() // after the tail: a ring that grew for it
		}
	}
}

// ingestSegment points the source's firing queue at the payloads it has
// loaded and yet to fire, in place in the ingest ring: from nextSeq up to
// the tail or the ring's end, whichever comes first.  Reports whether the
// queue holds any.
func (ns *nodeSession) ingestSegment() bool {
	ring, h := ns.ses.ring, int64(ns.nextSeq)
	j := int(h & int64(len(ring)-1))
	ns.q = ring[j : j+int(min(ns.ses.ingest.taken-h, int64(len(ring)-j)))]
	return len(ns.q) > 0
}

// flushCredits stores what the node took on each in-edge (head), and the
// source's fired payloads on the ingest rim, as consumed, and sends the
// wakes owed (consume).  A cross edge's count goes, absolute, to its
// Credits carrier; its receive ring's producer, the link reader, never
// stalls.
func (n *engineNode) flushCredits(ns *nodeSession) {
	s := ns.ses
	if len(n.in) == 0 {
		if s.ingest.consume(int64(ns.nextSeq)) {
			s.srcWake <- struct{}{}
			if n.obsS != nil {
				n.obsS.IngestWakes.Add(1)
			}
		}
		return
	}
	for i, at := range n.inAt {
		c := &s.edges[at]
		if up := n.upNode[i]; up != nil {
			if c.consume(c.head) {
				s.kick(up)
			}
		} else if c.head != c.consumed.Load() {
			c.consume(c.head)
			n.e.cross[n.in[i]].Credits.Credit(s.id, n.in[i], uint64(c.head))
		}
	}
}

// grow returns the edge's ring, made or grown first if need messages in
// flight would not fit: a power of two from minRing up, onto which the
// live messages — the last live up to the tail t — are copied.  A growth
// stores the new ring before the tail that covers its first new slot, so
// the ring a drain loads after the tail holds every message the consumer
// has yet to take, and an older one it still reads is never written again.
func (c *edgeCounts) grow(t int64, live, need int) []Message {
	var old []Message
	if p := c.ring.Load(); p != nil {
		if old = *p; need <= len(old) {
			return old
		}
	}
	slots := make([]Message, max(minRing, 1<<bits.Len(uint(need-1))))
	for k := t - int64(live); k < t; k++ {
		slots[int(k)&(len(slots)-1)] = old[int(k)&(len(old)-1)]
	}
	c.ring.Store(&slots)
	return slots
}
