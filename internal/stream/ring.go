package stream

// This file is the window rule every edge of a session follows, local or
// cross, and both rims: the counts, the ring slots — the handoff's one
// buffer, which the consumer reads in place — and the stall and wake
// handshake between one producer and one consumer.

import (
	"math/bits"
	"sync/atomic"
)

// edgeCounts is one edge's counts for one session, 128 bytes on two cache
// lines (the consumer's half at offset 64), each written by one node (but
// for the stalled flag): the producer's sent (EOS included) and
// data/dummies by kind, read at completion (the sink node's final EOS
// happens-after every send), and the consumer's consumed, stored once per
// advance.
//
// A local edge is also a single-producer/single-consumer ring: the
// producer copies each run into ring's slots (message k at k mod the
// length) and then stores sent, its tail.  The consumer reads the slots in
// place: a drain loads the tail into taken and, after it, the ring into
// slots; head counts the messages it has taken since, and consumed is
// head as of its last advance.  sent − consumed is the window's
// occupancy, which the producer reads instead of being sent credits, and
// it never writes a slot in [consumed, sent), which holds every message
// the consumer has yet to take.  Before its in-flight count outgrows the
// ring it grows it, copying every live slot across before it stores the
// new ring: the ring a drain loads after the tail holds [head, taken), and
// an older one the consumer still reads is never written again.  Slots are
// not cleared as they are taken — the consumer only reads them, so a
// growth can copy them without a race — so a ring keeps up to its length
// of consumed payloads until they are overwritten or the buffers are
// scrubbed.  stalled is raised by a producer that found the window full
// and lowered by whichever of the two ends first finds room (see stall
// and consume).
//
// The rims use the same counts and the same rule, with their own rings
// (sessionBufs), each the rim's one buffer too: the source node fires the
// ingest ring's payloads in place and clears each slot as it fires it,
// before its count lets the pump reuse the slot, and the sink node writes
// each emission straight into its free slot of the sink ring (emitAt).  A
// pump producer waits on its channel under stalled, and a pump consumer
// under parked, raised while it waits for the tail to move (see await).  eof is the ingest rim's end of stream, stored after
// the last payload's tail.
//
// A cross edge splits the counts across the wire (cross.go): the
// producer's are ringless, their consumed stored from credits (credit);
// the consumer's are a receive ring whose sent the reader stores.
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
// line: raised by the producers that post the kick, lowered by the node.
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
// stall's order, so one of the two sees the other.
func (c *edgeCounts) consume(n int64) (wake bool) {
	c.consumed.Store(n)
	return c.stalled.Load() && c.stalled.CompareAndSwap(true, false)
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

// credit raises a cross edge producer's consumed count to n, the far
// consumer's absolute count, for its one writer (the link's reader), and
// reports whether the producer is owed a wake, as consume does.
func (c *edgeCounts) credit(n int64) (wake bool) {
	if n <= c.consumed.Load() {
		return false
	}
	c.consumed.Store(n)
	return c.stalled.Load() && c.stalled.CompareAndSwap(true, false)
}

// stall raises the stalled flag of a node producer that needs occupancy
// below window, then re-reads the consumer's count: a consumer that stored
// it before the flag went up is seen here, one that stores it after sees
// the flag (Dekker's order: each side stores, then loads the other's
// word).  Reports whether the window had room after all, lowering the flag
// again; a consumer that lowered it first sends one spare wake.
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

// await blocks a pump on wake while blocked() holds and the session
// lasts.  The pump raises flag, then re-checks both — a waker that stored
// its count or the end before the flag went up is seen here, one after
// sees the flag — and a waker that lowers the flag owes the one token
// (wakePump), which the pump takes even when it found no need to wait,
// so the one-slot channel never holds a stale one.
func (s *EngineSession) await(flag *atomic.Bool, wake chan struct{}, blocked func() bool) {
	flag.Store(true)
	if blocked() && !s.ended.Load() {
		<-wake
	} else if !flag.CompareAndSwap(true, false) {
		<-wake
	}
}

// wakePump sends a pump waiting under flag its one token, if it is
// waiting, and reports whether it sent: whoever lowers the flag sends, so
// the send never blocks.
func wakePump(flag *atomic.Bool, wake chan struct{}) bool {
	if flag.Load() && flag.CompareAndSwap(true, false) {
		wake <- struct{}{}
		return true
	}
	return false
}

// drainIngest loads what the ingest pump published: the source fires it
// in place (see ingestSegment), clearing each slot as it fires.
func (n *engineNode) drainIngest(ns *nodeSession) {
	c := ns.ses.ingest
	// EOF before tail: the pump stores the tail of its last payload before
	// setting EOF, so seeing EOF here means the tail read below covers the
	// whole stream — srcDone is never set with payloads still unloaded.
	eof := c.eof.Load()
	c.taken = c.sent.Load()
	if eof {
		ns.srcDone = true
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

// drain makes what the producers published on the node's in-edge rings
// (a cross edge's receive ring included) since the last drain the node's
// to take, in place: it loads each tail and, after it, the ring, which
// then holds every message up to that tail the node has yet to take.
func (n *engineNode) drain(ns *nodeSession) {
	for _, k := range n.inAt {
		c := &ns.ses.edges[k]
		if t := c.sent.Load(); t != c.taken {
			c.taken = t
			c.slots = *c.ring.Load() // after the tail: a ring that grew for it
		}
	}
}

// grow returns the edge's ring, made or grown first if need messages in
// flight would not fit: a power of two from minRing up, onto which the
// live messages — the last live up to the tail t — are copied.  A growth
// stores the new ring before the tail that covers its first new slot.
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
