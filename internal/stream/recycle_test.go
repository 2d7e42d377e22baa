package stream

// Tests of the engine's free list of session records (engine.go: takeBufs,
// unhold and scrub), which holds every node's state for a session with the
// session's buffers — read after Close: the node loops have exited, so the
// test goroutine sees their final state.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/workload"
)

// TestNodeSessionReleasedOnce is the regression test of a double exit: a
// session must leave each node once, or a record is scrubbed and listed
// twice and handed to two sessions.  After 100 sessions, half of them
// sinkless, the free list must pass requireFreeList.
func TestNodeSessionReleasedOnce(t *testing.T) {
	e, err := NewEngine(workload.Pipeline(4, 2), nil, Config{WatchdogTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sink := func(context.Context, uint64, any) error { return nil }
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	opened := make(chan *EngineSession, 100)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 100; i += 4 {
				cfg := SessionConfig{ID: proto.SessionID(i + 1), Source: SyntheticSource(20)}
				if i%2 == 1 {
					cfg.Sink = sink
				}
				ses, err := e.Open(cfg)
				if err == nil {
					opened <- ses
					_, err = ses.Wait()
				}
				if err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	e.Close()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	close(opened)
	var sessions []*EngineSession
	for ses := range opened {
		sessions = append(sessions, ses)
	}
	requireFreeList(t, freeBufs(t, e, sessions))
}

// requireFreeList fails unless the engine's free list is sound: no record
// is listed twice, the list keeps at most freeSessions, and every node
// state in a listed record is reset — bound to no session, not retired,
// its firing queue empty, and no send pending.
func requireFreeList(t *testing.T, free []*sessionBufs) {
	t.Helper()
	if len(free) > freeSessions {
		t.Errorf("the engine keeps %d session records; the cap is %d", len(free), freeSessions)
	}
	seen := make(map[*sessionBufs]bool, len(free))
	for _, b := range free {
		if seen[b] {
			t.Fatal("one session record is on the free list twice")
		}
		seen[b] = true
		for i := range b.states {
			requireStateReset(t, i, &b.states[i])
		}
	}
}

// requireStateReset fails if a node's state for a session survived its
// release.
func requireStateReset(t *testing.T, node int, ns *nodeSession) {
	t.Helper()
	if ns.ses != nil || ns.retired || ns.dirty || ns.done || ns.srcDone || ns.nextSeq != 0 || ns.pendingN != 0 || ns.timer != nil || ns.timerArmed {
		t.Fatalf("node %d's state not reset: session %p, retired %v, dirty %v, done %v, srcDone %v, nextSeq %d, pending %d, timer %v",
			node, ns.ses, ns.retired, ns.dirty, ns.done, ns.srcDone, ns.nextSeq, ns.pendingN, ns.timer != nil)
	}
	if n := len(ns.q); n != 0 {
		t.Fatalf("node %d's firing queue holds %d payloads", node, n)
	}
	for i := range ns.pendingSet {
		if ns.pendingSet[i] || ns.pendingMsg[i] != (Message{}) || ns.inflight[i] != 0 {
			t.Fatalf("node %d's out-edge %d: pending %v %+v, %d in flight", node, i, ns.pendingSet[i], ns.pendingMsg[i], ns.inflight[i])
		}
	}
}

// TestAbortAckAfterAdvance pins the ordering rule that keeps a node off a
// record it no longer owns: a node acks an abort only after its batch's
// advance loop, with its releases and checkouts, because the session's
// last ack resolves it and lists its record, this node's state in it
// included, for the next session.  One node of a built-and-closed engine
// is driven by hand: it starts the session on a kick and holds a payload
// on its in-edge; then it takes one batch holding a late kick and the abort,
// whose ack is the session's last.  When the ack resolves the session, the
// node must be through with the batch — nothing on its advance or
// retiring lists, its state released — and after the batch the record is
// listed and reset.
func TestAbortAckAfterAdvance(t *testing.T) {
	g := workload.Pipeline(3, 4)
	e, err := NewEngine(g, nil, Config{WatchdogTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	n := e.nodes[g.MustNode("s1")]
	n.mb.closed = false
	ctx, cancel := context.WithCancelCause(context.Background())
	hook := &scrubProbe{t: t, n: n}
	ses := &EngineSession{id: 1, e: e, ctx: ctx, cancel: cancel, done: make(chan struct{}), onDone: hook}
	e.takeBufs(ses)
	ses.holds.Store(1) // the done resolution's: no pump runs
	ses.abortAcks.Store(int64(len(e.nodes) - 1))
	hook.ns = startOn(n, ses)
	pushIn(n, hook.ns, 0, Message{Seq: 0, Kind: Data, Payload: new(int)})

	boom := errors.New("boom")
	ses.kick(n)
	ses.end(boom, nil) // posts the abort behind the kick
	if got := len(n.mb.q); got != 2 {
		t.Fatalf("the node's batch holds %d events, want the kick and the abort", got)
	}
	n.mb.close()
	n.run() // takes the batch, then finds the mailbox closed
	if !hook.resolved {
		t.Fatal("the session's last abort ack did not resolve it")
	}
	if _, err := ses.Wait(); err != boom {
		t.Fatalf("Wait = %v, want boom", err)
	}
	e.mu.Lock()
	free := append([]*sessionBufs(nil), e.free...)
	e.mu.Unlock()
	if len(free) != 1 || free[0] != ses.sessionBufs {
		t.Fatalf("the free list holds %d records, want the session's", len(free))
	}
	requireFreeList(t, free)
}

// scrubProbe is the OnDone hook of TestAbortAckAfterAdvance: it runs just
// after the record's scrub, on the node's goroutine.
type scrubProbe struct {
	t        *testing.T
	n        *engineNode
	ns       *nodeSession
	resolved bool
}

func (p *scrubProbe) SessionDone() {
	p.resolved = true
	if len(p.n.dirty) != 0 || len(p.n.retiring) != 0 {
		p.t.Fatalf("the record was scrubbed with %d states on the node's advance list and %d on its retiring list", len(p.n.dirty), len(p.n.retiring))
	}
	if p.ns.ses != nil {
		p.t.Fatal("the record was scrubbed before the node released its state")
	}
}

// TestFreeListBoundedAfterSessionBurst: 1,000 sessions open at once — all
// of them holding their records before any streams — and drain; the
// engine then keeps at most freeSessions of their records, not all 1,000,
// and the list passes requireFreeList.
func TestFreeListBoundedAfterSessionBurst(t *testing.T) {
	e, err := NewEngine(workload.Pipeline(4, 2), nil, Config{WatchdogTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	sessions := make([]*EngineSession, 1000)
	for i := range sessions {
		src := SyntheticSource(20)
		ses, err := e.Open(SessionConfig{ID: proto.SessionID(i + 1), Source: func(ctx context.Context) (any, bool, error) {
			<-gate
			return src(ctx)
		}})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = ses
	}
	close(gate)
	for _, ses := range sessions {
		if _, err := ses.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	free := freeBufs(t, e, sessions)
	if len(free) == 0 {
		t.Error("the engine keeps no session record")
	}
	requireFreeList(t, free)
}

// TestSessionBufsScrubbed drives the buffers through every way a session
// leaves them — finished with and without a sink, on the plain and the span
// pumps, cancelled with a blocked sink (emissions queued in the sink ring),
// failed by its source mid-fill, and stuck in a Source.Next that ignores its
// context until after the engine's next sessions ran — and checks each
// free-listed set once every hold is gone: every counter and flag zero,
// every ring empty, no token left in a channel, and the list sound
// (requireFreeList: every node state reset, no set listed twice).
func TestSessionBufsScrubbed(t *testing.T) {
	e, err := NewEngine(workload.Pipeline(4, 8), nil, Config{WatchdogTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var opened []*EngineSession
	open := func(cfg SessionConfig) *EngineSession {
		t.Helper()
		cfg.ID = proto.SessionID(len(opened) + 1)
		ses, err := e.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opened = append(opened, ses)
		return ses
	}
	finish := func(cfg SessionConfig) {
		t.Helper()
		if _, err := open(cfg).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	sink := func(context.Context, uint64, any) error { return nil }
	spanSink := func(context.Context, []uint64, []any) error { return nil }
	spanSrc := func() SpanSourceFunc {
		next := SyntheticSource(100)
		return func(ctx context.Context, buf []any) (int, bool, error) {
			for i := range buf {
				v, ok, err := next(ctx)
				if !ok || err != nil {
					return i, true, err
				}
				buf[i] = v
			}
			return len(buf), false, nil
		}
	}

	finish(SessionConfig{Source: SyntheticSource(100)})
	finish(SessionConfig{Source: SyntheticSource(100), Sink: sink})
	finish(SessionConfig{SpanSource: spanSrc(), Sink: sink, SpanSink: spanSink})

	// Cancelled with its sink blocked, once backpressure has stopped its
	// source: the sink ring holds the emissions behind the blocked one.
	var pulled atomic.Int64
	next := SyntheticSource(1 << 20)
	blocked := open(SessionConfig{
		Source: func(ctx context.Context) (any, bool, error) {
			pulled.Add(1)
			return next(ctx)
		},
		Sink: func(ctx context.Context, _ uint64, _ any) error {
			<-ctx.Done()
			return ctx.Err()
		},
	})
	for last, still := int64(-1), 0; still < 10; time.Sleep(2 * time.Millisecond) {
		if n := pulled.Load(); n != last {
			last, still = n, 0
		} else {
			still++
		}
	}
	if blocked.emit.occupancy() == 0 {
		t.Fatal("a stalled session with a blocked sink has no emission queued")
	}
	blocked.Fail(context.Canceled)
	if _, err := blocked.Wait(); err != context.Canceled {
		t.Fatalf("blocked session: %v, want context.Canceled", err)
	}

	// Failed by its span source halfway through a fill.
	boom := errors.New("boom")
	failed := open(SessionConfig{
		SpanSource: func(_ context.Context, buf []any) (int, bool, error) {
			for i := range buf[:len(buf)/2] {
				buf[i] = i
			}
			return 0, false, boom
		},
		Sink: sink,
	})
	if _, err := failed.Wait(); !errors.Is(err, boom) {
		t.Fatalf("failing source: %v, want boom", err)
	}

	// Stuck in Next past its end: its pump keeps the buffers until it
	// returns, and sessions opened meanwhile take others.
	release := make(chan struct{})
	var pulls atomic.Int64
	stuck := open(SessionConfig{
		Source: func(context.Context) (any, bool, error) {
			if pulls.Add(1) > 5 {
				<-release
			}
			return 1, true, nil
		},
		Sink: sink,
	})
	for pulls.Load() <= 5 {
		time.Sleep(time.Millisecond)
	}
	stuck.Fail(context.Canceled)
	if _, err := stuck.Wait(); err != context.Canceled {
		t.Fatalf("stuck session: %v, want context.Canceled", err)
	}
	for i := 0; i < 3; i++ {
		if ses := open(SessionConfig{Source: SyntheticSource(50), Sink: sink}); ses.sessionBufs == stuck.sessionBufs {
			t.Fatal("a session got the buffers a stuck pump still holds")
		} else if _, err := ses.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	e.Close()

	free := freeBufs(t, e, opened)
	requireFreeList(t, free)
	seen := make(map[*sessionBufs]bool, len(free))
	for _, b := range free {
		seen[b] = true
		for i := range b.edges {
			requireCountsScrubbed(t, fmt.Sprintf("edge %d", i), &b.edges[i])
		}
		requireCountsScrubbed(t, "ingest rim", b.ingest)
		requireCountsScrubbed(t, "sink rim", b.emit)
		for i := range b.kicks {
			if b.kicks[i].raised.Load() {
				t.Fatalf("node %d's kick flag still raised after scrub", i)
			}
		}
		requireRingsClear(t, b)
		for i, v := range b.ring {
			if v != nil {
				t.Fatalf("ingest ring slot %d still holds %v after scrub", i, v)
			}
		}
		for i, v := range b.emPay {
			if v != nil {
				t.Fatalf("sink ring slot %d still holds %v after scrub", i, v)
			}
		}
		if len(b.srcWake) != 0 || len(b.sinkWake) != 0 {
			t.Fatalf("after scrub: %d ingest, %d sink wake tokens", len(b.srcWake), len(b.sinkWake))
		}
	}
	if !seen[stuck.sessionBufs] {
		t.Fatal("the stuck session's buffers did not return to the free list once its pump did")
	}
}

// requireCountsScrubbed fails if an edge's or a rim's counts or flags
// survived a scrub.
func requireCountsScrubbed(t *testing.T, what string, c *edgeCounts) {
	t.Helper()
	if c.sent.Load() != 0 || c.consumed.Load() != 0 || c.taken != 0 || c.head != 0 || c.slots != nil || c.stalled.Load() || c.parked.Load() || c.eof.Load() || c.data != 0 || c.dummies != 0 {
		t.Fatalf("%s counters after scrub: sent %d, consumed %d, taken %d, head %d, slots %v, stalled %v, parked %v, eof %v, data %d, dummies %d",
			what, c.sent.Load(), c.consumed.Load(), c.taken, c.head, c.slots != nil, c.stalled.Load(), c.parked.Load(), c.eof.Load(), c.data, c.dummies)
	}
}

// freeBufs waits until every set of buffers the sessions used is back —
// a pump may give its hold up after its session resolved, and Close does
// not wait for pumps — and returns the engine's free list.  The list then
// has one entry per set, up to freeSessions.
func freeBufs(t *testing.T, e *Engine, sessions []*EngineSession) []*sessionBufs {
	t.Helper()
	sets := make(map[*sessionBufs]bool)
	for _, ses := range sessions {
		sets[ses.sessionBufs] = true
	}
	want := min(len(sets), freeSessions)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		e.mu.Lock()
		free := append([]*sessionBufs(nil), e.free...)
		e.mu.Unlock()
		if len(free) >= want {
			return free
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sets of session buffers on the free list after 5 s; want %d", len(free), want)
		}
	}
}

// TestAbortedRingScrubbed cancels a session while an edge ring holds
// messages its consumer never took: s1's kernel blocks on the first
// message, the source fills the window behind it, and the kick that
// would drain them arrives after the session ended, so it is dropped.
// The scrub must clear those slots before the buffers serve another
// session.
func TestAbortedRingScrubbed(t *testing.T) {
	g := workload.Pipeline(3, 8)
	s1 := g.MustNode("s1")
	started, release := make(chan struct{}), make(chan struct{})
	blocking := KernelFunc(func(seq uint64, in []Input) map[int]any {
		if seq == 0 {
			close(started)
			<-release
		}
		return map[int]any{0: in[0].Payload}
	})
	e, err := NewEngine(g, map[graph.NodeID]Kernel{s1: blocking}, Config{WatchdogTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	next := SyntheticSource(100)
	ses, err := e.Open(SessionConfig{ID: 1, Source: func(ctx context.Context) (any, bool, error) {
		v, ok, err := next(ctx)
		if ok && v.(uint64) > 0 {
			<-started // the rest land in the ring after s1's one drain
		}
		return v, ok, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	in := &ses.edges[g.Out(g.MustNode("s0"))[0]]
	for in.sent.Load() < 8 {
		time.Sleep(time.Millisecond)
	}
	ses.Fail(context.Canceled)
	close(release)
	if _, err := ses.Wait(); err != context.Canceled {
		t.Fatalf("Wait: %v, want context.Canceled", err)
	}
	e.Close()
	for _, b := range freeBufs(t, e, []*EngineSession{ses}) {
		requireRingsClear(t, b)
	}
}

// requireRingsClear fails if a scrubbed set's edge rings hold a message.
func requireRingsClear(t *testing.T, b *sessionBufs) {
	t.Helper()
	for e := range b.edges {
		if p := b.edges[e].ring.Load(); p != nil {
			for i, m := range *p {
				if m != (Message{}) {
					t.Fatalf("edge %d's ring slot %d still holds %+v after scrub", e, i, m)
				}
			}
		}
	}
}

// TestRingGrowsWithUse pins what an edge ring costs: a short session on
// wide windows makes rings of a few slots, not of the window, and a long
// one grows them no further than the window, rounded up to a power of
// two; both deliver every input on every edge.
func TestRingGrowsWithUse(t *testing.T) {
	const buf = 2048
	g := workload.Fig1SplitJoin(buf)
	for _, tc := range []struct {
		inputs   uint64
		maxSlots int
	}{{5, minRing}, {20000, buf}} {
		e, err := NewEngine(g, nil, Config{WatchdogTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		ses, err := e.Open(SessionConfig{ID: 1, Source: SyntheticSource(tc.inputs)})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := ses.Wait()
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		for _, ed := range g.Edges() {
			if stats.Data[ed.ID] != int64(tc.inputs) {
				t.Errorf("%d inputs: edge %d carried %d", tc.inputs, ed.ID, stats.Data[ed.ID])
			}
		}
		for _, b := range freeBufs(t, e, []*EngineSession{ses}) {
			for i := range b.edges {
				p := b.edges[i].ring.Load()
				if p == nil {
					t.Fatalf("%d inputs: edge %d has no ring", tc.inputs, i)
				}
				if n := len(*p); n < minRing || n > tc.maxSlots {
					t.Errorf("%d inputs: edge %d's ring has %d slots; want %d to %d", tc.inputs, i, n, minRing, tc.maxSlots)
				}
			}
		}
	}
}
