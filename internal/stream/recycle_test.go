package stream

// Tests of the free lists of retired sessions — each node's (engine.go,
// retire and release) and the engine's of session buffers (takeBufs and
// unhold) — read after Close: the node loops have exited, so the test
// goroutine sees their final state.

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
// session's state must leave its node once, or one state is released
// twice and handed to two sessions.  After 100 sessions, half of them
// sinkless, no free list may hold a state twice, or hold one still bound
// to a session.
func TestNodeSessionReleasedOnce(t *testing.T) {
	e, err := NewEngine(workload.Pipeline(4, 2), nil, Config{WatchdogTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sink := func(context.Context, uint64, any) error { return nil }
	var wg sync.WaitGroup
	errs := make(chan error, 100)
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
	for _, n := range e.nodes {
		if len(n.free) == 0 {
			t.Errorf("node %d kept no retired session", n.id)
		}
		seen := make(map[*nodeSession]bool, len(n.free))
		for _, ns := range n.free {
			if seen[ns] {
				t.Fatalf("node %d: one session state is on the free list twice", n.id)
			}
			seen[ns] = true
			if ns.ses != nil || ns.retired {
				t.Fatalf("node %d: a free-listed state was not reset", n.id)
			}
		}
	}
}

// TestFreeListBoundedAfterSessionBurst: 1,000 sessions open at once — all
// of them live at every node before any streams — and drain; each node then
// keeps at most freeSessions of their states, and the engine at most
// freeSessions of their buffers, not all 1,000.
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
	for _, n := range e.nodes {
		if len(n.free) > freeSessions {
			t.Errorf("node %d keeps %d retired sessions; the cap is %d", n.id, len(n.free), freeSessions)
		}
	}
	if free := freeBufs(t, e, sessions); len(free) == 0 || len(free) > freeSessions {
		t.Errorf("the engine keeps %d sessions' buffers; want 1 to %d", len(free), freeSessions)
	}
}

// TestSessionBufsScrubbed drives the buffers through every way a session
// leaves them — finished with and without a sink, on the plain and the span
// pumps, cancelled with a blocked sink (emissions queued in the sink ring),
// failed by its source mid-fill, and stuck in a Source.Next that ignores its
// context until after the engine's next sessions ran — and checks each
// free-listed set once every hold is gone: every counter and flag zero,
// every state slot empty, every ring and the scratch empty, no token left
// in a channel, and no set listed twice.
func TestSessionBufsScrubbed(t *testing.T) {
	e, err := NewEngine(workload.Pipeline(4, 8), nil, Config{MaxBatch: 8, WatchdogTimeout: 10 * time.Second})
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
	seen := make(map[*sessionBufs]bool, len(free))
	for _, b := range free {
		if seen[b] {
			t.Fatal("one set of session buffers is on the free list twice")
		}
		seen[b] = true
		for i := range b.live {
			if b.live[i].n.Load() != 0 {
				t.Fatalf("live[%d] = %d after scrub", i, b.live[i].n.Load())
			}
		}
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
		for i, ns := range b.at {
			if ns != nil {
				t.Fatalf("node %d's state slot still set after scrub", i)
			}
		}
		for _, s := range [][]any{b.ring, b.scratch} {
			for i, v := range s {
				if v != nil {
					t.Fatalf("slot %d still holds %v after scrub", i, v)
				}
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
	if c.sent.Load() != 0 || c.consumed.Load() != 0 || c.taken != 0 || c.stalled.Load() || c.parked.Load() || c.eof.Load() || c.data != 0 || c.dummies != 0 {
		t.Fatalf("%s counters after scrub: sent %d, consumed %d, taken %d, stalled %v, parked %v, eof %v, data %d, dummies %d",
			what, c.sent.Load(), c.consumed.Load(), c.taken, c.stalled.Load(), c.parked.Load(), c.eof.Load(), c.data, c.dummies)
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
