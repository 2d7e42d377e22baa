package stream

// Tests of the nodes' free lists of retired sessions (engine.go, retire
// and release), read after Close: the node loops have exited, so the test
// goroutine sees their final state.

import (
	"context"
	"sync"
	"testing"
	"time"

	"streamdag/internal/proto"
	"streamdag/internal/workload"
)

// TestNodeSessionReleasedOnce is the regression test of the double exit: a
// sink without a pump finishes its stream inside advance (endStream →
// finishSink), and advance's reclaim then retires the same state again.
// Retiring must be idempotent, or one state is released twice and handed
// to two sessions.  After 100 sessions, half of them sinkless, no free list
// may hold a state twice, or hold one still bound to a session.
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
// keeps at most freeSessions of their states, not all 1,000.
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
}
