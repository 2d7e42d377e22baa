package stream

// Tests of how a session leaves the node loops: a finished one checks out
// of every node on its own, with no abort round, and a failed one resolves
// only once every node has acknowledged its abort.  CI runs them under
// -race -count=50:
//
//	go test -race -count=50 -run TestCheckout ./internal/stream

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"streamdag/internal/proto"
	"streamdag/internal/workload"
)

// TestCheckoutFinishedSessionPostsNoAbort: sessions that finish, with and
// without a sink, resolve when the last node checks out, and no node ever
// sees an abort for them — Close drains every mailbox before the loops
// exit, so an abort posted at the finish would have been acked by then.
func TestCheckoutFinishedSessionPostsNoAbort(t *testing.T) {
	e, err := NewEngine(workload.Pipeline(5, 4), nil, Config{WatchdogTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sink := func(context.Context, uint64, any) error { return nil }
	var sessions []*EngineSession
	for i := 0; i < 8; i++ {
		cfg := SessionConfig{ID: proto.SessionID(i + 1), Source: SyntheticSource(50)}
		if i%2 == 0 {
			cfg.Sink = sink
		}
		ses, err := e.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ses.Wait(); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, ses)
	}
	e.Close()
	for _, ses := range sessions {
		if n := ses.abortAcks.Load(); n != 0 {
			t.Errorf("session %d: %d nodes acked an abort; a finished session posts none", ses.id, n)
		}
		if n := ses.checkouts.Load(); n != int64(len(e.nodes)) {
			t.Errorf("session %d: %d checkouts, want one per node (%d)", ses.id, n, len(e.nodes))
		}
	}
}

// TestCheckoutSinkFailsAfterUpstreamRetired: the sink's last Emit fails
// once every other node has retired the session on its own, so the abort
// reaches only the sink's state.  The session resolves with the Emit's
// error, and a session opened on the recycled buffers right after it
// streams exactly as one on a fresh engine: same per-edge counts, same
// sink sequence.
func TestCheckoutSinkFailsAfterUpstreamRetired(t *testing.T) {
	const n = 40
	g := workload.Pipeline(4, 2)
	e, err := NewEngine(g, nil, Config{WatchdogTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	boom := errors.New("boom")
	opened := make(chan *EngineSession, 1)
	failed, err := e.Open(SessionConfig{ID: 1, Source: SyntheticSource(n), Sink: func(_ context.Context, seq uint64, _ any) error {
		if seq < n-1 {
			return nil
		}
		s := <-opened
		for s.checkouts.Load() < int64(len(e.nodes)-1) {
			time.Sleep(time.Millisecond)
		}
		return boom
	}})
	if err != nil {
		t.Fatal(err)
	}
	opened <- failed
	if _, err := failed.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
	if acks := failed.abortAcks.Load(); acks != int64(len(e.nodes)) {
		t.Fatalf("the failed session resolved with %d of %d abort acks", acks, len(e.nodes))
	}
	freeBufs(t, e, []*EngineSession{failed})

	run := func(e *Engine) (*EngineSession, *Stats, string) {
		t.Helper()
		var seq []string
		ses, err := e.Open(SessionConfig{ID: 2, Source: SyntheticSource(n), Sink: func(_ context.Context, s uint64, p any) error {
			seq = append(seq, fmt.Sprint(s, ":", p))
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		st, err := ses.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return ses, st, fmt.Sprint(seq)
	}
	reused, got, gotSeq := run(e)
	if reused.sessionBufs != failed.sessionBufs {
		t.Fatal("the next session did not reuse the failed session's buffers")
	}
	fresh, err := NewEngine(g, nil, Config{WatchdogTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	_, want, wantSeq := run(fresh)
	if fmt.Sprint(got.Data, got.Dummies, got.SinkData) != fmt.Sprint(want.Data, want.Dummies, want.SinkData) {
		t.Errorf("recycled buffers: data %v dummies %v sink %d; fresh engine: data %v dummies %v sink %d",
			got.Data, got.Dummies, got.SinkData, want.Data, want.Dummies, want.SinkData)
	}
	if gotSeq != wantSeq {
		t.Errorf("recycled buffers' sink sequence %s, fresh engine's %s", gotSeq, wantSeq)
	}
}

// TestCheckoutCancelRacingSinkFinish cancels each session's parent context
// from inside its last Emit, so the cancellation's end races the sink
// node's finish.  Either may win, but the session resolves once, with one
// outcome: complete with its stats and no abort round, or failed with the
// cause verbatim after every node acked the abort.
func TestCheckoutCancelRacingSinkFinish(t *testing.T) {
	const n, sessions = 8, 200
	e, err := NewEngine(workload.Pipeline(4, 4), nil, Config{WatchdogTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("cancelled at the finish")
	type outcome struct {
		ses  *EngineSession
		hook *doneCounter
		err  error
	}
	outs := make([]outcome, sessions)
	for i := range outs {
		ctx, cancel := context.WithCancelCause(context.Background())
		hook := &doneCounter{}
		ses, err := e.Open(SessionConfig{ID: proto.SessionID(i + 1), Source: SyntheticSource(n), Ctx: ctx, OnDone: hook,
			Sink: func(_ context.Context, seq uint64, _ any) error {
				if seq == n-1 {
					cancel(cause)
				}
				return nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		st, err := ses.Wait()
		cancel(nil)
		switch {
		case err == nil && st.SinkData != n:
			t.Fatalf("session %d completed with %d sink firings, want %d", i+1, st.SinkData, n)
		case err != nil && err != cause:
			t.Fatalf("session %d: Wait = %v, want nil or %v", i+1, err, cause)
		}
		outs[i] = outcome{ses, hook, err}
	}
	e.Close()
	won := 0
	for i, o := range outs {
		if _, err := o.ses.Wait(); err != o.err {
			t.Errorf("session %d: Wait said %v, then %v", i+1, o.err, err)
		}
		if d := o.hook.n.Load(); d != 1 {
			t.Errorf("session %d: OnDone ran %d times", i+1, d)
		}
		acks, wantAcks := o.ses.abortAcks.Load(), int64(0)
		if o.err != nil {
			wantAcks = int64(len(e.nodes))
		} else {
			won++
		}
		if acks != wantAcks {
			t.Errorf("session %d (outcome %v): %d abort acks, want %d", i+1, o.err, acks, wantAcks)
		}
	}
	t.Logf("the finish won %d of %d races", won, sessions)
}

type doneCounter struct{ n atomic.Int32 }

func (d *doneCounter) SessionDone() { d.n.Add(1) }
