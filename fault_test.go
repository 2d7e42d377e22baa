package streamdag

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// Public-API fault-tolerance tests: the distributed kill/re-link/retry
// path end-to-end, dead-letter routing for poisoned payloads,
// drain, and the unsupported-backend edges.

// gateSink wraps a Collector, closing gate after the at-th delivery so a
// test can act (kill a worker) provably mid-stream, and slowing each
// delivery so the stream is still in flight when the test does.
type gateSink struct {
	inner *Collector
	at    int
	gate  chan struct{}
	slow  time.Duration

	mu    sync.Mutex
	count int
}

func (g *gateSink) Emit(ctx context.Context, seq uint64, payload any) error {
	if g.slow > 0 {
		time.Sleep(g.slow)
	}
	if err := g.inner.Emit(ctx, seq, payload); err != nil {
		return err
	}
	g.mu.Lock()
	g.count++
	if g.count == g.at {
		close(g.gate)
	}
	g.mu.Unlock()
	return nil
}

// TestDistributedKillRetryBitIdentical is the end-to-end acceptance run
// on the real TCP backend: kill one of three workers mid-stream; with
// session retry configured, and no other fault option, the session must
// complete on the re-linked mesh with output bit-identical to a run with
// no fault — exactly-once, in order, every per-edge count equal.
func TestDistributedKillRetryBitIdentical(t *testing.T) {
	const n = 120
	assign := map[string]string{"A": "w0", "B": "w1", "C": "w2", "D": "w0"}
	base := append(fig1Kernels(), WithWatchdog(10*time.Second))

	ref, err := Build(fig1Topo(), append(base, WithBackend(Distributed(assign)))...)
	if err != nil {
		t.Fatal(err)
	}
	var refCol Collector
	refStats, err := ref.Run(context.Background(), SliceSource(payloads(n)...), &refCol)
	if err != nil {
		t.Fatalf("no-fault run: %v", err)
	}

	o := NewObserver()
	p, err := Build(fig1Topo(), append(base,
		WithBackend(Distributed(assign)),
		WithRetry(RetryPolicy{MaxAttempts: 4, Backoff: 5 * time.Millisecond}),
		WithObserver(o))...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var col Collector
	gs := &gateSink{inner: &col, at: 20, gate: make(chan struct{}), slow: 500 * time.Microsecond}
	ses, err := eng.Open(context.Background(), SliceSource(payloads(n)...), gs)
	if err != nil {
		t.Fatal(err)
	}
	<-gs.gate
	if err := eng.KillWorker("w1"); err != nil {
		t.Fatalf("KillWorker: %v", err)
	}
	stats, err := ses.Wait()
	if err != nil {
		t.Fatalf("session after kill+retry: %v", err)
	}
	requireSameStream(t, "vs no-fault", refStats, stats, refCol.Emissions(), col.Emissions())

	f := o.Snapshot().Faults
	if f.WorkersDown < 1 {
		t.Errorf("workers_down = %d, want >= 1", f.WorkersDown)
	}
	if f.SessionRetries < 1 {
		t.Errorf("session_retries = %d, want >= 1", f.SessionRetries)
	}
}

// TestDistributedKillTypedError pins the no-retry contract: a worker
// death fails the session with a *WorkerDownError naming the worker and
// the affected session, and the engine is never left degraded — an Open
// after the kill runs on the re-linked mesh and delivers the reference
// stream.
func TestDistributedKillTypedError(t *testing.T) {
	assign := map[string]string{"A": "w0", "B": "w1", "C": "w2", "D": "w0"}
	base := append(fig1Kernels(), WithWatchdog(10*time.Second))
	ref, err := Build(fig1Topo(), base...)
	if err != nil {
		t.Fatal(err)
	}
	var refCol Collector
	refStats, err := ref.Run(context.Background(), SliceSource(payloads(120)...), &refCol)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	p, err := Build(fig1Topo(), append(base, WithBackend(Distributed(assign)))...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var col Collector
	gs := &gateSink{inner: &col, at: 10, gate: make(chan struct{}), slow: 500 * time.Microsecond}
	ses, err := eng.Open(context.Background(), SliceSource(payloads(120)...), gs)
	if err != nil {
		t.Fatal(err)
	}
	<-gs.gate
	if err := eng.KillWorker("w2"); err != nil {
		t.Fatalf("KillWorker: %v", err)
	}
	_, err = ses.Wait()
	var wd *WorkerDownError
	if !errors.As(err, &wd) {
		t.Fatalf("session error = %v, want *WorkerDownError", err)
	}
	if wd.Worker != "w2" {
		t.Errorf("Worker = %q, want w2", wd.Worker)
	}
	if len(wd.Sessions) == 0 {
		t.Error("Sessions empty, want the killed session's ID")
	}

	var after Collector
	ses, err = eng.Open(context.Background(), SliceSource(payloads(120)...), &after)
	if err != nil {
		t.Fatalf("Open after the kill: %v", err)
	}
	stats, err := ses.Wait()
	if err != nil {
		t.Fatalf("session opened after the kill: %v", err)
	}
	requireSameStream(t, "after the kill", refStats, stats, refCol.Emissions(), after.Emissions())

	if err := eng.KillWorker("nosuch"); err == nil {
		t.Error("KillWorker(nosuch): no error")
	}
}

// TestRetryRequiresReplayableSource: WithRetry cannot re-ingest from a
// source that cannot rewind, and Open must say so up front rather than
// failing on the first retry.
func TestRetryRequiresReplayableSource(t *testing.T) {
	p, err := Build(fig1Topo(), append(fig1Kernels(),
		WithRetry(RetryPolicy{MaxAttempts: 2}))...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ch := make(chan any)
	close(ch)
	_, err = eng.Open(context.Background(), ChannelSource(ch), DiscardSink())
	if err == nil || !strings.Contains(err.Error(), "ReplayableSource") {
		t.Fatalf("Open with non-replayable source = %v, want ReplayableSource error", err)
	}
}

// TestTypedSliceSourceRetries: a SliceSource of a non-any element type is
// a SpanSource and a ReplayableSource, so a WithRetry session opens on it
// and the ingest pump fills whole spans from it.
func TestTypedSliceSourceRetries(t *testing.T) {
	src := SliceSource(1, 2, 3)
	if _, ok := src.(SpanSource); !ok {
		t.Errorf("SliceSource[int] is %T, not a SpanSource", src)
	}
	if _, ok := src.(ReplayableSource); !ok {
		t.Errorf("SliceSource[int] is %T, not a ReplayableSource", src)
	}
	pipe, err := NewFlow[int, int]().
		Then(Map("double", func(v int) int { return 2 * v })).
		Compile(WithRetry(RetryPolicy{MaxAttempts: 2}))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pipe.Engine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var col TypedCollector[int]
	ses, err := eng.Open(context.Background(), src, &col)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := col.Values(), []int{2, 4, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("values = %v, want %v", got, want)
	}
}

// failingSink fails every delivery of one sequence number — a poisoned
// payload — and passes the rest through to a Collector.
type failingSink struct {
	inner *Collector
	bad   uint64
	err   error
}

func (f *failingSink) Emit(ctx context.Context, seq uint64, payload any) error {
	if seq == f.bad {
		return f.err
	}
	return f.inner.Emit(ctx, seq, payload)
}

// TestDeadLetterPoisonPayload: a payload whose delivery fails on two
// consecutive attempts is routed to the dead-letter sink and skipped,
// so the session completes with every other emission delivered exactly
// once.
func TestDeadLetterPoisonPayload(t *testing.T) {
	const n = 60
	ref, err := Build(fig1Topo(), fig1Kernels()...)
	if err != nil {
		t.Fatal(err)
	}
	var refCol Collector
	if _, err := ref.Run(context.Background(), SliceSource(payloads(n)...), &refCol); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	poison := errors.New("downstream store rejected the record")
	var dlq DeadLetterQueue
	o := NewObserver()
	p, err := Build(fig1Topo(), append(fig1Kernels(),
		WithRetry(RetryPolicy{MaxAttempts: 2}),
		WithDeadLetter(&dlq),
		WithObserver(o))...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var col Collector
	fs := &failingSink{inner: &col, bad: 6, err: poison}
	ses, err := eng.Open(context.Background(), SliceSource(payloads(n)...), fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Wait(); err != nil {
		t.Fatalf("session with poisoned payload: %v", err)
	}

	if dlq.Len() != 1 {
		t.Fatalf("dead letters = %d, want 1 (%+v)", dlq.Len(), dlq.Letters())
	}
	l := dlq.Letters()[0]
	if l.Seq != 6 {
		t.Errorf("letter Seq = %d, want 6", l.Seq)
	}
	if l.Attempts != 2 {
		t.Errorf("letter Attempts = %d, want 2", l.Attempts)
	}
	if !errors.Is(l.Err, poison) {
		t.Errorf("letter Err = %v, want the sink's error", l.Err)
	}

	// Delivered stream == reference minus the poisoned seq, in order.
	var want []Emission
	for _, em := range refCol.Emissions() {
		if em.Seq != 6 {
			want = append(want, em)
		}
	}
	got := col.Emissions()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("emissions = %+v, want reference minus seq 6 %+v", got, want)
	}

	f := o.Snapshot().Faults
	if f.DeadLettered != 1 {
		t.Errorf("dead_lettered = %d, want 1", f.DeadLettered)
	}
	if f.SessionRetries < 1 {
		t.Errorf("session_retries = %d, want >= 1", f.SessionRetries)
	}
}

// TestDrainRefusesOpen: Drain quiesces an engine whose sessions have
// finished, later Opens are refused with ErrEngineDraining, and a closed
// engine cannot be drained.
func TestDrainRefusesOpen(t *testing.T) {
	p, err := Build(fig1Topo(), fig1Kernels()...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	ses, err := eng.Open(context.Background(), SliceSource(payloads(30)...), DiscardSink())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := eng.Open(context.Background(), SliceSource(payloads(4)...), DiscardSink()); !errors.Is(err, ErrEngineDraining) {
		t.Errorf("Open after Drain = %v, want ErrEngineDraining", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(context.Background()); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Drain after Close = %v, want ErrEngineClosed", err)
	}
}

// TestDrainWaitsForActiveSessions: on every backend, Drain must let an
// in-flight session run to completion, refuse Opens issued during the
// drain, and count itself once — at the engine, whichever backend runs
// it (its duration only on wall-clock backends).
func TestDrainWaitsForActiveSessions(t *testing.T) {
	for name, p := range backendsFor(t, fig1Topo, fig1Kernels()...) {
		t.Run(name, func(t *testing.T) {
			o := NewObserver()
			p, err := Build(fig1Topo(), append(fig1Kernels(), WithBackend(p.backend), WithObserver(o))...)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := p.Engine()
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			var col Collector
			gs := &gateSink{inner: &col, at: 1, gate: make(chan struct{}), slow: 200 * time.Microsecond}
			ses, err := eng.Open(context.Background(), SliceSource(payloads(200)...), gs)
			if err != nil {
				t.Fatal(err)
			}
			<-gs.gate

			openErr := make(chan error, 1)
			go func() {
				time.Sleep(2 * time.Millisecond)
				_, err := eng.Open(context.Background(), SliceSource(payloads(4)...), DiscardSink())
				openErr <- err
			}()
			if err := eng.Drain(context.Background()); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if stats, err := ses.Wait(); err != nil || stats.SinkData == 0 {
				t.Fatalf("drained session: stats=%v err=%v", stats, err)
			}
			if err := <-openErr; !errors.Is(err, ErrEngineDraining) {
				t.Errorf("Open during Drain = %v, want ErrEngineDraining", err)
			}
			f := o.Snapshot().Faults
			if f.Drains != 1 {
				t.Errorf("Faults().Drains = %d, want 1", f.Drains)
			}
			if virtual := name == "simulator"; virtual != (f.DrainTime == 0) {
				t.Errorf("Faults().DrainTime = %d on %s (counted on wall-clock backends only)", f.DrainTime, name)
			}
		})
	}
}

// TestKillWorkerUnsupportedBackends: backends without killable workers
// say so instead of pretending.
func TestKillWorkerUnsupportedBackends(t *testing.T) {
	for _, bk := range []Backend{Goroutines(), Simulator()} {
		p, err := Build(fig1Topo(), append(fig1Kernels(), WithBackend(bk))...)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := p.Engine()
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.KillWorker("w0"); err == nil {
			t.Errorf("%s: KillWorker: no error", bk)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
