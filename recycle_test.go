package streamdag

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"streamdag/internal/graph"
	"streamdag/internal/workload"
)

// Each node of a resident engine keeps its retired sessions' state, and the
// engine its finished sessions' buffers, and reuses them for the next
// session (internal/stream, release and unhold).  These tests pin that reuse
// as invisible: a session running on state a cancelled one left behind
// streams exactly what a fresh topology would.

// recycleRow is one engine configuration of TestRecycledNodeSessionsMatchFresh.
type recycleRow struct {
	name  string
	build func(opts ...Option) (*Pipeline, error)
	// engine is the row's backend and knobs; the reference is the same
	// build on the simulator.
	engine []Option
	// quiet makes a cancelled session's source go quiet after this many
	// payloads instead of streaming until its blocked sink backs it up.
	quiet int64
}

// TestRecycledNodeSessionsMatchFresh interleaves, on one resident engine,
// sessions cancelled mid-stream with clean ones.  A cancelled session is
// left running until its source stalls: its sink blocks after three
// emissions, so every head behind it fills, every node parks a send, and
// under filtering every dummy timer stands partway through its interval —
// or, in the window row, its source goes quiet with a window open and the
// flush timer armed.  The clean session after it runs on the state its
// nodes released, and its per-edge data and dummy counts and sink sequence
// must equal the simulator's.
func TestRecycledNodeSessionsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	routed := func(g *graph.Graph, seed uint64) func(...Option) (*Pipeline, error) {
		topo := &Topology{g: g}
		f := SourceRouting(g.Source(), Bernoulli(0.4, seed), PerInputBernoulli(0.7, seed))
		return func(opts ...Option) (*Pipeline, error) {
			return Build(topo, append(opts, WithRouting(f), WithWatchdog(10*time.Second))...)
		}
	}
	var rows []recycleRow
	for _, fam := range []struct {
		name string
		gen  func() *graph.Graph
	}{
		{"sp", func() *graph.Graph { return workload.RandomSP(rng, 3+rng.Intn(4), 8) }},
		{"cs4", func() *graph.Graph { return workload.RandomCS4(rng, 1+rng.Intn(3), 8, 0.5) }},
	} {
		// Two generated cases per family, named for the batch widths the
		// engine had.
		for _, width := range []string{"batch1", "batch64"} {
			for _, observed := range []bool{false, true} {
				var opts []Option
				if observed {
					opts = append(opts, WithObserver(NewObserver()))
				}
				rows = append(rows, recycleRow{
					name:   fmt.Sprintf("%s/%s/observer=%v", fam.name, width, observed),
					build:  routed(fam.gen(), uint64(len(rows))),
					engine: opts,
				})
			}
		}
	}
	rows = append(rows, recycleRow{
		name: "window/fake-clock",
		build: func(opts ...Option) (*Pipeline, error) {
			return NewFlow[uint64, uint64]().Buffer(4).
				Then(Map("pre", func(v uint64) uint64 { return v + 1 })).
				Then(TumblingWindow[uint64]("win", time.Hour)).
				Then(Map("sum", func(w Window[uint64]) uint64 {
					s := uint64(len(w.Items)) << 32
					for _, v := range w.Items {
						s += v
					}
					return s
				})).
				Compile(append(opts, WithWatchdog(10*time.Second))...)
		},
		engine: []Option{WithClock(NewFakeClock())},
		quiet:  50,
	})
	g := workload.RandomCS4(rng, 2, 8, 0.5)
	assign := make(map[string]string, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		assign[g.Name(NodeID(n))] = fmt.Sprintf("w%d", n)
	}
	rows = append(rows, recycleRow{
		name:   "distributed",
		build:  routed(g, 99),
		engine: []Option{WithBackend(Distributed(assign))},
	})

	const inputs = 400
	var dummies int64
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ref, err := row.build(WithBackend(Simulator()))
			if err != nil {
				t.Fatal(err)
			}
			var refCol Collector
			refStats, err := ref.Run(context.Background(), CountingSource(inputs), &refCol)
			if err != nil {
				t.Fatal(err)
			}
			if refStats.SinkData == 0 {
				t.Fatal("the reference delivered nothing; a cancelled session's sink would never block")
			}
			dummies += refStats.TotalDummies()
			pipe, err := row.build(row.engine...)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := pipe.Engine()
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for i := 0; i < 6; i++ {
				if i%2 == 0 {
					cancelWhenStalled(t, eng, row.quiet)
					continue
				}
				var col Collector
				ses, err := eng.Open(context.Background(), CountingSource(inputs), &col)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := ses.Wait()
				if err != nil {
					t.Fatal(err)
				}
				requireSameStream(t, fmt.Sprintf("clean session %d", i), refStats, stats, refCol.Emissions(), col.Emissions())
			}
		})
	}
	if dummies == 0 {
		t.Fatal("no row sent a dummy; the test would not notice recycled protocol timers")
	}
}

// TestRecycledStreamSessionsMatchFresh is the stream half of the same
// check: the engine keeps a finished session's counters, ingest ring, span
// scratch and sink ring for the next Open (internal/stream, unhold).
// On one resident engine, clean sessions — alternately a plain Source and
// Sink and a SpanSource and SpanSink — are interleaved with a session
// cancelled while its sink blocks (its sink ring full at the end) and
// with one whose Source blocks in Next ignoring its context: it is
// cancelled, clean sessions run while its pump still holds its buffers,
// and then it is released.  Every clean session's per-edge counts and sink
// sequence must equal the simulator's.
func TestRecycledStreamSessionsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	g := workload.RandomCS4(rng, 2, 8, 0.5)
	topo := &Topology{g: g}
	routing := SourceRouting(g.Source(), Bernoulli(0.4, 30), PerInputBernoulli(0.7, 30))
	build := func(opts ...Option) (*Pipeline, error) {
		return Build(topo, append(opts, WithRouting(routing), WithWatchdog(10*time.Second))...)
	}
	assign := make(map[string]string, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		assign[g.Name(NodeID(n))] = fmt.Sprintf("w%d", n%2)
	}
	const inputs = 400
	ref, err := build(WithBackend(Simulator()))
	if err != nil {
		t.Fatal(err)
	}
	var refCol Collector
	refStats, err := ref.Run(context.Background(), CountingSource(inputs), &refCol)
	if err != nil {
		t.Fatal(err)
	}
	if refStats.SinkData == 0 || refStats.TotalDummies() == 0 {
		t.Fatal("the reference must deliver data and send dummies")
	}
	for _, row := range []struct {
		name string
		opts []Option
	}{
		// Named for batch widths the engine no longer has; the goroutine
		// rows run the one width.
		{"goroutines/batch1", nil},
		{"goroutines/batch64", nil},
		{"distributed/batch64", []Option{WithBackend(Distributed(assign))}},
	} {
		t.Run(row.name, func(t *testing.T) {
			pipe, err := build(row.opts...)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := pipe.Engine()
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			clean := 0
			runClean := func() {
				t.Helper()
				var src Source = CountingSource(inputs)
				col := &spanCollector{}
				var sink Sink = col
				if clean%2 == 0 {
					// Hide the span forms: the plain pump paths.
					src, sink = SourceFunc(src.Next), SinkFunc(col.Emit)
				}
				clean++
				ses, err := eng.Open(context.Background(), src, sink)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := ses.Wait()
				if err != nil {
					t.Fatal(err)
				}
				requireSameStream(t, fmt.Sprintf("clean session %d", clean), refStats, stats, refCol.Emissions(), col.Emissions())
			}

			runClean()
			cancelWhenStalled(t, eng, 0)
			runClean()

			release := make(chan struct{})
			var pulls atomic.Int64
			stuck := SourceFunc(func(context.Context) (any, bool, error) {
				n := pulls.Add(1)
				if n > 20 {
					<-release // ignores its context
				}
				return uint64(n - 1), true, nil
			})
			ses, err := eng.Open(context.Background(), stuck, &Collector{})
			if err != nil {
				t.Fatal(err)
			}
			for pulls.Load() <= 20 {
				time.Sleep(time.Millisecond)
			}
			ses.Cancel()
			if _, err := ses.Wait(); !errors.Is(err, context.Canceled) {
				t.Fatalf("session stuck in its source: %v, want context.Canceled", err)
			}
			for i := 0; i < 3; i++ {
				runClean()
			}
			close(release)
			for last := int64(-1); pulls.Load() != last; time.Sleep(5 * time.Millisecond) {
				last = pulls.Load()
			}
			for i := 0; i < 3; i++ {
				runClean()
			}
		})
	}
}

// spanCollector is a Collector that also takes whole runs (SpanSink).
type spanCollector struct{ Collector }

func (c *spanCollector) EmitSpan(ctx context.Context, seqs []uint64, pays []any) error {
	for i, seq := range seqs {
		c.Emit(ctx, seq, pays[i])
	}
	return nil
}

// cancelWhenStalled opens a session that cannot finish — its sink blocks
// after three emissions, and its source streams without end or goes quiet
// after quiet payloads — waits until the source has not been pulled for
// 20 ms, and cancels it.
func cancelWhenStalled(t *testing.T, eng *Engine, quiet int64) {
	t.Helper()
	var pulls, emits atomic.Int64
	src := SourceFunc(func(ctx context.Context) (any, bool, error) {
		n := pulls.Add(1)
		if quiet > 0 && n > quiet {
			<-ctx.Done()
			return nil, false, ctx.Err()
		}
		return uint64(n - 1), true, nil
	})
	sink := SinkFunc(func(ctx context.Context, _ uint64, _ any) error {
		if emits.Add(1) > 3 {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	ses, err := eng.Open(context.Background(), src, sink)
	if err != nil {
		t.Fatal(err)
	}
	last, still := int64(-1), 0
	for deadline := time.Now().Add(10 * time.Second); still < 10; {
		time.Sleep(2 * time.Millisecond)
		if n := pulls.Load(); n != last {
			last, still = n, 0
		} else {
			still++
		}
		if time.Now().After(deadline) {
			t.Fatalf("the session's source was still pulled after 10 s (%d payloads)", last)
		}
	}
	ses.Cancel()
	if _, err := ses.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled session: %v, want context.Canceled", err)
	}
}

// TestSessionCycleAllocBudget is the allocation gate of a short session on
// a resident engine: Open → Wait of 64 messages through three Maps, the
// session_churn shape.  Payloads stay below 256 so no box is counted;
// what is left is the session's own set-up and teardown.  Node state and
// the stream session's buffers are recycled, and the release hook is the
// Session pointer itself, so the 15 left are what a session cannot share:
//   - the public Session (1);
//   - one endpoint method value per direction, NextSpan or Next and
//     EmitSpan or Emit (2), since stream.SessionConfig's endpoint fields
//     are funcs;
//   - the test's own CountingSource (1);
//   - the stream session struct and its done channel, which callers keep
//     and which closes (2);
//   - the two pump goroutines (2);
//   - the session context and its cancel func (2);
//   - the completion Stats with its two maps, which the caller owns (5).
//
// The budget is 20.
func TestSessionCycleAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark")
	}
	pipe, err := NewFlow[uint64, uint64]().Buffer(256).Then(
		Map("s1", func(v uint64) uint64 { return v + 7 }),
		Map("s2", func(v uint64) uint64 { return 3 * v }),
		Map("s3", func(v uint64) uint64 { return v ^ 0x0f }),
	).Compile(WithWatchdog(10 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pipe.Engine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	allocs := testing.AllocsPerRun(200, func() {
		ses, err := eng.Open(context.Background(), CountingSource(64), DiscardSink())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ses.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per 64-message session", allocs)
	if allocs > 20 {
		t.Errorf("a 64-message session allocates %.1f times; want at most 20", allocs)
	}
}
