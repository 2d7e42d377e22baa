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

// Each node of a resident engine keeps its retired sessions' state and
// reuses it for the next session (internal/stream, release).  These tests
// pin that reuse as invisible: a session running on state a cancelled one
// left behind streams exactly what a fresh topology would.

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
		for _, batch := range []int{1, 64} {
			for _, observed := range []bool{false, true} {
				opts := []Option{WithMaxBatch(batch)}
				if observed {
					opts = append(opts, WithObserver(NewObserver()))
				}
				rows = append(rows, recycleRow{
					name:   fmt.Sprintf("%s/batch%d/observer=%v", fam.name, batch, observed),
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
		engine: []Option{WithBackend(Distributed(assign)), WithMaxBatch(64)},
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
// a resident engine: Open → Wait of 64 messages through three Maps at batch
// 1, the session_churn shape.  Payloads stay below 256 so no box is counted;
// what is left is the session's own set-up and teardown.  Each node reuses a
// retired session's state instead of rebuilding it (95 → 35 allocations),
// and a session is one object with one context and one done channel, both
// its backend's (35 → 28).  The 28 left: the public Session and its release
// hook (2); the Source/Sink adapters and span method values (4) and the
// test's own CountingSource (1); the stream session — struct, four
// per-node/per-edge counter slices, ready and done channels, ingest ring,
// sink channel and buffer, two pump goroutines, span scratch (13); the one
// context (3); and the completion Stats with its two maps (5).  The budget
// is 31.
func TestSessionCycleAllocBudget(t *testing.T) {
	if testing.Short() || raceDetector {
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
	if allocs > 31 {
		t.Errorf("a 64-message session allocates %.1f times; want at most 31", allocs)
	}
}
