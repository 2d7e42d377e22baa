package streamdag

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The observability contract: an Observer's per-edge data/dummy counts
// must bit-match the counts RunStats pins on every backend and batch
// size, simulator snapshots must be deterministic (virtual time), taps
// must see exactly the forwarded elements, and an unobserved pipeline
// must expose an empty (but valid) snapshot.

// runObserved runs the batching parity workload (Replicate(4) +
// FilterStage) on the named backend with a fresh Observer attached and
// returns the run's stats alongside the final snapshot.
func runObserved(t *testing.T, backend string, opts ...Option) (*RunStats, *Snapshot) {
	t.Helper()
	obs := NewObserver()
	pipe := batchingFlow(t, append([]Option{WithObserver(obs)}, opts...)...)
	pipe.backend = parityBackends(pipe)[backend]
	stats, err := pipe.Run(context.Background(), CountingSource(batchingInputs), DiscardSink())
	if err != nil {
		t.Fatalf("%s: %v", backend, err)
	}
	return stats, obs.Snapshot()
}

// TestObserverParityAllBackends pins the observer's per-edge counters to
// the RunStats ground truth on all three backends, across the replicated
// (k=4) filtering workload.  The subtests, named for two batch widths the engine no longer has,
// run the one width.
func TestObserverParityAllBackends(t *testing.T) {
	for _, backend := range []string{"goroutines", "simulator", "distributed"} {
		for _, width := range []string{"batch1", "batch64"} {
			backend := backend
			t.Run(backend+"/"+width, func(t *testing.T) {
				stats, snap := runObserved(t, backend)

				for e, want := range stats.Data {
					if got := snap.Edges[e].Data; got != want {
						t.Errorf("edge %d (%s) data = %d, RunStats %d", e, snap.Edges[e].Name, got, want)
					}
				}
				for e, want := range stats.Dummies {
					if got := snap.Edges[e].Dummies; got != want {
						t.Errorf("edge %d (%s) dummies = %d, RunStats %d", e, snap.Edges[e].Name, got, want)
					}
				}
				for _, e := range snap.Edges {
					if e.Depth != 0 {
						t.Errorf("edge %s depth = %d after drain, want 0", e.Name, e.Depth)
					}
				}
				s := snap.Sessions
				if s.Opened != 1 || s.Completed != 1 || s.Failed != 0 || s.Active != 0 {
					t.Errorf("sessions = %+v, want exactly one completed", s)
				}
				if s.SinkMsgs != stats.SinkData {
					t.Errorf("sink msgs = %d, RunStats %d", s.SinkMsgs, stats.SinkData)
				}
				if s.Latency.Count != 1 {
					t.Errorf("latency count = %d, want 1", s.Latency.Count)
				}
				// Every element fires each node it passes exactly once,
				// batched or not: the source fires once per input.
				var source NodeSnapshot
				for _, n := range snap.Nodes {
					if n.Name == "source" {
						source = n
					}
				}
				if source.Firings != batchingInputs {
					t.Errorf("source firings = %d, want %d", source.Firings, batchingInputs)
				}
			})
		}
	}
}

// TestSimulatorSnapshotDeterministic runs the simulator workload twice
// with fresh observers: virtual-time snapshots must be byte-identical.
func TestSimulatorSnapshotDeterministic(t *testing.T) {
	_, first := runObserved(t, "simulator")
	_, second := runObserved(t, "simulator")
	if !first.VirtualTime {
		t.Fatal("simulator snapshot is not marked virtual-time")
	}
	a, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("simulator snapshots differ between runs:\n%s\n%s", a, b)
	}
}

// TestStageTap pins the tap contract: fn sees exactly the elements the
// stage forwards — post-transform, filtered elements excluded — on the
// span path, for every stage kind.  The subtests, named for two batch widths the engine no longer has, run
// the one width.
func TestStageTap(t *testing.T) {
	for _, width := range []string{"batch1", "batch64"} {
		t.Run(width, func(t *testing.T) {
			const inputs = 300
			var mapped, kept, sum atomic.Int64
			opts := []Option{WithWatchdog(10 * time.Second)}
			pipe, err := NewFlow[uint64, uint64]().
				Then(
					Map("double", func(v uint64) uint64 { return 2 * v }).Tap(func(v any) {
						mapped.Add(1)
						sum.Add(int64(v.(uint64)))
					}),
					FilterStage("keep", func(v uint64) bool { return v%4 == 0 }).Tap(func(any) {
						kept.Add(1)
					}),
				).
				Compile(opts...)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := pipe.Run(context.Background(), CountingSource(inputs), DiscardSink())
			if err != nil {
				t.Fatal(err)
			}
			if mapped.Load() != inputs {
				t.Errorf("map tap saw %d elements, want %d", mapped.Load(), inputs)
			}
			// The tap runs after the transform: sum of 2v over v=0..n-1.
			if want := int64(inputs * (inputs - 1)); sum.Load() != want {
				t.Errorf("map tap sum = %d, want %d", sum.Load(), want)
			}
			if kept.Load() != stats.SinkData {
				t.Errorf("filter tap saw %d elements, sink got %d", kept.Load(), stats.SinkData)
			}
			if kept.Load() >= mapped.Load() {
				t.Errorf("filter tap saw %d of %d — filtering not observed", kept.Load(), mapped.Load())
			}
		})
	}
	t.Run("every-kind", testTapEveryKind)
}

// tapLog records what one stage's tap sees; taps may run on several
// goroutines at once.
type tapLog struct {
	mu   sync.Mutex
	seen []string
}

func (l *tapLog) tap(v any) {
	l.mu.Lock()
	l.seen = append(l.seen, fmt.Sprint(v))
	l.mu.Unlock()
}

// sameMultiset reports whether a and b hold the same strings, in any
// order.
func sameMultiset(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// testTapEveryKind is TestStageTap on every stage kind: a FilterMap, a
// Stateful, a Merge2 join and a TumblingWindow each see exactly the
// elements they forward, on the goroutine backend and the simulator, and
// the last stage's tap sees what the sink receives.
func testTapEveryKind(t *testing.T) {
	const inputs = 200
	// The stream each stage forwards, computed in plain Go.
	var fm, st, mg []string
	count := 0
	for v := uint64(0); v < inputs; v++ {
		if v%2 != 0 {
			continue
		}
		w := v / 2
		fm = append(fm, fmt.Sprint(w))
		if count++; count%3 == 0 {
			continue
		}
		st = append(st, fmt.Sprint(w+uint64(count)))
		j := (w + uint64(count) + 1) * 10
		if (w+uint64(count))%3 == 0 {
			j++
		}
		mg = append(mg, fmt.Sprint(j))
	}
	for _, backend := range []Backend{Goroutines(), Simulator()} {
		for _, width := range []string{"batch1", "batch64"} {
			backend := backend
			t.Run(fmt.Sprintf("%s/%s", backend, width), func(t *testing.T) {
				var fmLog, stLog, mgLog, winLog tapLog
				pipe, err := NewFlow[uint64, Window[uint64]]().
					Then(
						FilterMap("half", func(v uint64) (uint64, bool) { return v / 2, v%2 == 0 }).Tap(fmLog.tap),
						Stateful("every", 0, func(n int, v uint64) (int, uint64, bool) {
							n++
							return n, v + uint64(n), n%3 != 0
						}).Tap(stLog.tap),
						Split(
							Merge2("join", func(a, b Maybe[uint64]) (uint64, bool) {
								j := a.Value * 10
								if b.OK {
									j++
								}
								return j, a.OK
							}).Tap(mgLog.tap),
							Map("inc", func(v uint64) uint64 { return v + 1 }),
							FilterStage("thirds", func(v uint64) bool { return v%3 == 0 }),
						),
						TumblingWindow[uint64]("win", time.Millisecond).Tap(winLog.tap),
					).
					Compile(WithBackend(backend), WithWatchdog(10*time.Second))
				if err != nil {
					t.Fatal(err)
				}
				var col TypedCollector[Window[uint64]]
				if _, err := pipe.Run(context.Background(), CountingSource(inputs), &col); err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					stage string
					log   *tapLog
					want  []string
				}{{"half", &fmLog, fm}, {"every", &stLog, st}, {"join", &mgLog, mg}} {
					if !sameMultiset(c.log.seen, c.want) {
						t.Errorf("%s tap saw %d elements %v, want %d %v", c.stage, len(c.log.seen), c.log.seen, len(c.want), c.want)
					}
				}
				var sunk []string
				items := 0
				for _, w := range col.Values() {
					sunk = append(sunk, fmt.Sprint(w))
					items += len(w.Items)
				}
				if !sameMultiset(winLog.seen, sunk) {
					t.Errorf("window tap saw %v, sink got %v", winLog.seen, sunk)
				}
				if items != len(mg) {
					t.Errorf("windows hold %d elements, the join forwarded %d", items, len(mg))
				}
			})
		}
	}
}

// TestTapRejections pins the misuse errors: composite stages have no
// node to tap, and a nil tap function is a compile error.
func TestTapRejections(t *testing.T) {
	seq := Sequence(
		Map("a", func(v uint64) uint64 { return v }),
		Map("b", func(v uint64) uint64 { return v }),
	).Tap(func(any) {})
	if _, err := NewFlow[uint64, uint64]().Then(seq).Compile(); err == nil ||
		!strings.Contains(err.Error(), "tap its member stages") {
		t.Errorf("tapped Sequence compiled, err = %v", err)
	}
	nilTap := Map("c", func(v uint64) uint64 { return v }).Tap(nil)
	if _, err := NewFlow[uint64, uint64]().Then(nilTap).Compile(); err == nil ||
		!strings.Contains(err.Error(), "nil Tap") {
		t.Errorf("nil tap compiled, err = %v", err)
	}
}

// TestObserverDepthConvergesAfterCancel pins the gauge contract on the
// failure path: a cancelled session's stranded in-flight messages count
// as drained, so edge depths return to zero instead of leaking a little
// more of the gauge with every failed session.
func TestObserverDepthConvergesAfterCancel(t *testing.T) {
	for _, backend := range []string{"goroutines", "simulator", "distributed"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			obs := NewObserver()
			pipe := batchingFlow(t, WithObserver(obs))
			pipe.backend = parityBackends(pipe)[backend]
			eng, err := pipe.Engine()
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			ctx, cancel := context.WithCancel(context.Background())
			ses, err := eng.Open(ctx, CountingSource(1<<40), DiscardSink())
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond) // let messages get in flight
			cancel()
			if _, err := ses.Wait(); !errors.Is(err, context.Canceled) {
				t.Fatalf("Wait after cancel = %v, want context.Canceled", err)
			}

			// Late cross-worker frames fold in asynchronously on the
			// distributed backend, so poll briefly for convergence.
			deadline := time.Now().Add(2 * time.Second)
			for {
				snap := obs.Snapshot()
				converged := snap.Sessions.Failed == 1
				for _, e := range snap.Edges {
					if e.Depth != 0 {
						converged = false
					}
				}
				if converged {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("depth gauge never converged after cancel: %+v", snap.Edges)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestEngineMetricsWithoutObserver: the nil default stays cheap and
// Metrics still returns a usable empty snapshot.
func TestEngineMetricsWithoutObserver(t *testing.T) {
	pipe := batchingFlow(t)
	eng, err := pipe.Engine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	snap := eng.Metrics()
	if snap == nil {
		t.Fatal("Metrics() returned nil")
	}
	if len(snap.Nodes) != 0 || snap.Sessions.Opened != 0 {
		t.Fatalf("unobserved engine snapshot not empty: %+v", snap)
	}
}

// TestObserverTopologyMismatch: one Observer cannot span two different
// topologies (its per-node slots would be meaningless).
func TestObserverTopologyMismatch(t *testing.T) {
	obs := NewObserver()
	if _, err := batchingFlow(t, WithObserver(obs)).Run(
		context.Background(), CountingSource(8), DiscardSink()); err != nil {
		t.Fatal(err)
	}
	topo := NewTopology()
	topo.Channel("x", "y", 4)
	if _, err := Build(topo, WithObserver(obs), WithRouting(PassAll)); err == nil {
		t.Fatal("observer attached to a second, different topology")
	}
}

// TestObserverHandler serves the two exposition formats through the
// public HTTP handler.
func TestObserverHandler(t *testing.T) {
	obs := NewObserver()
	pipe := batchingFlow(t, WithObserver(obs))
	if _, err := pipe.Run(context.Background(), CountingSource(64), DiscardSink()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()

	prom := httpGetBody(t, srv.URL+"/metrics")
	if !strings.Contains(prom, "streamdag_node_firings_total") {
		t.Errorf("/metrics misses the firings counter:\n%.200s", prom)
	}
	vars := httpGetBody(t, srv.URL+"/debug/vars")
	var decoded map[string]*Snapshot
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if decoded["streamdag"] == nil || len(decoded["streamdag"].Nodes) == 0 {
		t.Errorf("/debug/vars has no node data: %s", vars)
	}
}

// httpGetBody fetches url and returns the body as a string.
func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(body)
}
