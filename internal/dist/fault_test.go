package dist

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"streamdag/internal/cs4"
	"streamdag/internal/fault"
	"streamdag/internal/graph"
	"streamdag/internal/obs"
	"streamdag/internal/proto"
	"streamdag/internal/workload"
)

// faultTopo builds the Fig. 2 triangle split over three workers
// ("w0".."w2", round-robin by node) with keep-everything kernels, so
// every sink firing carries a payload and delivery counts are exact.
func faultTopo(t *testing.T) (*graph.Graph, Partition, Config) {
	t.Helper()
	g := workload.Fig2Triangle(2)
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := d.Intervals(cs4.Propagation)
	if err != nil {
		t.Fatal(err)
	}
	part := Partition{}
	for n := 0; n < g.NumNodes(); n++ {
		part[graph.NodeID(n)] = fmt.Sprintf("w%d", n%3)
	}
	cfg := Config{Algorithm: cs4.Propagation, Intervals: iv, WatchdogTimeout: 5 * time.Second}
	return g, part, cfg
}

func keepAll(graph.NodeID, uint64, graph.EdgeID) bool { return true }

func graphMetrics(g *graph.Graph) *obs.Metrics {
	nodes := make([]string, g.NumNodes())
	for n := range nodes {
		nodes[n] = g.Name(graph.NodeID(n))
	}
	edges := make([]string, g.NumEdges())
	for _, e := range g.Edges() {
		edges[e.ID] = g.Name(e.From) + "→" + g.Name(e.To)
	}
	return obs.New(nodes, edges)
}

// openCounted opens a session whose sink signals after `after`
// deliveries (so tests can kill a worker provably mid-run) and counts
// the rest.
func openCounted(t *testing.T, eng *Engine, id proto.SessionID, inputs, after int) (*EngineSession, <-chan struct{}, *int, *sync.Mutex) {
	t.Helper()
	i := 0
	source := func(context.Context) (any, bool, error) {
		if i >= inputs {
			return nil, false, nil
		}
		v := fmt.Sprintf("s%d-%d", id, i)
		i++
		return v, true, nil
	}
	midway := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	n := new(int)
	ses, err := eng.Open(SessionIO{
		ID:     id,
		Source: source,
		Sink: func(context.Context, uint64, any) error {
			mu.Lock()
			*n++
			if *n >= after {
				once.Do(func() { close(midway) })
			}
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatalf("open session %d: %v", id, err)
	}
	return ses, midway, n, &mu
}

// requireComplete opens a session of inputs payloads and requires it to
// deliver every one.
func requireComplete(t *testing.T, eng *Engine, id proto.SessionID, inputs int) {
	t.Helper()
	ses, _, n, mu := openCounted(t, eng, id, inputs, 1)
	if _, err := ses.Wait(); err != nil {
		t.Fatalf("session %d: %v", id, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if *n != inputs {
		t.Fatalf("session %d delivered %d payloads, want %d", id, *n, inputs)
	}
}

// TestEngineKillWorkerTyped kills each of three workers in turn, one of
// them twice in a row, while the dropped links carry runs and a writer
// may be mid-batch.  A kill fails exactly the
// sessions active at that moment with a *fault.WorkerDownError naming the
// worker and listing them — not a generic transport error, not a
// DeadlockError — and re-links in place: a session opened after it
// delivers every payload.  A kill racing Open returns cleanly and leaves
// each racing session complete or failed by it; one racing Close returns
// nil or ErrEngineClosed, and TestMain finds no goroutine left behind.
// The subtests, named for two batch widths the engine no longer has, run the one width.
func TestEngineKillWorkerTyped(t *testing.T) {
	for _, name := range []string{"batch1", "batch16"} {
		t.Run(name, func(t *testing.T) {
			g, part, cfg := faultTopo(t)
			m := graphMetrics(g)
			cfg.Obs = m
			eng, err := NewEngine(g, part, engineKernels(g, keepAll), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			var id proto.SessionID
			next := func() proto.SessionID { id++; return id }
			kills := 0
			for _, name := range []string{"w0", "w1", "w2"} {
				a, b := next(), next()
				sa, midA, _, _ := openCounted(t, eng, a, 50000, 5)
				sb, midB, _, _ := openCounted(t, eng, b, 50000, 5)
				<-midA
				<-midB
				if err := eng.KillWorker(name); err != nil {
					t.Fatal(err)
				}
				kills++
				if name == "w0" {
					// A second kill right after the first finds no session
					// active and must leave the mesh whole all the same.
					if err := eng.KillWorker("w1"); err != nil {
						t.Fatal(err)
					}
					kills++
				}
				for _, ses := range []*EngineSession{sa, sb} {
					_, werr := ses.Wait()
					var wd *fault.WorkerDownError
					if !errors.As(werr, &wd) {
						t.Fatalf("session %d error %T %v, want *fault.WorkerDownError", ses.ID(), werr, werr)
					}
					if wd.Worker != name || wd.Addr == "" {
						t.Fatalf("session %d: dead worker %q at %q, want %s", ses.ID(), wd.Worker, wd.Addr, name)
					}
					if want := []uint64{uint64(a), uint64(b)}; !slices.Equal(wd.Sessions, want) {
						t.Fatalf("kill of %s lists sessions %v, want exactly %v", name, wd.Sessions, want)
					}
				}
				requireComplete(t, eng, next(), 300)
			}
			if got := m.Snapshot().Faults.WorkersDown; got != int64(kills) {
				t.Fatalf("WorkersDown = %d, want %d", got, kills)
			}
			if err := eng.KillWorker("nosuch"); err == nil {
				t.Fatal("killing an unknown worker succeeded")
			}

			const inputs = 200
			killed := make(chan error, 1)
			go func() { killed <- eng.KillWorker("w1") }()
			for i := 0; i < 4; i++ {
				s := next()
				ses, _, n, mu := openCounted(t, eng, s, inputs, 1)
				if _, err := ses.Wait(); err != nil {
					if !fault.IsWorkerDown(err) {
						t.Fatalf("session %d racing a kill: %v", s, err)
					}
					continue
				}
				mu.Lock()
				got := *n
				mu.Unlock()
				if got != inputs {
					t.Fatalf("session %d racing a kill delivered %d payloads, want %d", s, got, inputs)
				}
			}
			if err := <-killed; err != nil {
				t.Fatal(err)
			}
			requireComplete(t, eng, next(), inputs)

			go func() { killed <- eng.KillWorker("w2") }()
			eng.Close()
			if err := <-killed; err != nil && !errors.Is(err, ErrEngineClosed) {
				t.Fatalf("KillWorker racing Close: %v", err)
			}
		})
	}
}
