package dist

import (
	"context"
	"errors"
	"fmt"
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

// TestEngineKillWorkerTyped: killing one of three workers mid-run fails
// the active session with a *fault.WorkerDownError naming the worker
// and listing the session, not a generic transport error and not a
// DeadlockError.  Without Restart the engine stays degraded: Open
// reports the dead worker too.
func TestEngineKillWorkerTyped(t *testing.T) {
	g, part, cfg := faultTopo(t)
	eng, err := NewEngine(g, part, engineKernels(g, keepAll), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ses, midway, _, _ := openCounted(t, eng, 1, 50000, 5)
	<-midway
	if err := eng.KillWorker("w1"); err != nil {
		t.Fatal(err)
	}
	_, werr := ses.Wait()
	var wd *fault.WorkerDownError
	if !errors.As(werr, &wd) {
		t.Fatalf("session error %T %v, want *fault.WorkerDownError", werr, werr)
	}
	if wd.Worker != "w1" {
		t.Fatalf("dead worker %q, want w1", wd.Worker)
	}
	found := false
	for _, id := range wd.Sessions {
		if id == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("affected sessions %v do not include 1", wd.Sessions)
	}

	// Degraded engine: no restart configured, so new sessions are
	// refused with the same typed error.
	if _, err := eng.Open(SessionIO{ID: 2, Source: func(context.Context) (any, bool, error) { return nil, false, nil }}); !fault.IsWorkerDown(err) {
		t.Fatalf("open on degraded engine: %v, want WorkerDownError", err)
	}
	if err := eng.KillWorker("nosuch"); err == nil {
		t.Fatal("killing an unknown worker succeeded")
	}
}

// TestEngineKillWorkerRestart: with Restart on, the supervisor respawns
// the dead worker, survivors re-dial it, and a session opened right
// after the kill (Open waits out the repair) completes in full.
func TestEngineKillWorkerRestart(t *testing.T) {
	g, part, cfg := faultTopo(t)
	cfg.Restart = true
	cfg.HeartbeatInterval = 20 * time.Millisecond
	m := graphMetrics(g)
	cfg.Obs = m
	eng, err := NewEngine(g, part, engineKernels(g, keepAll), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ses, midway, _, _ := openCounted(t, eng, 1, 50000, 5)
	<-midway
	if err := eng.KillWorker("w2"); err != nil {
		t.Fatal(err)
	}
	if _, werr := ses.Wait(); !fault.IsWorkerDown(werr) {
		t.Fatalf("killed session error: %v", werr)
	}

	// The retry: a fresh session on the repaired mesh must run to
	// completion with every payload delivered.
	const inputs = 300
	ses2, _, n, mu := openCounted(t, eng, 2, inputs, 1)
	if _, err := ses2.Wait(); err != nil {
		t.Fatalf("post-restart session: %v", err)
	}
	mu.Lock()
	got := *n
	mu.Unlock()
	if got != inputs {
		t.Fatalf("post-restart session delivered %d payloads, want %d", got, inputs)
	}

	snap := m.Snapshot()
	if snap.Faults.WorkersDown < 1 {
		t.Fatalf("WorkersDown = %d, want >= 1", snap.Faults.WorkersDown)
	}
	if snap.Faults.Reconnects < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", snap.Faults.Reconnects)
	}
}

// TestEngineKillWorkerRestartCoalesced exercises the repair path at
// MaxBatch > 1, where the links being swapped carry spans and a link
// writer may be mid-batch when its connection drops.
func TestEngineKillWorkerRestartCoalesced(t *testing.T) {
	g, part, cfg := faultTopo(t)
	cfg.Restart = true
	cfg.MaxBatch = 16
	eng, err := NewEngine(g, part, engineKernels(g, keepAll), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ses, midway, _, _ := openCounted(t, eng, 1, 50000, 5)
	<-midway
	if err := eng.KillWorker("w0"); err != nil {
		t.Fatal(err)
	}
	if _, werr := ses.Wait(); !fault.IsWorkerDown(werr) {
		t.Fatalf("killed session error: %v", werr)
	}
	const inputs = 200
	ses2, _, n, mu := openCounted(t, eng, 2, inputs, 1)
	if _, err := ses2.Wait(); err != nil {
		t.Fatalf("post-restart session: %v", err)
	}
	mu.Lock()
	got := *n
	mu.Unlock()
	if got != inputs {
		t.Fatalf("post-restart session delivered %d payloads, want %d", got, inputs)
	}
}

// TestEngineHeartbeatIdleNoFalsePositive: an idle engine with fast
// heartbeats must never declare anyone down — the beat senders keep the
// quiet links alive through many miss windows.
func TestEngineHeartbeatIdleNoFalsePositive(t *testing.T) {
	g, part, cfg := faultTopo(t)
	cfg.HeartbeatInterval = 5 * time.Millisecond
	cfg.HeartbeatMiss = 2
	m := graphMetrics(g)
	cfg.Obs = m
	eng, err := NewEngine(g, part, engineKernels(g, keepAll), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	time.Sleep(200 * time.Millisecond) // 20 miss windows of idleness
	if snap := m.Snapshot(); snap.Faults.WorkersDown != 0 || snap.Faults.HeartbeatsMissed != 0 {
		t.Fatalf("idle engine declared workers down: %+v", snap.Faults)
	}
	// And the engine still works.
	const inputs = 100
	ses, _, n, mu := openCounted(t, eng, 1, inputs, 1)
	if _, err := ses.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := *n
	mu.Unlock()
	if got != inputs {
		t.Fatalf("delivered %d payloads, want %d", got, inputs)
	}
}
