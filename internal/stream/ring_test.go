package stream_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

// countedRun is one session of inputs through a fresh engine with a sink,
// counting the events the node loops took by kind.  pace, when non-nil,
// runs in the Sink before each emission is recorded.
func countedRun(t *testing.T, g *graph.Graph, ks map[graph.NodeID]stream.Kernel, cfg stream.Config, inputs uint64, pace func()) (stats *stream.Stats, seen []stream.Message, kicks, wakes int64) {
	t.Helper()
	eng, err := stream.NewEngine(g, ks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	events := stream.CountEvents(eng)
	sink := func(_ context.Context, seq uint64, payload any) error {
		if pace != nil {
			pace()
		}
		seen = append(seen, stream.Message{Seq: seq, Kind: stream.Data, Payload: payload})
		return nil
	}
	ses, err := eng.Open(stream.SessionConfig{ID: 1, Source: stream.SyntheticSource(inputs), Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if stats, err = ses.Wait(); err != nil {
		t.Fatal(err)
	}
	kicks, wakes = events()
	return stats, seen, kicks, wakes
}

// TestStalledProducerWokenByConsumption drives a split/join whose windows
// hold one or two messages into a join that spins at every firing, so
// the split and both branches park sends on full local windows over and
// over.  Nothing but the join's consumption — its consumed count, and the
// wake it posts to a producer that raised the edge's stalled flag — can
// restart them: a lost wake wedges the session, which the watchdog then
// reports.  Counts and the sink sequence must equal the simulator's, and
// the run must have taken stall wakes.
func TestStalledProducerWokenByConsumption(t *testing.T) {
	const inputs = 300
	for _, buf := range []int{1, 2} {
		g := workload.Fig1SplitJoin(buf)
		ks := filterKernels(g, workload.PassAll)
		join := g.MustNode("D")
		fast := ks[join]
		ks[join] = stream.KernelFunc(func(seq uint64, in []stream.Input) map[int]any {
			spinFor(20 * time.Microsecond)
			return fast.(stream.KernelFunc)(seq, in)
		})
		ref, refSeen := simRun(g, ks, stream.Config{}, inputs)
		if !ref.Completed {
			t.Fatalf("buf %d: simulator: %s", buf, ref.Reason)
		}
		for _, batch := range []int{1, 64} {
			cfg := stream.Config{MaxBatch: batch, WatchdogTimeout: 2 * time.Second}
			stats, seen, _, wakes := countedRun(t, g, ks, cfg, inputs, nil)
			label := fmt.Sprintf("buf %d batch %d", buf, batch)
			requireMatchesSim(t, label, g, stats, seen, ref, refSeen)
			if wakes == 0 {
				t.Errorf("%s: no producer was woken from a stall; the test would not notice a lost wake", label)
			}
		}
	}
}

// TestRimWindowsWakeTheirProducers fills both rims' windows, where a pump
// meets its node.  A stage that spins at every firing, behind the source,
// stops the source node firing, so the ingest pump fills its window and
// parks until the source node's count moves.  A Sink that spins a random
// while at every emission, longer on average than the stage, and blocks
// on every 500th, keeps the sink window full, so the sink node stalls on
// it again and again, with input queued, while the pump's count moves at
// random moments.  Then short sessions on a chain that holds a whole
// session: all of it reaches the sink's heads before the pump has taken
// a window, so the sink node's last advance stalls with input queued, and
// no kick will come after.  Nothing else restarts either producer: a lost
// wake on either rim wedges the session, which the watchdog reports.
// Counts and the sink sequence must equal the simulator's.
func TestRimWindowsWakeTheirProducers(t *testing.T) {
	const inputs, every = 5000, 500
	g := workload.Pipeline(3, 4)
	ks := filterKernels(g, workload.PassAll)
	slow := g.MustNode("s1")
	fast := ks[slow]
	ks[slow] = stream.KernelFunc(func(seq uint64, in []stream.Input) map[int]any {
		spinFor(time.Microsecond)
		return fast.(stream.KernelFunc)(seq, in)
	})
	ref, refSeen := simRun(g, ks, stream.Config{}, inputs)
	if !ref.Completed {
		t.Fatalf("simulator: %s", ref.Reason)
	}
	for _, batch := range []int{1, 64} {
		emitted, rng := 0, rand.New(rand.NewSource(int64(batch)))
		pace := func() {
			if emitted++; emitted%every == 0 {
				time.Sleep(5 * time.Millisecond)
			}
			spinFor(time.Duration(rng.Intn(3000)))
		}
		cfg := stream.Config{MaxBatch: batch, WatchdogTimeout: 2 * time.Second}
		stats, seen, _, wakes := countedRun(t, g, ks, cfg, inputs, pace)
		label := fmt.Sprintf("batch %d", batch)
		requireMatchesSim(t, label, g, stats, seen, ref, refSeen)
		if wakes == 0 {
			t.Errorf("%s: no node was woken from a stall; the windows never filled", label)
		}
	}

	g = workload.Pipeline(3, 1024)
	ks = filterKernels(g, workload.PassAll)
	for _, tc := range []struct {
		batch    int
		inputs   uint64
		sessions int
	}{{1, 48, 2000}, {64, 400, 300}} {
		ref, refSeen := simRun(g, ks, stream.Config{}, tc.inputs)
		eng, err := stream.NewEngine(g, ks, stream.Config{MaxBatch: tc.batch, WatchdogTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		for i := 0; i < tc.sessions; i++ {
			var seen []stream.Message
			sink := func(_ context.Context, seq uint64, payload any) error {
				seen = append(seen, stream.Message{Seq: seq, Kind: stream.Data, Payload: payload})
				return nil
			}
			ses, err := eng.Open(stream.SessionConfig{ID: proto.SessionID(i + 1), Source: stream.SyntheticSource(tc.inputs), Sink: sink})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := ses.Wait()
			if err != nil {
				t.Fatalf("batch %d, session %d: %v", tc.batch, i, err)
			}
			requireMatchesSim(t, fmt.Sprintf("batch %d, session %d", tc.batch, i), g, stats, seen, ref, refSeen)
		}
	}
}

// spinFor busy-waits d.
func spinFor(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestLocalChainPostsNoRunsOrCredits pins the transport of an in-process
// edge: on a batch-1 chain whose every edge is local, messages cross in
// rings and credits are consumed counts, so the node loops take only
// kicks, no more than the messages they carry, and the stall wakes of
// producers that filled a window.
func TestLocalChainPostsNoRunsOrCredits(t *testing.T) {
	const inputs, hops = 20000, 4
	for _, buf := range []int{2, 256} {
		_, _, kicks, wakes := countedRun(t, workload.Pipeline(hops+1, buf), nil,
			stream.Config{MaxBatch: 1, WatchdogTimeout: 10 * time.Second}, inputs, nil)
		t.Logf("buf %d: %d messages over %d hops took %d kicks and %d stall wakes", buf, inputs, hops, kicks, wakes)
		if kicks == 0 || kicks > (hops+1)*inputs {
			t.Errorf("buf %d: %d kicks for %d messages over %d hops and the ingest ring", buf, kicks, inputs, hops)
		}
	}
}
