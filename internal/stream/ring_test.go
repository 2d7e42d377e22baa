package stream_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"streamdag/internal/graph"
	"streamdag/internal/obs"
	"streamdag/internal/proto"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

// countedRun is one session of inputs through a fresh engine with a sink
// and an observer, counting the kicks the node loops took.  pace, when
// non-nil, runs in the Sink before each emission is recorded.
func countedRun(t *testing.T, g *graph.Graph, ks map[graph.NodeID]stream.Kernel, cfg stream.Config, inputs uint64, pace func()) (stats *stream.Stats, seen []stream.Message, kicks int64, m *obs.Metrics) {
	t.Helper()
	m = obs.New(make([]string, g.NumNodes()), make([]string, g.NumEdges()))
	cfg.Obs = m
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
	return stats, seen, events(), m
}

// TestStalledProducerWokenByConsumption drives a split/join whose windows
// hold one or two messages into a join that spins at every firing, so
// the split and both branches park sends on full local windows over and
// over.  Nothing but the join's consumption — its consumed count, and the
// kick it owes a producer that raised the edge's stalled flag — can
// restart them: a lost wake wedges the session, which the watchdog then
// reports.  Counts and the sink sequence must equal the simulator's, and
// the observer must have counted producers stalled on a full edge.
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
		cfg := stream.Config{WatchdogTimeout: 2 * time.Second}
		stats, seen, _, m := countedRun(t, g, ks, cfg, inputs, nil)
		label := fmt.Sprintf("buf %d", buf)
		requireMatchesSim(t, label, g, stats, seen, ref, refSeen)
		stalls := int64(0)
		for e := range g.NumEdges() {
			stalls += m.Edge(e).CreditStalls.Load()
		}
		if stalls == 0 {
			t.Errorf("%s: no producer stalled on a full edge; the test would not notice a lost wake", label)
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
// Counts and the sink sequence must equal the simulator's, and the
// observer must have counted wakes across both rims.
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
	emitted, rng := 0, rand.New(rand.NewSource(64))
	pace := func() {
		if emitted++; emitted%every == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		spinFor(time.Duration(rng.Intn(3000)))
	}
	stats, seen, _, m := countedRun(t, g, ks, stream.Config{WatchdogTimeout: 2 * time.Second}, inputs, pace)
	requireMatchesSim(t, "paced sink", g, stats, seen, ref, refSeen)
	if s := m.Sessions(); s.IngestWakes.Load() == 0 || s.SinkWakes.Load() == 0 {
		t.Errorf("%d ingest and %d sink wakes; the rims' windows never filled", s.IngestWakes.Load(), s.SinkWakes.Load())
	}

	g = workload.Pipeline(3, 1024)
	ks = filterKernels(g, workload.PassAll)
	for _, tc := range []struct {
		inputs   uint64
		sessions int
	}{{48, 2000}, {400, 300}} {
		ref, refSeen := simRun(g, ks, stream.Config{}, tc.inputs)
		eng, err := stream.NewEngine(g, ks, stream.Config{WatchdogTimeout: 2 * time.Second})
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
				t.Fatalf("%d inputs, session %d: %v", tc.inputs, i, err)
			}
			requireMatchesSim(t, fmt.Sprintf("%d inputs, session %d", tc.inputs, i), g, stats, seen, ref, refSeen)
		}
	}
}

// spinFor busy-waits d.
func spinFor(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestLocalChainPostsNoRunsOrCredits pins the transport of an in-process
// edge: on a chain whose every edge is local, messages cross in
// rings and credits are consumed counts, so the node loops take only
// kicks — to drain, or to wake a producer that stalled on a full window —
// no more than the messages they carry.
func TestLocalChainPostsNoRunsOrCredits(t *testing.T) {
	const inputs, hops = 20000, 4
	for _, buf := range []int{2, 256} {
		_, _, kicks, m := countedRun(t, workload.Pipeline(hops+1, buf), nil,
			stream.Config{WatchdogTimeout: 10 * time.Second}, inputs, nil)
		stalls := int64(0)
		for e := range hops {
			stalls += m.Edge(e).CreditStalls.Load()
		}
		t.Logf("buf %d: %d messages over %d hops took %d kicks; producers stalled on a full edge %d times", buf, inputs, hops, kicks, stalls)
		if kicks == 0 || kicks > (hops+1)*inputs {
			t.Errorf("buf %d: %d kicks for %d messages over %d hops and the ingest ring", buf, kicks, inputs, hops)
		}
	}
}
