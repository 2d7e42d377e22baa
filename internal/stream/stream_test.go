package stream_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/sim"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

func edgeByNames(t testing.TB, g *graph.Graph, from, to string) graph.EdgeID {
	t.Helper()
	f, k := g.MustNode(from), g.MustNode(to)
	for _, e := range g.Edges() {
		if e.From == f && e.To == k {
			return e.ID
		}
	}
	t.Fatalf("no edge %s->%s", from, to)
	return 0
}

// filterKernels builds, for every node, a kernel that forwards its first
// present payload (or the sequence number, at the source) on the out-edges
// selected by f.
func filterKernels(g *graph.Graph, f workload.FilterFunc) map[graph.NodeID]stream.Kernel {
	ks := make(map[graph.NodeID]stream.Kernel, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		out := g.Out(id)
		ks[id] = stream.KernelFunc(func(seq uint64, in []stream.Input) map[int]any {
			var payload any = seq
			for _, i := range in {
				if i.Present {
					payload = i.Payload
					break
				}
			}
			outs := make(map[int]any, len(out))
			for i, e := range out {
				if f(id, seq, e) {
					outs[i] = payload
				}
			}
			return outs
		})
	}
	return ks
}

// runOnce is the lifecycle every single-stream test here drives: engine
// up, one session of the sequence numbers 0..inputs-1, Wait, engine down.
func runOnce(g *graph.Graph, ks map[graph.NodeID]stream.Kernel, cfg stream.Config, inputs uint64) (*stream.Stats, error) {
	eng, err := stream.NewEngine(g, ks, cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ses, err := eng.Open(stream.SessionConfig{ID: 1, Source: stream.SyntheticSource(inputs)})
	if err != nil {
		return nil, err
	}
	return ses.Wait()
}

func TestPipelinePayloadIntegrity(t *testing.T) {
	g := workload.Pipeline(4, 2)
	var got []uint64
	sinkID := g.MustNode("s3")
	ks := filterKernels(g, workload.PassAll)
	ks[sinkID] = stream.KernelFunc(func(seq uint64, in []stream.Input) map[int]any {
		if in[0].Present {
			got = append(got, in[0].Payload.(uint64))
		}
		return nil
	})
	stats, err := runOnce(g, ks, stream.Config{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("sink saw %d payloads, want 50", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("payload[%d] = %d (FIFO violated)", i, v)
		}
	}
	if stats.SinkData != 50 {
		t.Errorf("SinkData = %d", stats.SinkData)
	}
}

// TestFig2DeadlockWatchdog is E2 on the real runtime: the watchdog turns
// the Fig. 2 deadlock into a diagnosable error with the full/empty
// channel pattern.
func TestFig2DeadlockWatchdog(t *testing.T) {
	g := workload.Fig2Triangle(2)
	drop := workload.DropEdge(edgeByNames(t, g, "A", "C"))
	_, err := runOnce(g, filterKernels(g, drop), stream.Config{
		WatchdogTimeout: 100 * time.Millisecond,
	}, 100)
	derr, ok := err.(*stream.DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want stream.DeadlockError", err)
	}
	if derr.Channels["A→C"] != "0/2" {
		t.Errorf("A→C occupancy = %s, want 0/2 (empty)", derr.Channels["A→C"])
	}
	if derr.Channels["A→B"] != "2/2" {
		t.Errorf("A→B occupancy = %s, want 2/2 (full)", derr.Channels["A→B"])
	}
}

func TestFig2AvoidanceRuntime(t *testing.T) {
	g := workload.Fig2Triangle(2)
	drop := workload.DropEdge(edgeByNames(t, g, "A", "C"))
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []cs4.Algorithm{cs4.Propagation, cs4.NonPropagation} {
		iv, err := d.Intervals(alg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := runOnce(g, filterKernels(g, drop), stream.Config{
			Algorithm: alg, Intervals: iv,
			WatchdogTimeout: 2 * time.Second,
		}, 300)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if stats.TotalDummies() == 0 {
			t.Errorf("%v: no dummies", alg)
		}
	}
}

// simRun is engineRun's oracle: the deterministic simulator over the same
// kernels, returning its result and exact sink delivery sequence.
func simRun(g *graph.Graph, kernels map[graph.NodeID]stream.Kernel, cfg stream.Config, inputs uint64) (*sim.Result, []stream.Message) {
	var seen []stream.Message
	res := sim.Run(g, nil, sim.Config{
		Algorithm: cfg.Algorithm, Intervals: cfg.Intervals,
		Kernels: kernels,
		Source:  stream.SyntheticSource(inputs),
		Sink: func(_ context.Context, seq uint64, payload any) error {
			seen = append(seen, stream.Message{Seq: seq, Kind: stream.Data, Payload: payload})
			return nil
		},
	})
	return res, seen
}

// requireMatchesSim compares an engine session with the simulator's run
// of the same case: per-edge data counts, per-edge dummy counts and the
// sink (seq, payload) sequence.
func requireMatchesSim(t *testing.T, label string, g *graph.Graph, stats *stream.Stats, seen []stream.Message, ref *sim.Result, refSeen []stream.Message) {
	t.Helper()
	for _, e := range g.Edges() {
		if stats.Data[e.ID] != ref.DataMsgs[e.ID] || stats.Dummies[e.ID] != ref.DummyMsgs[e.ID] {
			t.Fatalf("%s: edge %d carried %d data, %d dummies; the simulator %d, %d\n%s", label, e.ID,
				stats.Data[e.ID], stats.Dummies[e.ID], ref.DataMsgs[e.ID], ref.DummyMsgs[e.ID], g)
		}
	}
	if len(seen) != len(refSeen) {
		t.Fatalf("%s: %d sink deliveries, the simulator %d\n%s", label, len(seen), len(refSeen), g)
	}
	for i := range seen {
		if seen[i] != refSeen[i] {
			t.Fatalf("%s: sink[%d] = %+v, the simulator %+v\n%s", label, i, seen[i], refSeen[i], g)
		}
	}
}

// TestRuntimeMatchesSimulator is the differential check over generated
// cases: per-node behavior is deterministic (a Kahn network), so whatever
// the goroutine scheduling or how runs happen to group
// in transit, per-edge data counts, per-edge dummy counts and the sink
// sequence must equal the deterministic simulator's.  Topologies are
// drawn from the three CS4 generators with buffer capacities from
// [1, maxBuf], under both protocols and two filter classes: the source
// filters per edge (the split whose branches the dummies keep alive) and
// every other node per input; or every node filters per edge, so that
// interior nodes emit data on some out-edges and not others and the
// dummy timers decide what is sent.  The per-edge class is outside what
// Propagation guarantees (ROADMAP item 23): a case the simulator wedges
// on is skipped and counted, and the test fails when none ran or more
// than half were skipped.  Capacities of 1 and 2 make nearly every pass
// end at a window, and 64 makes long mixed runs.
func TestRuntimeMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	families := map[string]func() *graph.Graph{}
	for _, maxBuf := range []int{1, 2, 64} {
		maxBuf := maxBuf
		families[fmt.Sprintf("sp/buf%d", maxBuf)] = func() *graph.Graph { return workload.RandomSP(rng, 2+rng.Intn(6), maxBuf) }
		families[fmt.Sprintf("cs4/buf%d", maxBuf)] = func() *graph.Graph { return workload.RandomCS4(rng, 1+rng.Intn(3), maxBuf, 0.5) }
		families[fmt.Sprintf("ladder/buf%d", maxBuf)] = func() *graph.Graph { return workload.RandomLadder(rng, 1+rng.Intn(3), maxBuf, 0.3, 0.3) }
	}
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names) // one rng: draw in a fixed order
	const inputs = 300
	// What the cases exercised, so the check cannot go vacuous: dummies,
	// edges mixing both kinds, and firings that crossed a node with one
	// in-edge, and one with more, as a stretch of dummies; and how many
	// per-edge cases ran and were skipped.
	var dummies, mixed, stretched1, stretchedN int64
	var perEdgeRan, perEdgeSkipped int
	for _, name := range names {
		for trial := 0; trial < 4; trial++ {
			g := families[name]()
			seed := uint64(trial)
			filters := []struct {
				name    string
				f       workload.FilterFunc
				perEdge bool
			}{
				{"source-routing", workload.SourceRouting(g.Source(), workload.Bernoulli(0.4, seed),
					workload.PerInputBernoulli(0.7, seed)), false},
				{"per-edge", workload.Bernoulli(0.6, seed), true},
			}
			d, err := cs4.Classify(g)
			if err != nil {
				t.Fatalf("%s trial %d: %v\n%s", name, trial, err, g)
			}
			for _, alg := range []cs4.Algorithm{cs4.Propagation, cs4.NonPropagation} {
				iv, err := d.Intervals(alg)
				if err != nil {
					t.Fatal(err)
				}
				for _, fc := range filters {
					cfg := stream.Config{Algorithm: alg, Intervals: iv, WatchdogTimeout: 5 * time.Second}
					ref, refSeen := simRun(g, filterKernels(g, fc.f), cfg, inputs)
					switch {
					case !ref.Completed && fc.perEdge:
						perEdgeSkipped++
						continue
					case !ref.Completed:
						t.Fatalf("%s trial %d %s: simulator: %s\n%s", name, trial, fc.name, ref.Reason, g)
					case fc.perEdge:
						perEdgeRan++
					}
					dummies += ref.TotalDummy()
					for _, e := range g.Edges() {
						if ref.DataMsgs[e.ID] > 0 && ref.DummyMsgs[e.ID] > 0 {
							mixed++
						}
					}
					stats, seen, single, multi := stretchedRun(t, g, filterKernels(g, fc.f), cfg, inputs)
					stretched1, stretchedN = stretched1+single, stretchedN+multi
					label := fmt.Sprintf("%s trial %d alg %v %s", name, trial, alg, fc.name)
					requireMatchesSim(t, label, g, stats, seen, ref, refSeen)
				}
			}
		}
	}
	if dummies == 0 || mixed == 0 {
		t.Fatalf("the generated cases sent %d dummies and had %d edges carrying both kinds; the test would not notice a protocol change", dummies, mixed)
	}
	if stretched1 == 0 || stretchedN == 0 {
		t.Fatalf("%d firings crossed single-input nodes and %d multi-input nodes as dummy stretches; the test would not notice a stretch that breaks the protocol", stretched1, stretchedN)
	}
	if perEdgeRan == 0 || perEdgeSkipped > (perEdgeRan+perEdgeSkipped)/2 {
		t.Fatalf("%d per-edge filter cases ran and %d were skipped because the simulator wedged; the test would not see the dummy timers", perEdgeRan, perEdgeSkipped)
	}
	t.Logf("%d dummies; %d (case, edge) pairs carried data and dummies interleaved; %d and %d firings in dummy stretches at single- and multi-input nodes; %d per-edge filter cases ran, %d skipped (the simulator wedged)",
		dummies, mixed, stretched1, stretchedN, perEdgeRan, perEdgeSkipped)
}

func TestDefaultKernelsPassthrough(t *testing.T) {
	g := workload.Fig1SplitJoin(2)
	stats, err := runOnce(g, nil, stream.Config{}, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Split broadcasts; join receives on both edges.
	bd := edgeByNames(t, g, "B", "D")
	cd := edgeByNames(t, g, "C", "D")
	if stats.Data[bd] != 40 || stats.Data[cd] != 40 {
		t.Errorf("join inputs = %d/%d, want 40/40", stats.Data[bd], stats.Data[cd])
	}
}

func TestRunRejectsInvalidGraph(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(a, c, 1)
	g.AddEdge(b, c, 1) // two sources
	if _, err := runOnce(g, nil, stream.Config{}, 1); err == nil {
		t.Error("two-source graph accepted")
	}
}

func TestTransformingKernels(t *testing.T) {
	// A kernel that squares payloads; checks kernels can transform data,
	// not just route it.
	g := workload.Pipeline(3, 2)
	var got []int
	ks := map[graph.NodeID]stream.Kernel{
		g.MustNode("s0"): stream.KernelFunc(func(seq uint64, _ []stream.Input) map[int]any {
			return map[int]any{0: int(seq)}
		}),
		g.MustNode("s1"): stream.KernelFunc(func(_ uint64, in []stream.Input) map[int]any {
			if !in[0].Present {
				return nil
			}
			v := in[0].Payload.(int)
			return map[int]any{0: v * v}
		}),
		g.MustNode("s2"): stream.KernelFunc(func(_ uint64, in []stream.Input) map[int]any {
			if in[0].Present {
				got = append(got, in[0].Payload.(int))
			}
			return nil
		}),
	}
	if _, err := runOnce(g, ks, stream.Config{}, 5); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 4, 9, 16}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
