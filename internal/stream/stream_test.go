package stream_test

import (
	"math/rand"
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

// TestRuntimeMatchesSimulator: per-node behavior is deterministic (a Kahn
// network), so per-edge data and dummy counts must match the deterministic
// simulator exactly, regardless of goroutine scheduling.
func TestRuntimeMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 25; trial++ {
		g := workload.RandomSP(rng, 2+rng.Intn(6), 3)
		perEdge := workload.Bernoulli(0.4, uint64(trial))
		filter := workload.SourceRouting(g.Source(), perEdge,
			workload.PerInputBernoulli(0.7, uint64(trial)))
		d, err := cs4.Classify(g)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := d.Intervals(cs4.Propagation)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := runOnce(g, filterKernels(g, filter), stream.Config{
			Algorithm: cs4.Propagation, Intervals: iv,
			WatchdogTimeout: 5 * time.Second,
		}, 80)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, g)
		}
		ref := sim.Run(g, sim.Filter(filter), sim.Config{
			Algorithm: cs4.Propagation, Intervals: iv, Inputs: 80,
		})
		if !ref.Completed {
			t.Fatalf("trial %d: simulator deadlocked but runtime completed", trial)
		}
		for _, e := range g.Edges() {
			if stats.Data[e.ID] != ref.DataMsgs[e.ID] {
				t.Fatalf("trial %d edge %d: data %d vs sim %d\n%s",
					trial, e.ID, stats.Data[e.ID], ref.DataMsgs[e.ID], g)
			}
			if stats.Dummies[e.ID] != ref.DummyMsgs[e.ID] {
				t.Fatalf("trial %d edge %d: dummies %d vs sim %d\n%s",
					trial, e.ID, stats.Dummies[e.ID], ref.DummyMsgs[e.ID], g)
			}
		}
	}
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
