package streamdag

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

// Batching is transport-level only: a pipeline's passes, which fire up to
// 64 elements and ship them as one run, must be observably
// indistinguishable from firing per element on every backend — identical
// per-edge data and dummy counts and an identical sink (seq, payload)
// sequence — including under replication, filtering and concurrent
// engine sessions.

const batchingInputs = 1200

// batchingFlow is the parity workload with the acceptance features —
// a FilterStage (dummy traffic, partial firings) and a Replicate(4)
// stage (fan-out/fan-in) — compiled with the given options.
func batchingFlow(t *testing.T, opts ...Option) *Pipeline {
	t.Helper()
	pipe, err := NewFlow[uint64, uint64]().Buffer(8).
		Then(Map("pre", func(v uint64) uint64 { return 3 * v })).
		Then(Map("work", func(v uint64) uint64 { return v + 7 }).Replicate(4)).
		Then(FilterStage("keep", func(v uint64) bool { return v%3 != 1 })).
		Compile(append([]Option{WithWatchdog(10 * time.Second)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

func runBatching(t *testing.T, backend string, opts ...Option) (*RunStats, []Emission) {
	t.Helper()
	pipe := batchingFlow(t, opts...)
	pipe.backend = parityBackends(pipe)[backend]
	var col Collector
	stats, err := pipe.Run(context.Background(), CountingSource(batchingInputs), &col)
	if err != nil {
		t.Fatalf("%s: %v", backend, err)
	}
	return stats, col.Emissions()
}

func requireSameStream(t *testing.T, label string, refStats, stats *RunStats, refSeen, seen []Emission) {
	t.Helper()
	if stats.SinkData != refStats.SinkData {
		t.Errorf("%s: SinkData = %d, want %d", label, stats.SinkData, refStats.SinkData)
	}
	for e, want := range refStats.Data {
		if stats.Data[e] != want {
			t.Errorf("%s: edge %d data = %d, want %d", label, e, stats.Data[e], want)
		}
	}
	for e, want := range refStats.Dummies {
		if stats.Dummies[e] != want {
			t.Errorf("%s: edge %d dummies = %d, want %d", label, e, stats.Dummies[e], want)
		}
	}
	if len(seen) != len(refSeen) {
		t.Fatalf("%s: %d sink emissions, want %d", label, len(seen), len(refSeen))
	}
	for i := range seen {
		if seen[i] != refSeen[i] {
			t.Fatalf("%s: emission[%d] = %+v, want %+v", label, i, seen[i], refSeen[i])
		}
	}
}

// TestBatchedParityAllBackends pins the pipeline bit-identical from run to
// run on all three backends.
func TestBatchedParityAllBackends(t *testing.T) {
	for _, backend := range []string{"goroutines", "simulator", "distributed"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			refStats, refSeen := runBatching(t, backend)
			stats, seen := runBatching(t, backend)
			requireSameStream(t, "rerun", refStats, stats, refSeen, seen)
		})
	}
}

// TestBatchedEngineSessionsParity runs concurrent sessions on one
// resident engine: every session must see exactly the single-run stream.
func TestBatchedEngineSessionsParity(t *testing.T) {
	refStats, refSeen := runBatching(t, "goroutines")

	eng, err := batchingFlow(t).Engine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const sessions = 4
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	stats := make([]*RunStats, sessions)
	seen := make([]*Collector, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		seen[s] = &Collector{}
		go func(s int) {
			defer wg.Done()
			ses, err := eng.Open(context.Background(), CountingSource(batchingInputs), seen[s])
			if err != nil {
				errs[s] = err
				return
			}
			stats[s], errs[s] = ses.Wait()
		}(s)
	}
	wg.Wait()
	for s := 0; s < sessions; s++ {
		if errs[s] != nil {
			t.Fatal(errs[s])
		}
		requireSameStream(t, fmt.Sprintf("session %d", s), refStats, stats[s], refSeen, seen[s].Emissions())
	}
}

// TestGeneratedMixedRunsCrossTheWire is the Distributed row of the
// generated-case differential check (internal/stream's
// TestRuntimeMatchesSimulator has the goroutine rows): random CS4
// topologies with 64-deep channels, a source filtering per edge, every
// node on its own worker so that every edge is a TCP hop — the runs that
// mix data and dummies travel in the wire's run frames and must leave
// per-edge data and dummy counts and the sink sequence exactly the
// simulator's.
func TestGeneratedMixedRunsCrossTheWire(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 3; trial++ {
		topo := &Topology{g: workload.RandomCS4(rng, 1+rng.Intn(3), 64, 0.5)}
		g := topo.Graph()
		seed := uint64(trial)
		f := SourceRouting(g.Source(), Bernoulli(0.4, seed), PerInputBernoulli(0.7, seed))
		assign := make(map[string]string, g.NumNodes())
		for n := 0; n < g.NumNodes(); n++ {
			assign[g.Name(NodeID(n))] = fmt.Sprintf("w%d", n)
		}
		run := func(opts ...Option) (*RunStats, []Emission) {
			pipe, err := Build(topo, append(opts, WithRouting(f), WithWatchdog(10*time.Second))...)
			if err != nil {
				t.Fatalf("trial %d: %v\n%s", trial, err, g)
			}
			var col Collector
			stats, err := pipe.Run(context.Background(), CountingSource(2000), &col)
			if err != nil {
				t.Fatalf("trial %d: %v\n%s", trial, err, g)
			}
			return stats, col.Emissions()
		}
		refStats, refSeen := run(WithBackend(Simulator()))
		if refStats.TotalDummies() == 0 {
			t.Fatalf("trial %d: no dummy traffic; the case would not notice a protocol change\n%s", trial, g)
		}
		stats, seen := run(WithBackend(Distributed(assign)))
		requireSameStream(t, fmt.Sprintf("trial %d", trial), refStats, stats, refSeen, seen)
	}
}

// TestRoutedFiringAllocBudget is the allocation gate of the paper's path:
// on a 4-way split/join whose split filters each branch at p = 0.1 — data
// on a tenth of the branch edges, dummies on most of the rest, a join
// aligning four inputs — every node a RouteKernels kernel, a firing must
// cost the stream engine well under one allocation at steady state: the
// kernels write into node scratch and the runs are pooled, so what is
// left is per session.  (A result map or an
// input slice per firing, as Process-only kernels once cost, is one to
// three.)
func TestRoutedFiringAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark")
	}
	topo := NewTopology()
	topo.Channel("in", "split", 64)
	for i := 0; i < 4; i++ {
		a, b := fmt.Sprintf("b%da", i), fmt.Sprintf("b%db", i)
		topo.Channel("split", a, 64)
		topo.Channel(a, b, 64)
		topo.Channel(b, "join", 64)
	}
	topo.Channel("join", "out", 64)
	f := SourceRouting(topo.Node("split"), Bernoulli(0.1, 1), PassAll)
	a, err := Analyze(topo)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := a.Intervals(Propagation)
	if err != nil {
		t.Fatal(err)
	}
	const inputs = 4096
	eng, err := stream.NewEngine(topo.Graph(), RouteKernels(topo, f), stream.Config{
		Algorithm: Propagation, Intervals: iv, WatchdogTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var id SessionID
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id++
			var next uint64
			ses, err := eng.Open(stream.SessionConfig{ID: id, Source: func(context.Context) (any, bool, error) {
				next++ // payloads below 256 box without allocating
				return next % 200, next <= inputs, nil
			}})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ses.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
	perFiring := float64(res.AllocsPerOp()) / inputs / float64(topo.Graph().NumNodes())
	t.Logf("%.3f allocations per firing (every node fires once per input)", perFiring)
	if perFiring > 0.25 {
		t.Errorf("a routed firing allocates %.2f times; want under 0.25", perFiring)
	}
}

// TestTimedIngestAllocBudget is the allocation gate of the time-aware
// path: Map → TumblingWindow(1h) → Map on a fake clock.  The
// window node ingests runs into kernel-owned scratch and one open window,
// so a consumed input costs the whole pipeline — transport, kernels and
// the per-session set-up spread over the stream — at most a twentieth of an
// allocation.  (A clock-keyed slice per element, as the per-element ingest
// once built, is one.)
func TestTimedIngestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark")
	}
	const inputs = 1 << 14
	input := make([]any, inputs)
	for i := range input {
		input[i] = i % 200 // payloads below 256 box without allocating
	}
	pipe, err := NewFlow[int, int]().
		Then(Map("pre", func(v int) int { return v + 1 })).
		Then(TumblingWindow[int]("win", time.Hour)).
		Then(Map("size", func(w Window[int]) int { return len(w.Items) % 200 })).
		Compile(WithClock(NewFakeClock()), WithWatchdog(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pipe.Engine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ses, err := eng.Open(context.Background(), SliceSource(input...), DiscardSink())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ses.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
	perInput := float64(res.AllocsPerOp()) / inputs
	t.Logf("%.4f allocations per input", perInput)
	if perInput > 0.05 {
		t.Errorf("a windowed input allocates %.3f times; want at most 0.05", perInput)
	}
}

// threeMaps is the chain the Map allocation gates run.
func threeMaps() []Stage {
	return []Stage{
		Map("s1", func(v uint64) uint64 { return v + 7 }),
		Map("s2", func(v uint64) uint64 { return 3 * v }),
		Map("s3", func(v uint64) uint64 { return v ^ 0xff00 }),
	}
}

// mapChainAllocs is the allocations per input of a chain of uint64
// stages over edges of buf messages: payloads boxed in advance and all past
// the runtime's preallocated small integers, from a SliceSource into a
// DiscardSink, so what is counted is what the stages box and what the
// engine itself costs per message.
func mapChainAllocs(t *testing.T, buf int, stages ...Stage) float64 {
	t.Helper()
	const inputs = 1 << 14
	input := make([]any, inputs)
	for i := range input {
		input[i] = uint64(1000 + i)
	}
	pipe, err := NewFlow[uint64, uint64]().Buffer(buf).Then(stages...).Compile(WithWatchdog(10 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pipe.Engine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ses, err := eng.Open(context.Background(), SliceSource(input...), DiscardSink())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ses.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return float64(res.AllocsPerOp()) / inputs
}

// TestSpanMapAllocBudget is the allocation gate of the boxes a Map stage
// makes: each Map node boxes its outputs into chunks its own arena keeps
// across spans, a span of one included, so an input costs the pipeline at
// most a fiftieth of an allocation, not one box per stage (≈ 3).
func TestSpanMapAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark")
	}
	perInput := mapChainAllocs(t, 256, threeMaps()...)
	t.Logf("%.4f allocations per input", perInput)
	if perInput > 0.02 {
		t.Errorf("an input through three Maps allocates %.3f times; want at most 0.02", perInput)
	}
}

// TestBatch1MapAllocBudget is the same gate over edges of one message,
// where the credit window cuts every span to length one: a node's arena
// outlives its spans, so a run of one carves a slot from the node's chunk
// like any other run, and the three Maps cost at most a twentieth of an
// allocation per input, not one box per stage (≈ 3).
func TestBatch1MapAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark")
	}
	perInput := mapChainAllocs(t, 1, threeMaps()...)
	t.Logf("%.4f allocations per input", perInput)
	if perInput > 0.05 {
		t.Errorf("an input through three Maps on one-message edges allocates %.3f times; want at most 0.05", perInput)
	}
}

// TestFilterChainAllocBudget is the allocation gate of the filtering
// stages, which fire through ProcessInto into node scratch: Map →
// FilterStage → Map, with the filter passing half the inputs, costs at
// most a twentieth of an allocation per input — the filter forwards the
// interface value it received — and Map → FilterMap
// → Map at most one box per forwarded element (0.5) plus a twentieth.
// Through a map-returning Process each filtering firing paid a map and a
// box (≈ 1.5).
func TestFilterChainAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark")
	}
	even := func(v uint64) bool { return v%2 == 0 }
	chains := []struct {
		name   string
		middle Stage
		budget float64
	}{
		{"FilterStage", FilterStage("keep", even), 0.05},
		{"FilterMap", FilterMap("keep", func(v uint64) (uint64, bool) { return 3 * v, even(v) }), 0.55},
	}
	for _, c := range chains {
		perInput := mapChainAllocs(t, 256,
			Map("pre", func(v uint64) uint64 { return v + 7 }),
			c.middle,
			Map("post", func(v uint64) uint64 { return v ^ 0xff00 }))
		t.Logf("%s: %.4f allocations per input", c.name, perInput)
		if perInput > c.budget {
			t.Errorf("Map → %s → Map allocates %.3f times per input; want at most %.2f",
				c.name, perInput, c.budget)
		}
	}
}

// TestTappedMapKeepsItsArena: a Tap wraps a Map's kernel, and the wrapper
// hands each node the tap over the Map's own per-node copy, so a tapped
// chain allocates no more than the untapped one.
func TestTappedMapKeepsItsArena(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark")
	}
	var seen atomic.Int64
	plain := mapChainAllocs(t, 256, threeMaps()...)
	stages := threeMaps()
	for i, s := range stages {
		stages[i] = s.Tap(func(any) { seen.Add(1) })
	}
	tapped := mapChainAllocs(t, 256, stages...)
	t.Logf("allocations per input: %.4f untapped, %.4f tapped", plain, tapped)
	if seen.Load() == 0 {
		t.Fatal("the taps saw nothing")
	}
	if tapped > plain+0.01 {
		t.Errorf("a tapped chain allocates %.3f per input, the untapped one %.3f", tapped, plain)
	}
}

// spanProbe is a span-capable source and sink that records how it was
// driven: the longest fill it was asked for, the longest run it was
// handed, and how many emissions came through Emit instead of EmitSpan.
type spanProbe struct {
	countingSource
	maxFill, maxRun, emits int
	seqs                   []uint64
}

func (p *spanProbe) NextSpan(ctx context.Context, buf []any) (int, bool, error) {
	if len(buf) > p.maxFill {
		p.maxFill = len(buf)
	}
	return p.countingSource.NextSpan(ctx, buf)
}

func (p *spanProbe) Emit(_ context.Context, seq uint64, _ any) error {
	p.emits++
	p.seqs = append(p.seqs, seq)
	return nil
}

func (p *spanProbe) EmitSpan(_ context.Context, seqs []uint64, _ []any) error {
	if len(seqs) > p.maxRun {
		p.maxRun = len(seqs)
	}
	p.seqs = append(p.seqs, seqs...)
	return nil
}

// TestDistributedSpanEndpoints pins that the Distributed backend runs
// the span path end to end: a SpanSource is filled in bulk, a SpanSink
// is handed runs — and every emission, single firings included — and a
// batched stage vectorizes (all were silently dropped before the backend
// ran the stream engine's node loops).
func TestDistributedSpanEndpoints(t *testing.T) {
	const inputs = 5000
	o := NewObserver()
	pipe, err := NewFlow[uint64, uint64]().Buffer(64).
		Then(Map("a", func(v uint64) uint64 { return v + 1 })).
		Then(Map("b", func(v uint64) uint64 { return 2 * v })).
		Compile(WithWatchdog(10*time.Second), WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	pipe.backend = parityBackends(pipe)["distributed"]
	probe := &spanProbe{countingSource: countingSource{n: inputs}}
	stats, err := pipe.Run(context.Background(), probe, probe)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SinkData != inputs || len(probe.seqs) != inputs {
		t.Fatalf("sink consumed %d, probe saw %d, want %d", stats.SinkData, len(probe.seqs), inputs)
	}
	for i, seq := range probe.seqs {
		if seq != uint64(i) {
			t.Fatalf("emission %d carries seq %d", i, seq)
		}
	}
	if probe.maxFill < 2 {
		t.Errorf("SpanSource was never asked for more than %d payloads at a time", probe.maxFill)
	}
	if probe.maxRun < 2 {
		t.Errorf("SpanSink was never handed a run longer than %d", probe.maxRun)
	}
	if probe.emits != 0 {
		t.Errorf("%d emissions bypassed EmitSpan through Emit", probe.emits)
	}
	for _, n := range o.Snapshot().Nodes {
		if n.Name == "a" && n.SpanMsgs <= n.Spans {
			t.Errorf("stage a: %d span messages in %d spans", n.SpanMsgs, n.Spans)
		}
	}
}
