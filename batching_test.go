package streamdag

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Batching is transport-level only: a pipeline built WithMaxBatch(n)
// must be observably indistinguishable from the same pipeline at batch
// 1 on every backend — identical per-edge data and dummy counts and an
// identical sink (seq, payload) sequence — including under replication,
// filtering, per-stage Batch overrides, and concurrent engine sessions.

const batchingInputs = 1200

// batchingFlow is the parity workload with the acceptance features —
// a FilterStage (dummy traffic, partial firings) and a Replicate(4)
// stage (fan-out/fan-in) — compiled at the given batch sizes.
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

// TestBatchedParityAllBackends pins WithMaxBatch bit-identical to the
// unbatched pipeline on all three backends.
func TestBatchedParityAllBackends(t *testing.T) {
	for _, backend := range []string{"goroutines", "simulator", "distributed"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			refStats, refSeen := runBatching(t, backend)
			for _, batch := range []int{16, 64} {
				stats, seen := runBatching(t, backend, WithMaxBatch(batch))
				requireSameStream(t, fmt.Sprintf("batch %d", batch), refStats, stats, refSeen, seen)
			}
		})
	}
}

// TestStageBatchOverrideParity pins the per-stage knob: Batch marks
// override the pipeline default in both directions without changing the
// logical stream, including across a replicated stage.
func TestStageBatchOverrideParity(t *testing.T) {
	refStats, refSeen := runBatching(t, "goroutines")

	pipe, err := NewFlow[uint64, uint64]().Buffer(8).
		Then(Map("pre", func(v uint64) uint64 { return 3 * v }).Batch(1)).
		Then(Map("work", func(v uint64) uint64 { return v + 7 }).Replicate(4).Batch(8)).
		Then(FilterStage("keep", func(v uint64) bool { return v%3 != 1 })).
		Compile(WithWatchdog(10*time.Second), WithMaxBatch(32))
	if err != nil {
		t.Fatal(err)
	}
	var col Collector
	stats, err := pipe.Run(context.Background(), CountingSource(batchingInputs), &col)
	if err != nil {
		t.Fatal(err)
	}
	requireSameStream(t, "stage overrides", refStats, stats, refSeen, col.Emissions())
}

// TestBatchedEngineSessionsParity runs concurrent sessions on one
// batched resident engine: every session must see exactly the unbatched
// single-run stream.
func TestBatchedEngineSessionsParity(t *testing.T) {
	refStats, refSeen := runBatching(t, "goroutines")

	eng, err := batchingFlow(t, WithMaxBatch(64)).Engine()
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

// TestBatchOptionValidation pins the knobs' input checking.
func TestBatchOptionValidation(t *testing.T) {
	topo := NewTopology()
	topo.Channel("source", "sink", 4)
	if _, err := Build(topo, WithMaxBatch(0)); err == nil {
		t.Error("WithMaxBatch(0) accepted")
	}
	if _, err := Build(topo, WithMaxBatch(-3)); err == nil {
		t.Error("WithMaxBatch(-3) accepted")
	}
	if _, err := NewFlow[uint64, uint64]().
		Then(Map("m", func(v uint64) uint64 { return v }).Batch(0)).
		Compile(); err == nil {
		t.Error("Stage.Batch(0) accepted")
	}
	if _, err := NewFlow[uint64, uint64]().
		Then(Sequence(
			Map("a", func(v uint64) uint64 { return v }),
			Map("b", func(v uint64) uint64 { return v }),
		).Batch(4)).
		Compile(); err == nil {
		t.Error("Batch on a composite stage accepted")
	}
}

// spanProbe is a span-capable source and sink that records how it was
// driven: the longest fill it was asked for and the longest run it was
// handed.
type spanProbe struct {
	countingSource
	maxFill, maxRun int
	seqs            []uint64
}

func (p *spanProbe) NextSpan(ctx context.Context, buf []any) (int, bool, error) {
	if len(buf) > p.maxFill {
		p.maxFill = len(buf)
	}
	return p.countingSource.NextSpan(ctx, buf)
}

func (p *spanProbe) Emit(_ context.Context, seq uint64, _ any) error {
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

// TestDistributedSpanEndpointsAndStageBatch pins that the Distributed
// backend runs the span path end to end: a SpanSource is filled in bulk,
// a SpanSink is handed runs, and a Stage.Batch mark vectorizes its stage
// (both were silently dropped before the backend ran the stream engine's
// node loops).
func TestDistributedSpanEndpointsAndStageBatch(t *testing.T) {
	const inputs = 5000
	o := NewObserver()
	pipe, err := NewFlow[uint64, uint64]().Buffer(64).
		Then(Map("a", func(v uint64) uint64 { return v + 1 })).
		Then(Map("b", func(v uint64) uint64 { return 2 * v }).Batch(1)).
		Compile(WithWatchdog(10*time.Second), WithMaxBatch(32), WithObserver(o))
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
	for _, n := range o.Snapshot().Nodes {
		switch n.Name {
		case "a":
			if n.SpanMsgs <= n.Spans {
				t.Errorf("stage a at batch 32: %d span messages in %d spans", n.SpanMsgs, n.Spans)
			}
		case "b":
			if n.SpanMsgs != n.Spans {
				t.Errorf("stage b marked Batch(1): %d span messages in %d spans", n.SpanMsgs, n.Spans)
			}
		}
	}
}
