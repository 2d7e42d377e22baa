package stream_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/sim"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

// sliceSource ingests the given payloads, then ends the stream.
func sliceSource(payloads []any) stream.SourceFunc {
	i := 0
	return func(context.Context) (any, bool, error) {
		if i >= len(payloads) {
			return nil, false, nil
		}
		v := payloads[i]
		i++
		return v, true, nil
	}
}

// TestEngineSingleSessionMatchesSim pins parity with the oracle: a
// one-session engine run produces the identical per-edge data and dummy
// counts, and the same sink total, as the deterministic simulator.
func TestEngineSingleSessionMatchesSim(t *testing.T) {
	g := workload.Fig2Triangle(2)
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := d.Intervals(cs4.Propagation)
	if err != nil {
		t.Fatal(err)
	}
	drop := workload.DropEdge(edgeByNames(t, g, "A", "C"))
	const inputs = 500
	ref := sim.Run(g, sim.Filter(drop), sim.Config{
		Inputs: inputs, Algorithm: cs4.Propagation, Intervals: iv,
	})
	if !ref.Completed {
		t.Fatalf("simulator deadlocked: %v", ref.Blocked)
	}

	eng, err := stream.NewEngine(g, filterKernels(g, drop), stream.Config{
		Algorithm: cs4.Propagation, Intervals: iv, WatchdogTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ses, err := eng.Open(stream.SessionConfig{ID: 1, Source: stream.SyntheticSource(inputs)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ses.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.SinkData != ref.SinkData {
		t.Errorf("SinkData = %d, want %d", got.SinkData, ref.SinkData)
	}
	for e, want := range ref.DataMsgs {
		if got.Data[e] != want {
			t.Errorf("edge %d data = %d, want %d", e, got.Data[e], want)
		}
	}
	for e, want := range ref.DummyMsgs {
		if got.Dummies[e] != want {
			t.Errorf("edge %d dummies = %d, want %d", e, got.Dummies[e], want)
		}
	}
}

// TestEngineConcurrentSessionsIsolated streams many concurrent sessions
// with distinct payloads over one engine: every session must see exactly
// its own payloads, in order, and report the same per-edge counts as a
// solo run of the same length.
func TestEngineConcurrentSessionsIsolated(t *testing.T) {
	g := workload.Fig2Triangle(2)
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := d.Intervals(cs4.Propagation)
	if err != nil {
		t.Fatal(err)
	}
	drop := workload.DropEdge(edgeByNames(t, g, "A", "C"))
	eng, err := stream.NewEngine(g, filterKernels(g, drop), stream.Config{
		Algorithm: cs4.Propagation, Intervals: iv, WatchdogTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const sessions, inputs = 8, 200
	ref, err := func() (*stream.Stats, error) {
		ses, err := eng.Open(stream.SessionConfig{ID: 999, Source: stream.SyntheticSource(inputs)})
		if err != nil {
			return nil, err
		}
		return ses.Wait()
	}()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			payloads := make([]any, inputs)
			for i := range payloads {
				payloads[i] = fmt.Sprintf("s%d-%d", s, i)
			}
			var mu sync.Mutex
			var seen []string
			sink := func(_ context.Context, seq uint64, payload any) error {
				mu.Lock()
				seen = append(seen, payload.(string))
				mu.Unlock()
				return nil
			}
			ses, err := eng.Open(stream.SessionConfig{
				ID:     proto.SessionID(s + 1),
				Source: sliceSource(payloads),
				Sink:   sink,
			})
			if err != nil {
				errs[s] = err
				return
			}
			stats, err := ses.Wait()
			if err != nil {
				errs[s] = err
				return
			}
			if stats.SinkData != ref.SinkData {
				errs[s] = fmt.Errorf("session %d SinkData = %d, want %d", s, stats.SinkData, ref.SinkData)
				return
			}
			for e, want := range ref.Data {
				if stats.Data[e] != want {
					errs[s] = fmt.Errorf("session %d edge %d data = %d, want %d", s, e, stats.Data[e], want)
					return
				}
			}
			for e, want := range ref.Dummies {
				if stats.Dummies[e] != want {
					errs[s] = fmt.Errorf("session %d edge %d dummies = %d, want %d", s, e, stats.Dummies[e], want)
					return
				}
			}
			// Emissions must be this session's payloads only, in order.
			prefix := fmt.Sprintf("s%d-", s)
			last := -1
			for _, p := range seen {
				var idx int
				if _, err := fmt.Sscanf(p, prefix+"%d", &idx); err != nil {
					errs[s] = fmt.Errorf("session %d saw foreign payload %q", s, p)
					return
				}
				if idx <= last {
					errs[s] = fmt.Errorf("session %d emissions out of order: %v", s, seen)
					return
				}
				last = idx
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineDeadlockNamesSession wedges one session with data-dependent
// filtering while a second session streams clean payloads: the wedged
// session's error must be a DeadlockError naming its id, and the healthy
// session must complete untouched.
func TestEngineDeadlockNamesSession(t *testing.T) {
	g := workload.Fig2Triangle(2)
	// No intervals: the protocol is off, so a session whose payloads
	// starve A→C deadlocks (the paper's Fig. 2), while a session whose
	// payloads flow everywhere drains fine.
	ac := edgeByNames(t, g, "A", "C")
	kernels := make(map[graph.NodeID]stream.Kernel, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		out := g.Out(id)
		kernels[id] = stream.KernelFunc(func(_ uint64, in []stream.Input) map[int]any {
			var payload any
			ok := false
			for _, i := range in {
				if i.Present {
					payload, ok = i.Payload, true
					break
				}
			}
			if !ok {
				return nil
			}
			outs := make(map[int]any, len(out))
			for i, e := range out {
				if e == ac && payload.(string) == "starve" {
					continue
				}
				outs[i] = payload
			}
			return outs
		})
	}
	eng, err := stream.NewEngine(g, kernels, stream.Config{WatchdogTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	starved := make([]any, 64)
	clean := make([]any, 64)
	for i := range starved {
		starved[i] = "starve"
		clean[i] = "ok"
	}
	bad, err := eng.Open(stream.SessionConfig{ID: 7, Source: sliceSource(starved)})
	if err != nil {
		t.Fatal(err)
	}
	good, err := eng.Open(stream.SessionConfig{ID: 8, Source: sliceSource(clean)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.Wait(); err != nil {
		t.Fatalf("healthy session failed: %v", err)
	}
	_, err = bad.Wait()
	var derr *stream.DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("wedged session err = %v, want *stream.DeadlockError", err)
	}
	if derr.Session != 7 {
		t.Fatalf("DeadlockError names session %d, want 7", derr.Session)
	}
}

// TestEngineCloseReclaimsGoroutines opens and drains many sessions, then
// closes the engine: the goroutine count must return to the pre-engine
// baseline (no resident loops, no leaked pumps).
func TestEngineCloseReclaimsGoroutines(t *testing.T) {
	g := workload.Pipeline(4, 2)
	baseline := runtime.NumGoroutine()
	eng, err := stream.NewEngine(g, nil, stream.Config{WatchdogTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ses, err := eng.Open(stream.SessionConfig{
			ID:     proto.SessionID(i + 1),
			Source: stream.SyntheticSource(20),
			Sink:   func(context.Context, uint64, any) error { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ses.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEngineOpenAfterCloseFails pins the lifecycle contract.
func TestEngineOpenAfterCloseFails(t *testing.T) {
	g := workload.Pipeline(3, 2)
	eng, err := stream.NewEngine(g, nil, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Open(stream.SessionConfig{ID: 1, Source: stream.SyntheticSource(1)}); !errors.Is(err, stream.ErrEngineClosed) {
		t.Fatalf("Open after Close = %v, want ErrEngineClosed", err)
	}
}

// TestEngineSpanSinkAlone: a session whose only sink is a SpanSink gets
// every emission through it — batched runs and single firings (runs of
// one) alike — in ascending order.  The subtests, named for two batch
// widths the engine no longer has, run the one width.
func TestEngineSpanSinkAlone(t *testing.T) {
	const inputs = 1000
	for _, name := range []string{"batch1", "batch64"} {
		t.Run(name, func(t *testing.T) {
			eng, err := stream.NewEngine(workload.Pipeline(3, 128), nil, stream.Config{WatchdogTimeout: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			var seqs []uint64
			var pays []any
			ses, err := eng.Open(stream.SessionConfig{
				ID: 1, Source: stream.SyntheticSource(inputs),
				SpanSink: func(_ context.Context, s []uint64, p []any) error {
					seqs, pays = append(seqs, s...), append(pays, p...)
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := ses.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if stats.SinkData != inputs || len(seqs) != inputs {
				t.Fatalf("SinkData = %d, SpanSink got %d emissions, want %d", stats.SinkData, len(seqs), inputs)
			}
			for i, seq := range seqs {
				if seq != uint64(i) || pays[i] != uint64(i) {
					t.Fatalf("emission %d = (%d, %v), want (%d, %d)", i, seq, pays[i], i, i)
				}
			}
		})
	}
}

// TestEngineSessionCancel cancels one session mid-stream; a concurrent
// session must drain normally.
func TestEngineSessionCancel(t *testing.T) {
	g := workload.Pipeline(4, 2)
	eng, err := stream.NewEngine(g, nil, stream.Config{WatchdogTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	endless := func(ctx context.Context) (any, bool, error) {
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		default:
			return "tick", true, nil
		}
	}
	delivered := make(chan struct{}, 1)
	blocked, err := eng.Open(stream.SessionConfig{
		ID: 1, Ctx: ctx, Source: endless,
		Sink: func(context.Context, uint64, any) error {
			select {
			case delivered <- struct{}{}:
			default:
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := eng.Open(stream.SessionConfig{ID: 2, Source: stream.SyntheticSource(100)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := healthy.Wait(); err != nil {
		t.Fatalf("healthy session: %v", err)
	}
	<-delivered
	cancel()
	if _, err := blocked.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled session err = %v, want context.Canceled", err)
	}
}
