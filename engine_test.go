package streamdag

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Tests for the Engine API: single-session parity with Pipeline.Run and
// with the simulator oracle, goroutine reclamation after Close,
// per-session deadlock attribution, cross-backend multi-session
// equivalence, and the typed SessionOf surface.

// TestEngineSingleSessionParity is the acceptance check: on every
// backend, one Engine.Open session is bit-identical — per-edge data and
// dummy counts, sink sequence order and payloads — to a Pipeline.Run of
// the same build, which in turn matches the bare simulator's counts on
// the goroutine path.
func TestEngineSingleSessionParity(t *testing.T) {
	const n = 90
	opts := append(fig1Kernels(), WithWatchdog(10*time.Second))
	for name, p := range backendsFor(t, fig1Topo, opts...) {
		var runCol Collector
		runStats, err := p.Run(context.Background(), SliceSource(payloads(n)...), &runCol)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}

		eng, err := p.Engine()
		if err != nil {
			t.Fatalf("%s: Engine: %v", name, err)
		}
		var sesCol Collector
		ses, err := eng.Open(context.Background(), SliceSource(payloads(n)...), &sesCol)
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		sesStats, err := ses.Wait()
		if err != nil {
			t.Fatalf("%s: session: %v", name, err)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}

		if sesStats.SinkData != runStats.SinkData {
			t.Errorf("%s: SinkData = %d, Run %d", name, sesStats.SinkData, runStats.SinkData)
		}
		for e, want := range runStats.Data {
			if sesStats.Data[e] != want {
				t.Errorf("%s: edge %d data = %d, Run %d", name, e, sesStats.Data[e], want)
			}
		}
		for e, want := range runStats.Dummies {
			if sesStats.Dummies[e] != want {
				t.Errorf("%s: edge %d dummies = %d, Run %d", name, e, sesStats.Dummies[e], want)
			}
		}
		runEms, sesEms := runCol.Emissions(), sesCol.Emissions()
		if len(runEms) != len(sesEms) {
			t.Fatalf("%s: %d emissions, Run %d", name, len(sesEms), len(runEms))
		}
		for i := range runEms {
			if runEms[i] != sesEms[i] {
				t.Fatalf("%s: emission %d = %+v, Run %+v", name, i, sesEms[i], runEms[i])
			}
		}
	}

	// The bare simulator pins the same counts for the synthetic
	// arrangement, so the parity chain is anchored on the oracle:
	// Simulate == Pipeline.Run == Engine session.
	topo := fig1Topo()
	f := Periodic(3)
	a, err := Analyze(topo)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := a.Intervals(Propagation)
	if err != nil {
		t.Fatal(err)
	}
	oracle := Simulate(topo, f, SimConfig{Inputs: n, Algorithm: Propagation, Intervals: iv})
	if !oracle.Completed {
		t.Fatalf("simulator deadlocked: %v", oracle.Blocked)
	}
	p, err := Build(fig1Topo(), WithRouting(f), WithWatchdog(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ses, err := eng.Open(context.Background(), CountingSource(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ses.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SinkData != oracle.SinkData {
		t.Errorf("SinkData = %d, simulator %d", stats.SinkData, oracle.SinkData)
	}
	for e, want := range oracle.DataMsgs {
		if stats.Data[e] != want {
			t.Errorf("edge %d data = %d, simulator %d", e, stats.Data[e], want)
		}
	}
	for e, want := range oracle.DummyMsgs {
		if stats.Dummies[e] != want {
			t.Errorf("edge %d dummies = %d, simulator %d", e, stats.Dummies[e], want)
		}
	}
}

// TestEngineMultiSessionCrossBackend runs the same four sessions —
// distinct payload sets, opened concurrently — on all three backends:
// per-session sink sequences and per-edge data/dummy counts must be
// identical across backends.
func TestEngineMultiSessionCrossBackend(t *testing.T) {
	const sessions, n = 4, 45
	opts := append(fig1Kernels(), WithWatchdog(10*time.Second))
	type sessionOutcome struct {
		emissions []Emission
		stats     *RunStats
	}
	results := make(map[string][]sessionOutcome)
	for name, p := range backendsFor(t, fig1Topo, opts...) {
		eng, err := p.Engine()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		outcomes := make([]sessionOutcome, sessions)
		var wg sync.WaitGroup
		errs := make([]error, sessions)
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				pls := make([]any, n)
				for i := range pls {
					pls[i] = fmt.Sprintf("s%d/frame-%03d", s, i)
				}
				var col Collector
				ses, err := eng.Open(context.Background(), SliceSource(pls...), &col)
				if err != nil {
					errs[s] = err
					return
				}
				stats, err := ses.Wait()
				if err != nil {
					errs[s] = err
					return
				}
				outcomes[s] = sessionOutcome{col.Emissions(), stats}
			}(s)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		results[name] = outcomes
	}

	ref := results["simulator"]
	for s := range ref {
		if len(ref[s].emissions) == 0 {
			t.Fatalf("simulator session %d delivered nothing", s)
		}
		// Every emission is the session's own payload (B uppercases, C
		// suffixes — the tag survives either way), in sequence order.
		for i, em := range ref[s].emissions {
			got := strings.ToLower(fmt.Sprint(em.Payload))
			if !strings.HasPrefix(got, fmt.Sprintf("s%d/", s)) {
				t.Fatalf("session %d emission %d has foreign payload %v", s, i, em.Payload)
			}
		}
	}
	for name, outcomes := range results {
		for s := range outcomes {
			if len(outcomes[s].emissions) != len(ref[s].emissions) {
				t.Fatalf("%s session %d: %d emissions, simulator %d",
					name, s, len(outcomes[s].emissions), len(ref[s].emissions))
			}
			for i := range ref[s].emissions {
				if outcomes[s].emissions[i] != ref[s].emissions[i] {
					t.Fatalf("%s session %d emission %d = %+v, simulator %+v",
						name, s, i, outcomes[s].emissions[i], ref[s].emissions[i])
				}
			}
			if outcomes[s].stats.SinkData != ref[s].stats.SinkData {
				t.Errorf("%s session %d SinkData = %d, simulator %d",
					name, s, outcomes[s].stats.SinkData, ref[s].stats.SinkData)
			}
			for e, want := range ref[s].stats.Data {
				if got := outcomes[s].stats.Data[e]; got != want {
					t.Errorf("%s session %d edge %d data = %d, simulator %d", name, s, e, got, want)
				}
			}
			for e, want := range ref[s].stats.Dummies {
				if got := outcomes[s].stats.Dummies[e]; got != want {
					t.Errorf("%s session %d edge %d dummies = %d, simulator %d", name, s, e, got, want)
				}
			}
		}
	}
}

// TestEngineCloseReclaimsGoroutinesAllBackends opens and drains 100
// sessions per backend, closes the engine, and requires the goroutine
// count to return to the pre-engine baseline.
func TestEngineCloseReclaimsGoroutinesAllBackends(t *testing.T) {
	opts := append(fig1Kernels(), WithWatchdog(10*time.Second))
	for name, p := range backendsFor(t, fig1Topo, opts...) {
		baseline := runtime.NumGoroutine()
		eng, err := p.Engine()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 100; i++ {
			ses, err := eng.Open(context.Background(), SliceSource(payloads(12)...), nil)
			if err != nil {
				t.Fatalf("%s: open %d: %v", name, i, err)
			}
			if _, err := ses.Wait(); err != nil {
				t.Fatalf("%s: session %d: %v", name, i, err)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			runtime.GC()
			if g := runtime.NumGoroutine(); g <= baseline {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: goroutines = %d, baseline %d", name, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
}

// TestEngineDeadlockNamesWedgedSession serves two sessions over one
// unprotected engine: the session whose payloads starve the A→C chord
// wedges (its sink starves — the paper's Fig. 2), the clean session
// completes, and the wedged session's error is a DeadlockError naming
// its session id — on the goroutine and the distributed backend alike.
func TestEngineDeadlockNamesWedgedSession(t *testing.T) {
	topo := fig2(t)
	var ac EdgeID
	for e := EdgeID(0); int(e) < topo.Graph().NumEdges(); e++ {
		if from, to, _ := topo.Edge(e); from == "A" && to == "C" {
			ac = e
		}
	}
	// Payload-dependent filtering: "starve" payloads are dropped on the
	// chord, so a session of them deadlocks without the dummy protocol.
	kernelFor := func(outs []EdgeID) Kernel {
		return KernelFunc(func(_ uint64, in []Input) map[int]any {
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
			m := make(map[int]any, len(outs))
			for i, e := range outs {
				if e == ac && payload == "starve" {
					continue
				}
				m[i] = payload
			}
			return m
		})
	}
	g := topo.Graph()
	kernels := make(map[NodeID]Kernel, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		id := NodeID(n)
		kernels[id] = kernelFor(g.Out(id))
	}
	// Every runtime backend reports the wedge as the one *DeadlockError.
	for _, backend := range []Backend{
		Goroutines(),
		Distributed(map[string]string{"A": "left", "B": "right", "C": "right"}),
	} {
		t.Run(backend.String(), func(t *testing.T) {
			p, err := Build(fig2(t), WithKernels(kernels), WithoutAvoidance(),
				WithWatchdog(200*time.Millisecond), WithBackend(backend))
			if err != nil {
				t.Fatal(err)
			}
			eng, err := p.Engine()
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			starved := make([]any, 64)
			clean := make([]any, 64)
			for i := range starved {
				starved[i] = "starve"
				clean[i] = "flow"
			}
			bad, err := eng.Open(context.Background(), SliceSource(starved...), nil)
			if err != nil {
				t.Fatal(err)
			}
			good, err := eng.Open(context.Background(), SliceSource(clean...), nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := good.Wait(); err != nil {
				t.Fatalf("healthy session failed: %v", err)
			}
			_, err = bad.Wait()
			var derr *DeadlockError
			if !errors.As(err, &derr) {
				t.Fatalf("wedged session err = %v, want *DeadlockError", err)
			}
			if derr.Session != bad.ID() {
				t.Fatalf("DeadlockError names session %d, want %d (the wedged one)", derr.Session, bad.ID())
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("session %d", bad.ID())) {
				t.Fatalf("error text %q does not name the session", err)
			}
			// The wedge report must also say *where* the stream stalled: the
			// embedded snapshot names the saturated edges.
			if len(derr.Stalled) == 0 {
				t.Fatalf("DeadlockError %v names no stalled edges", derr)
			}
			if !strings.Contains(err.Error(), "stalled on: ") {
				t.Fatalf("error text %q does not name where the stream stalled", err)
			}
			// One wedge report: each stalled edge once, in order, whichever
			// workers its two ends run on.
			for i := 1; i < len(derr.Stalled); i++ {
				if derr.Stalled[i-1] >= derr.Stalled[i] {
					t.Fatalf("Stalled = %q is not sorted and duplicate-free", derr.Stalled)
				}
			}
		})
	}
}

// TestEngineCloseDuringOpenRace races Engine.Close against in-flight
// Opens on every backend: whichever side wins, no pump goroutine may
// leak, sessions must resolve, and late Opens must fail with
// ErrEngineClosed — the close-race extension of the 100-session
// reclamation test above.
func TestEngineCloseDuringOpenRace(t *testing.T) {
	opts := append(fig1Kernels(), WithWatchdog(10*time.Second))
	for name, p := range backendsFor(t, fig1Topo, opts...) {
		name, p := name, p
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			for round := 0; round < 6; round++ {
				eng, err := p.Engine()
				if err != nil {
					t.Fatal(err)
				}
				start := make(chan struct{})
				var wg sync.WaitGroup
				for i := 0; i < 8; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						ses, err := eng.Open(context.Background(), SliceSource(payloads(12)...), nil)
						if err != nil {
							if !errors.Is(err, ErrEngineClosed) {
								t.Errorf("Open: %v", err)
							}
							return
						}
						if _, err := ses.Wait(); err != nil && !errors.Is(err, ErrEngineClosed) {
							t.Errorf("Wait: %v", err)
						}
					}()
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if err := eng.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
				}()
				close(start)
				wg.Wait()
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				runtime.GC()
				if g := runtime.NumGoroutine(); g <= baseline {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutines = %d, baseline %d", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(25 * time.Millisecond)
			}
		})
	}
}

// TestEngineStatefulSingleSessionGate: pipelines with Stateful stages
// accept one session at a time, and sequential sessions get fresh state.
func TestEngineStatefulSingleSessionGate(t *testing.T) {
	flow := NewFlow[uint64, uint64]().Then(
		Stateful("acc", uint64(0), func(sum, v uint64) (uint64, uint64, bool) {
			return sum + v, sum + v, true
		}),
	)
	pipe, err := flow.Compile(WithWatchdog(10 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pipe.Engine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	blocked := make(chan any)
	first, err := eng.Open(context.Background(), ChannelSource(blocked), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Open(context.Background(), CountingSource(3), nil); err == nil {
		t.Fatal("second concurrent session on a stateful pipeline succeeded; want error")
	}
	close(blocked)
	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}

	// Sequential sessions re-initialize the state: both see 1,3,6.
	for round := 0; round < 2; round++ {
		var col TypedCollector[uint64]
		ses, err := eng.Open(context.Background(), SliceSourceOf[uint64](1, 2, 3), &col)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ses.Wait(); err != nil {
			t.Fatal(err)
		}
		want := []uint64{1, 3, 6}
		got := col.Values()
		if len(got) != len(want) {
			t.Fatalf("round %d: values = %v, want %v", round, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: values = %v, want %v (stale state?)", round, got, want)
			}
		}
	}
}

// TestEngineStatefulCancelThenReopen pins session quiescence: after a
// cancelled (or drained) session's Wait/Done, no node loop may still be
// invoking the shared Stateful kernel, so the next Open's state reset
// is race-free and sees none of the old session's payloads.
func TestEngineStatefulCancelThenReopen(t *testing.T) {
	flow := NewFlow[uint64, uint64]().Buffer(64).Then(
		Stateful("acc", uint64(0), func(sum, v uint64) (uint64, uint64, bool) {
			return sum + v, sum + v, true
		}),
	)
	pipe, err := flow.Compile(WithWatchdog(10 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pipe.Engine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 50; i++ {
		endless := SourceFunc(func(ctx context.Context) (any, bool, error) {
			select {
			case <-ctx.Done():
				return nil, false, ctx.Err()
			default:
				return uint64(1_000_000), true, nil
			}
		})
		ses, err := eng.Open(context.Background(), endless, nil)
		if err != nil {
			t.Fatal(err)
		}
		ses.Cancel()
		if _, err := ses.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("iter %d: err = %v, want context.Canceled", i, err)
		}
		var col TypedCollector[uint64]
		clean, err := eng.Open(context.Background(), SliceSourceOf[uint64](1, 2, 3), &col)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := clean.Wait(); err != nil {
			t.Fatal(err)
		}
		if got, want := col.Values(), []uint64{1, 3, 6}; len(got) != 3 ||
			got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Fatalf("iter %d: values = %v, want %v (old session leaked into state)", i, got, want)
		}
	}
}

// TestTypedSessions serves concurrent typed sessions over one compiled
// flow engine: Push/CloseSend in, ordered typed emissions out.
func TestTypedSessions(t *testing.T) {
	eng, err := NewFlow[int, string]().
		Then(
			FilterStage("odd", func(v int) bool { return v%2 == 1 }),
			Map("fmt", func(v int) string { return fmt.Sprintf("<%d>", v) }),
		).
		CompileEngine(WithWatchdog(10 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const sessions = 5
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ses, err := eng.Open(context.Background())
			if err != nil {
				errs[s] = err
				return
			}
			go func() {
				for i := 0; i < 20; i++ {
					if err := ses.Push(context.Background(), 100*s+i); err != nil {
						return
					}
				}
				ses.CloseSend()
			}()
			var got []string
			for em := range ses.Out() {
				got = append(got, em.Value)
			}
			if _, err := ses.Wait(); err != nil {
				errs[s] = err
				return
			}
			var want []string
			for i := 0; i < 20; i++ {
				if (100*s+i)%2 == 1 {
					want = append(want, fmt.Sprintf("<%d>", 100*s+i))
				}
			}
			if len(got) != len(want) {
				errs[s] = fmt.Errorf("session %d: got %v, want %v", s, got, want)
				return
			}
			for i := range want {
				if got[i] != want[i] {
					errs[s] = fmt.Errorf("session %d: got %v, want %v", s, got, want)
					return
				}
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

// TestEngineOpenAfterClose pins the public lifecycle contract.
func TestEngineOpenAfterClose(t *testing.T) {
	p, err := Build(fig1Topo(), append(fig1Kernels(), WithWatchdog(10*time.Second))...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Open(context.Background(), CountingSource(1), nil); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Open after Close = %v, want ErrEngineClosed", err)
	}
	// The pipeline itself stays serviceable.
	if _, err := p.Run(context.Background(), SliceSource(payloads(10)...), nil); err != nil {
		t.Fatalf("Run after engine close: %v", err)
	}
}

// TestEngineCloseFailsActiveSessions: a session ends with the cause that
// ended it, verbatim, on every backend — Session.Cancel with
// context.Canceled, its Open context's deadline with
// context.DeadlineExceeded, Engine.Close with ErrEngineClosed — although
// its Source, blocked on a quiet channel, answers every ending with
// ctx.Err().  (TestRescaleEvictsBareSession covers ErrSessionEvicted.)
func TestEngineCloseFailsActiveSessions(t *testing.T) {
	ends := []struct {
		name string
		want error
		ctx  func() (context.Context, context.CancelFunc)
		end  func(*Engine, *Session) error
	}{
		{"cancel", context.Canceled,
			func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) },
			func(_ *Engine, s *Session) error { s.Cancel(); return nil }},
		{"deadline", context.DeadlineExceeded,
			func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 50*time.Millisecond)
			},
			func(*Engine, *Session) error { return nil }},
		{"close", ErrEngineClosed,
			func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) },
			func(e *Engine, _ *Session) error { return e.Close() }},
	}
	for _, end := range ends {
		for name, p := range backendsFor(t, fig1Topo, append(fig1Kernels(), WithWatchdog(time.Minute))...) {
			t.Run(end.name+"/"+name, func(t *testing.T) {
				eng, err := p.Engine()
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				ctx, cancel := end.ctx()
				defer cancel()
				ses, err := eng.Open(ctx, ChannelSource(make(chan any)), nil)
				if err != nil {
					t.Fatal(err)
				}
				time.Sleep(20 * time.Millisecond)
				if err := end.end(eng, ses); err != nil {
					t.Fatal(err)
				}
				select {
				case <-ses.Done():
				case <-time.After(10 * time.Second):
					t.Fatal("session did not resolve")
				}
				if _, err := ses.Wait(); err != end.want {
					t.Fatalf("session err = %v, want %v verbatim", err, end.want)
				}
			})
		}
	}
}

// TestSessionGoroutineBudget pins what one open session costs in
// goroutines on each backend, as the runtime.NumGoroutine delta over 100
// sessions blocked on a quiet ChannelSource.  A session's context and
// done channel are its backend's, so nothing watches either: the
// concurrent backends run the ingest pump, plus a sink pump when there is
// a Sink, and the simulator, whose one scheduler runs every session,
// runs none.
func TestSessionGoroutineBudget(t *testing.T) {
	const sessions = 100
	rows := []struct {
		name string
		sink func() Sink
		want map[string]int
	}{
		{"nil sink", func() Sink { return nil }, map[string]int{"goroutines": 1, "distributed": 1, "simulator": 0}},
		{"collector", func() Sink { return &Collector{} }, map[string]int{"goroutines": 2, "distributed": 2, "simulator": 0}},
	}
	settled := func() int {
		time.Sleep(20 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	for _, row := range rows {
		for name, p := range backendsFor(t, fig1Topo, append(fig1Kernels(), WithWatchdog(time.Minute))...) {
			t.Run(row.name+"/"+name, func(t *testing.T) {
				eng, err := p.Engine()
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				quiet := make(chan any)
				base := settled()
				for i := 0; i < sessions; i++ {
					if _, err := eng.Open(context.Background(), ChannelSource(quiet), row.sink()); err != nil {
						t.Fatal(err)
					}
				}
				per := float64(settled()-base) / sessions
				t.Logf("%.2f goroutines per open session", per)
				// A tenth of a goroutine per session absorbs unrelated
				// goroutines starting or exiting during the count.
				if want := row.want[name]; per > float64(want)+0.1 {
					t.Errorf("%.2f goroutines per open session; want %d", per, want)
				}
			})
		}
	}
}
