package streamdag

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"streamdag/internal/stream"
)

// The Pipeline API's core promise: one Build + Run surface, real user
// payloads in and sink emissions out in sequence order, identical
// behavior on all three backends.  These tests pin that promise on the
// paper's Fig. 1 topology and a replicated variant, plus cancellation
// and sink-backpressure behavior.

// fig1Options builds the Fig. 1 split/join (A → {B,C} → D) with
// filtering, payload-transforming kernels: B passes every frame whose
// tag is divisible by 3 (uppercased), C passes every second frame
// (suffixed), D joins (first present wins).
func fig1Topo() *Topology {
	topo := NewTopology()
	topo.Channel("A", "B", 4)
	topo.Channel("A", "C", 4)
	topo.Channel("B", "D", 4)
	topo.Channel("C", "D", 4)
	return topo
}

func fig1Kernels() []Option {
	return []Option{
		WithKernel("A", KernelFunc(func(_ uint64, in []Input) map[int]any {
			return map[int]any{0: in[0].Payload, 1: in[0].Payload}
		})),
		WithKernel("B", KernelFunc(func(seq uint64, in []Input) map[int]any {
			if !in[0].Present || seq%3 != 0 {
				return nil
			}
			return map[int]any{0: strings.ToUpper(in[0].Payload.(string))}
		})),
		WithKernel("C", KernelFunc(func(seq uint64, in []Input) map[int]any {
			if !in[0].Present || seq%2 != 0 {
				return nil
			}
			return map[int]any{0: in[0].Payload.(string) + "!"}
		})),
	}
}

func payloads(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = fmt.Sprintf("frame-%03d", i)
	}
	return out
}

// backends returns one freshly built pipeline per backend for the same
// topology and options (a Source is single-use, so each backend gets
// its own run anyway).
func backendsFor(t *testing.T, topo func() *Topology, opts ...Option) map[string]*Pipeline {
	t.Helper()
	out := make(map[string]*Pipeline)
	for _, bk := range []Backend{Goroutines(), Simulator()} {
		p, err := Build(topo(), append(opts, WithBackend(bk))...)
		if err != nil {
			t.Fatal(err)
		}
		out[bk.String()] = p
	}
	// Distributed: split nodes across two workers by alternating names.
	p, err := Build(topo(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	assign := make(map[string]string)
	for n := 0; n < p.Topology().Graph().NumNodes(); n++ {
		name := p.Topology().NodeName(NodeID(n))
		if n%2 == 0 {
			assign[name] = "alpha"
		} else {
			assign[name] = "beta"
		}
	}
	pd, err := Build(topo(), append(opts, WithBackend(Distributed(assign)))...)
	if err != nil {
		t.Fatal(err)
	}
	out[pd.backend.String()] = pd
	return out
}

// TestBuildRejectsBadOptions pins that an option value no backend can
// honour fails Build: a negative watchdog used to panic the process from
// the watchdog goroutine's ticker at Run, and a nil backend dereferenced
// nil at Engine.
func TestBuildRejectsBadOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"negative watchdog", WithWatchdog(-time.Second)},
		{"nil backend", WithBackend(nil)},
	} {
		if _, err := Build(fig1Topo(), tc.opt); err == nil {
			t.Errorf("%s: Build accepted it", tc.name)
		}
	}
	e, err := stream.NewEngine(fig1Topo().Graph(), nil, stream.Config{WatchdogTimeout: -time.Second})
	if err == nil {
		e.Close()
		t.Error("stream.NewEngine accepted a negative watchdog timeout")
	}
}

// TestPipelineCrossBackendPayloads is the acceptance check: the same
// Build options and the same user payloads produce the identical sink
// emission sequence — and identical per-edge traffic — on the goroutine
// runtime, the deterministic simulator, and the TCP workers.
func TestPipelineCrossBackendPayloads(t *testing.T) {
	const n = 60
	opts := append(fig1Kernels(), WithWatchdog(10*time.Second))
	type outcome struct {
		emissions []Emission
		stats     *RunStats
	}
	results := make(map[string]outcome)
	for name, p := range backendsFor(t, fig1Topo, opts...) {
		var col Collector
		stats, err := p.Run(context.Background(), SliceSource(payloads(n)...), &col)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = outcome{col.Emissions(), stats}
	}

	ref := results["simulator"]
	if len(ref.emissions) == 0 {
		t.Fatal("simulator delivered no emissions")
	}
	// Sequence order within every backend.
	for name, r := range results {
		for i := 1; i < len(r.emissions); i++ {
			if r.emissions[i].Seq <= r.emissions[i-1].Seq {
				t.Fatalf("%s: emissions out of order at %d: %v", name, i, r.emissions[i-1:i+1])
			}
		}
	}
	// Cross-backend equality: emissions and per-edge counts.
	for name, r := range results {
		if len(r.emissions) != len(ref.emissions) {
			t.Fatalf("%s delivered %d emissions, simulator %d",
				name, len(r.emissions), len(ref.emissions))
		}
		for i := range ref.emissions {
			if r.emissions[i] != ref.emissions[i] {
				t.Fatalf("%s emission %d = %+v, simulator %+v",
					name, i, r.emissions[i], ref.emissions[i])
			}
		}
		if r.stats.SinkData != ref.stats.SinkData {
			t.Errorf("%s SinkData = %d, simulator %d", name, r.stats.SinkData, ref.stats.SinkData)
		}
		for e, want := range ref.stats.Data {
			if got := r.stats.Data[e]; got != want {
				t.Errorf("%s data on edge %d = %d, simulator %d", name, e, got, want)
			}
		}
		for e, want := range ref.stats.Dummies {
			if got := r.stats.Dummies[e]; got != want {
				t.Errorf("%s dummies on edge %d = %d, simulator %d", name, e, got, want)
			}
		}
	}
	// Spot-check the payload contract itself: D forwards B's (uppercased)
	// verdict when present, else C's suffixed one.
	for _, em := range ref.emissions {
		want := fmt.Sprintf("FRAME-%03d", em.Seq)
		if em.Seq%3 != 0 {
			want = fmt.Sprintf("frame-%03d!", em.Seq)
		}
		if em.Payload != want {
			t.Fatalf("emission %d payload = %v, want %q", em.Seq, em.Payload, want)
		}
	}
}

// TestPipelineReplicatedCrossBackend runs a replicated hot stage on all
// three backends: the round-robin splitter and sequence-ordered merger
// must keep the sink sequence identical to the unreplicated contract.
func TestPipelineReplicatedCrossBackend(t *testing.T) {
	topo := func() *Topology {
		tp := NewTopology()
		tp.Channel("gen", "work", 4)
		tp.Channel("work", "out", 4)
		return tp
	}
	opts := []Option{
		WithReplication(ReplicationPlan{"work": 3}),
		WithKernel("work", KernelFunc(func(seq uint64, in []Input) map[int]any {
			if !in[0].Present || seq%5 == 4 {
				return nil // filter every fifth frame
			}
			return map[int]any{0: "w:" + in[0].Payload.(string)}
		})),
		WithWatchdog(10 * time.Second),
	}
	const n = 40
	var ref []Emission
	for name, p := range backendsFor(t, topo, opts...) {
		if p.Class() == General {
			t.Fatalf("%s: replication broke the topology class", name)
		}
		var col Collector
		if _, err := p.Run(context.Background(), SliceSource(payloads(n)...), &col); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := col.Emissions()
		if want := n - n/5; len(got) != want {
			t.Fatalf("%s: %d emissions, want %d", name, len(got), want)
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s emission %d = %+v, want %+v", name, i, got[i], ref[i])
			}
		}
	}
}

// TestPipelineCancelMidStream cancels a flowing pipeline fed by an
// endless source; Run must unwind the node goroutines and return the
// context's error.
func TestPipelineCancelMidStream(t *testing.T) {
	p, err := Build(fig1Topo(), append(fig1Kernels(), WithWatchdog(time.Minute))...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	delivered := make(chan struct{}, 1)
	sink := SinkFunc(func(context.Context, uint64, any) error {
		select {
		case delivered <- struct{}{}:
		default:
		}
		return nil
	})
	endless := SourceFunc(func(ctx context.Context) (any, bool, error) {
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		default:
			return "tick", true, nil
		}
	})
	go func() {
		<-delivered // the stream is demonstrably flowing
		cancel()
	}()
	_, err = p.Run(ctx, endless, sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPipelineCancelBlockedSource cancels runs whose source never
// delivers, on every backend.
func TestPipelineCancelBlockedSource(t *testing.T) {
	for name, p := range backendsFor(t, fig1Topo,
		append(fig1Kernels(), WithWatchdog(time.Minute))...) {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		start := time.Now()
		_, err := p.Run(ctx, ChannelSource(make(chan any)), DiscardSink())
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", name, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: cancellation took %v", name, elapsed)
		}
	}
}

// TestPipelineSinkBackpressure drains the sink slower than the source
// produces: the sink channel's backpressure must flow upstream without
// tripping the watchdog, and every emission must still arrive in order.
func TestPipelineSinkBackpressure(t *testing.T) {
	p, err := Build(fig1Topo(),
		append(fig1Kernels(), WithWatchdog(100*time.Millisecond))...)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	ch := make(chan Emission) // unbuffered: every Emit blocks on the reader
	got := make([]Emission, 0, n)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for em := range ch {
			time.Sleep(120 * time.Millisecond) // slower than the watchdog period
			got = append(got, em)
		}
	}()
	_, err = p.Run(context.Background(), SliceSource(payloads(n)...), ChannelSink(ch))
	close(ch)
	<-readerDone
	if err != nil {
		t.Fatalf("backpressured run failed: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("no emissions")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("emissions out of order: %v", got)
		}
	}
}

// TestPipelineSourceError propagates a source failure out of Run.
func TestPipelineSourceError(t *testing.T) {
	boom := errors.New("disk on fire")
	for name, p := range backendsFor(t, fig1Topo,
		append(fig1Kernels(), WithWatchdog(10*time.Second))...) {
		i := 0
		src := SourceFunc(func(context.Context) (any, bool, error) {
			if i >= 5 {
				return nil, false, boom
			}
			i++
			return "x", true, nil
		})
		_, err := p.Run(context.Background(), src, DiscardSink())
		if !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v, want wrapped %v", name, err, boom)
		}
	}
}

// TestPipelineSinkError: the first sink failure aborts the run on every
// backend — no further Emit calls land, and Run returns the sink's
// error, not a secondary teardown error.
func TestPipelineSinkError(t *testing.T) {
	boom := errors.New("sink full")
	for name, p := range backendsFor(t, fig1Topo,
		append(fig1Kernels(), WithWatchdog(10*time.Second))...) {
		calls := 0
		sink := SinkFunc(func(context.Context, uint64, any) error {
			calls++
			if calls >= 3 {
				return boom
			}
			return nil
		})
		_, err := p.Run(context.Background(), SliceSource(payloads(60)...), sink)
		if !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v, want wrapped %v", name, err, boom)
		}
		if calls != 3 {
			t.Fatalf("%s: sink called %d times after erroring on call 3", name, calls)
		}
	}
}

// TestPipelineWithoutAvoidance reproduces the paper's deadlock through
// the new API: the same build minus intervals wedges under filtering,
// since a node's pass stops at its out-edge windows (internal/stream's
// TestBatchedNodeStopsAtItsWindow pins the exact count).
func TestPipelineWithoutAvoidance(t *testing.T) {
	topo := fig2(t)
	var ac EdgeID
	for e := EdgeID(0); int(e) < topo.Graph().NumEdges(); e++ {
		if from, to, _ := topo.Edge(e); from == "A" && to == "C" {
			ac = e
		}
	}
	build := func(opts ...Option) *Pipeline {
		p, err := Build(fig2(t), append(opts,
			WithRouting(DropEdge(ac)), WithWatchdog(150*time.Millisecond))...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	_, err := build(WithoutAvoidance()).Run(context.Background(), CountingSource(200), nil)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("unprotected run returned %v; want *DeadlockError", err)
	}
	// The simulator reports the same wedge, in the same error type.
	_, err = build(WithoutAvoidance(), WithBackend(Simulator())).Run(context.Background(), CountingSource(200), nil)
	var sdl *DeadlockError
	if !errors.As(err, &sdl) {
		t.Fatalf("unprotected simulator run returned %v; want *DeadlockError", err)
	}
	if !maps.Equal(sdl.Channels, dl.Channels) || !slices.Equal(sdl.Stalled, dl.Stalled) {
		t.Errorf("simulator wedge %v, goroutine wedge %v", sdl, dl)
	}
	if _, err := build().Run(context.Background(), CountingSource(200), nil); err != nil {
		t.Fatalf("protected run failed: %v", err)
	}
}

// TestSlowKernelIsNotDeadlock pins that the watchdog tells a slow kernel
// from a wedge: a Map that sleeps three watchdog periods per element
// holds its node loop on one batch, and the run completes on both
// runtime backends.
func TestSlowKernelIsNotDeadlock(t *testing.T) {
	const period, inputs = 100 * time.Millisecond, 4
	for _, backend := range []string{"goroutines", "distributed"} {
		t.Run(backend, func(t *testing.T) {
			pipe, err := NewFlow[uint64, uint64]().Then(
				Map("slow", func(v uint64) uint64 {
					time.Sleep(3 * period)
					return v
				}),
			).Compile(WithWatchdog(period))
			if err != nil {
				t.Fatal(err)
			}
			pipe.backend = parityBackends(pipe)[backend]
			stats, err := pipe.Run(context.Background(), CountingSource(inputs), nil)
			if err != nil {
				t.Fatalf("slow kernel reported as %v", err)
			}
			if stats.SinkData != inputs {
				t.Fatalf("sink got %d elements, want %d", stats.SinkData, inputs)
			}
		})
	}
}

// TestRequestResponseSourceOneAtATime pins Source's one-at-a-time promise
// on the runtime backends: a request/response source whose Next for
// payload i+1 waits until the Sink has received payload i must stream to
// the end, so the engine never holds one payload while it asks for the
// next.  The subtests, named for two batch widths the engine no longer has, run the one width.
func TestRequestResponseSourceOneAtATime(t *testing.T) {
	const inputs = 300
	for _, width := range []string{"batch1", "batch64"} {
		for _, backend := range []string{"goroutines", "simulator", "distributed"} {
			t.Run(backend+"/"+width, func(t *testing.T) {
				if backend == "simulator" {
					t.Skip("the simulator runs Source and Sink on its one scheduler goroutine, so a Next that waits for the Sink would block the run")
				}
				pipe, err := NewFlow[uint64, uint64]().Then(
					Map("a", func(v uint64) uint64 { return v + 1 }),
					Map("b", func(v uint64) uint64 { return 2 * v }),
				).Compile()
				if err != nil {
					t.Fatal(err)
				}
				pipe.backend = parityBackends(pipe)[backend]
				received := make(chan uint64, 1) // the one reply outstanding
				next := uint64(0)
				src := SourceFunc(func(ctx context.Context) (any, bool, error) {
					if next > 0 { // the reply to payload next-1 comes first
						select {
						case <-received:
						case <-ctx.Done():
							return nil, false, ctx.Err()
						}
					}
					if next == inputs {
						return nil, false, nil
					}
					next++
					return next - 1, true, nil
				})
				var got []uint64
				sink := SinkFunc(func(ctx context.Context, seq uint64, payload any) error {
					got = append(got, payload.(uint64))
					select {
					case received <- seq:
						return nil
					case <-ctx.Done():
						return ctx.Err()
					}
				})
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if _, err := pipe.Run(ctx, src, sink); err != nil {
					t.Fatalf("after %d of %d payloads: %v", len(got), inputs, err)
				}
				if len(got) != inputs {
					t.Fatalf("sink received %d payloads, want %d", len(got), inputs)
				}
				for i, v := range got {
					if want := 2 * uint64(i+1); v != want {
						t.Fatalf("payload %d = %d, want %d", i, v, want)
					}
				}
			})
		}
	}
}
