package streamdag

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamdag/internal/clock"
)

// Tests for the time-aware stage library: compile-time validation, the
// simulator's bit-deterministic window semantics (pinned), cross-backend
// parity, composition with batching and replication, watchdog behaviour
// around armed timers, and window-state reset across fault retries.

// fmtTimed renders a timed payload for comparison: windows as their item
// list (Start/End are clock-dependent, so parity across wall- and
// virtual-clock backends compares contents), everything else verbatim.
func fmtTimed(p any) string {
	if w, ok := p.(Window[int]); ok {
		return fmt.Sprintf("W%v", w.Items)
	}
	return fmt.Sprint(p)
}

// fmtWindowFull renders a window with its grid offsets from the clock
// epoch — the bit-deterministic form the simulator tests pin.
func fmtWindowFull(p any) string {
	w := p.(Window[int])
	return fmt.Sprintf("[%d,%d)ms%v",
		w.Start.Sub(clock.Epoch)/time.Millisecond,
		w.End.Sub(clock.Epoch)/time.Millisecond,
		w.Items)
}

func intPayloads(vals ...int) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		out[i] = v
	}
	return out
}

func TestTimedStageValidation(t *testing.T) {
	compile := func(s Stage, opts ...Option) error {
		_, err := NewFlow[int, any]().Then(s).Compile(opts...)
		return err
	}
	bad := []Stage{
		TumblingWindow[int]("w", 0),
		SlidingWindow[int]("w", 10*time.Millisecond, 0),
		SlidingWindow[int]("w", 10*time.Millisecond, 20*time.Millisecond),
		SessionWindow[int]("w", -time.Second),
		Throttle[int]("w", 0),
		Debounce[int]("w", 0),
		Dedupe[int]("w", 0),
		Sample[int]("w", 0),
	}
	for i, s := range bad {
		if err := compile(s); err == nil {
			t.Errorf("bad stage %d compiled", i)
		}
	}
	if err := compile(Throttle[int]("w", time.Second).Replicate(2)); err == nil {
		t.Error("replicated time-aware stage compiled")
	}
	_, err := NewFlow[int, any]().
		Then(Split(Merge2("join", func(a Maybe[int], b Maybe[int]) (int, bool) { return a.Value + b.Value, true }),
			Throttle[int]("thr", time.Second),
			Map("idm", func(v int) int { return v }))).
		Compile()
	if err == nil || !strings.Contains(err.Error(), "Split branch") {
		t.Errorf("time-aware stage inside a Split branch compiled: %v", err)
	}
	// A replicated stage directly upstream is legal: expansion inserts a
	// merge node, so the timed node still sees one ordered input edge.
	pre, err := NewFlow[int, any]().
		Then(Map("pre", func(v int) int { return v })).
		Then(Throttle[int]("thr", time.Hour)).
		Compile(WithReplication(ReplicationPlan{"pre": 3}), WithWatchdog(10*time.Second))
	if err != nil {
		t.Fatalf("timed stage after a replicated+merged upstream: %v", err)
	}
	col := &Collector{}
	if _, err := pre.Run(context.Background(), SliceSource(intPayloads(1, 2, 3, 4, 5)...), col); err != nil {
		t.Fatal(err)
	}
	if ems := col.Emissions(); len(ems) != 1 || fmtTimed(ems[0].Payload) != "1" {
		t.Errorf("throttle behind replicated upstream emitted %v, want just 1", ems)
	}
	// Replicating the timed node itself would erase its timed dispatch
	// behind the per-replica adapters.
	_, err = NewFlow[int, any]().
		Then(Map("pre", func(v int) int { return v })).
		Then(Throttle[int]("thr", time.Second)).
		Compile(WithReplication(ReplicationPlan{"thr": 2}))
	if err == nil {
		t.Error("replicating a timed node via WithReplication compiled")
	}
	// The simulator cannot advance a wall clock, so explicit non-fake
	// clocks are rejected when timed stages are present.
	pipe, err := NewFlow[int, any]().
		Then(Throttle[int]("thr", time.Second)).
		Compile(WithBackend(Simulator()), WithClock(clock.WallClock))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Engine(); err == nil {
		t.Error("simulator engine accepted a wall clock for timed stages")
	}
}

// runTimed compiles the flow source → stage → sink and runs payloads
// through it on the given backend options, returning the sink payloads.
func runTimed(t *testing.T, stage Stage, payloads []any, opts ...Option) []any {
	t.Helper()
	pipe, err := NewFlow[int, any]().Then(stage).Compile(opts...)
	if err != nil {
		t.Fatal(err)
	}
	col := &Collector{}
	if _, err := pipe.Run(context.Background(), SliceSource(payloads...), col); err != nil {
		t.Fatal(err)
	}
	ems := col.Emissions()
	out := make([]any, len(ems))
	for i, e := range ems {
		out[i] = e.Payload
	}
	return out
}

// TestSimWindowDeterministic pins the simulator's window semantics
// bit-for-bit: virtual time is a pure function of the scheduler round,
// so repeated runs (fresh Build each, fake clock starting at the epoch)
// produce identical window boundaries and contents.
func TestSimWindowDeterministic(t *testing.T) {
	input := make([]any, 20)
	for i := range input {
		input[i] = i
	}
	run := func(stage Stage) string {
		out := runTimed(t, stage, input, WithBackend(Simulator()))
		parts := make([]string, len(out))
		for i, p := range out {
			parts[i] = fmtWindowFull(p)
		}
		return strings.Join(parts, " ")
	}
	cases := []struct {
		name string
		mk   func() Stage
		want string
	}{
		{"tumbling", func() Stage { return TumblingWindow[int]("win", 4*time.Millisecond) },
			"[0,4)ms[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15] [48,52)ms[16 17 18 19]"},
		{"sliding", func() Stage { return SlidingWindow[int]("win", 4*time.Millisecond, 2*time.Millisecond) },
			"[-2,2)ms[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15] [0,4)ms[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15] [46,50)ms[16 17 18 19] [48,52)ms[16 17 18 19]"},
		{"session", func() Stage { return SessionWindow[int]("win", 3*time.Millisecond) },
			"[0,3)ms[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15] [49,52)ms[16 17 18 19]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := run(tc.mk())
			again := run(tc.mk())
			if got != again {
				t.Fatalf("repeated simulator runs differ:\n  %s\n  %s", got, again)
			}
			if got != tc.want {
				t.Errorf("pinned window output changed:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}

// TestSimTimedStagesDeterministic pins the non-window timed stages'
// simulator output the same way: the simulator ingests a run of one per
// step.
func TestSimTimedStagesDeterministic(t *testing.T) {
	run := func(stage Stage, input []any) string {
		out := runTimed(t, stage, input, WithBackend(Simulator()))
		parts := make([]string, len(out))
		for i, p := range out {
			parts[i] = fmtTimed(p)
		}
		return strings.Join(parts, " ")
	}
	cases := []struct {
		name  string
		mk    func() Stage
		input []any
		want  string
	}{
		{"throttle", func() Stage { return Throttle[int]("thr", 3*time.Millisecond) },
			intPayloads(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), "0"},
		{"debounce", func() Stage { return Debounce[int]("deb", 2*time.Millisecond) },
			intPayloads(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), "9"},
		{"dedupe", func() Stage { return Dedupe[int]("ddp", 4*time.Millisecond) },
			intPayloads(7, 7, 8, 7, 8, 9, 7, 7), "7 8 9"},
		{"sample", func() Stage { return Sample[int]("smp", 3*time.Millisecond) },
			intPayloads(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), "9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := run(tc.mk(), tc.input)
			again := run(tc.mk(), tc.input)
			if got != again {
				t.Fatalf("repeated simulator runs differ:\n  %s\n  %s", got, again)
			}
			if got != tc.want {
				t.Errorf("pinned output changed:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}

// TestTimedParityAcrossBackends runs every time-aware stage on all three
// backends with intervals far longer than the test, on a fake clock (the
// simulator's own, or one nobody advances): nothing closes mid-stream, so
// each stage's output is determined by arrival order alone and must agree
// across the goroutine runtime, the simulator, and the TCP workers — on
// the short pinned input and on a long one, whose 200 elements arrive in
// runs wider than one.
func TestTimedParityAcrossBackends(t *testing.T) {
	const long = time.Hour
	all, mod5 := make([]int, 200), make([]int, 200)
	for i := range all {
		all[i], mod5[i] = i, i%5
	}
	window := fmt.Sprintf("W%v", all)
	cases := []struct {
		name     string
		mk       func() Stage
		input    []any
		want     string
		long     []any
		longWant string
	}{
		{"tumbling", func() Stage { return TumblingWindow[int]("win", long) },
			intPayloads(1, 2, 3), "W[1 2 3]", intPayloads(all...), window},
		{"session", func() Stage { return SessionWindow[int]("win", long) },
			intPayloads(1, 2, 3), "W[1 2 3]", intPayloads(all...), window},
		{"sliding", func() Stage { return SlidingWindow[int]("win", long, long) },
			intPayloads(1, 2, 3), "W[1 2 3]", intPayloads(all...), window},
		{"throttle", func() Stage { return Throttle[int]("thr", long) },
			intPayloads(1, 2, 3, 4, 5), "1", intPayloads(all...), "0"},
		{"debounce", func() Stage { return Debounce[int]("deb", long) },
			intPayloads(1, 2, 3, 4, 5), "5", intPayloads(all...), "199"},
		{"dedupe", func() Stage { return Dedupe[int]("ddp", long) },
			intPayloads(1, 2, 1, 3, 2, 4), "1 2 3 4", intPayloads(mod5...), "0 1 2 3 4"},
		{"sample", func() Stage { return Sample[int]("smp", long) },
			intPayloads(1, 2, 3), "3", intPayloads(all...), "199"},
	}
	backends := func(stageName string) map[string][]Option {
		return map[string][]Option{
			"goroutines": {WithClock(NewFakeClock())},
			"simulator":  {WithBackend(Simulator())},
			// The timed node and the sink stay co-located so Window[int]
			// payloads never cross the wire codec.
			"distributed": {WithBackend(Distributed(map[string]string{
				"source": "w0", stageName: "w1", "sink": "w1",
			})), WithClock(NewFakeClock()), WithWatchdog(10 * time.Second)},
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for name, opts := range backends(tc.mk().Name()) {
				for _, in := range []struct {
					input []any
					want  string
				}{{tc.input, tc.want}, {tc.long, tc.longWant}} {
					out := runTimed(t, tc.mk(), in.input, opts...)
					parts := make([]string, len(out))
					for i, p := range out {
						parts[i] = fmtTimed(p)
					}
					if got := strings.Join(parts, " "); got != in.want {
						t.Errorf("%s, %d inputs: got %q, want %q", name, len(in.input), got, in.want)
					}
				}
			}
		})
	}
}

// TestWindowBatchReplicaComposition composes a window with the two
// scale features it must coexist with: a Replicate(4) stage upstream
// (joined back by a plain stage — a timed stage cannot directly follow
// the replicas) and transport batching.  Order and content are
// exact on every backend: one window holding the whole transformed
// stream in sequence order.
func TestWindowBatchReplicaComposition(t *testing.T) {
	const n = 2000
	input := make([]any, n)
	want := make([]int, n)
	for i := 0; i < n; i++ {
		input[i] = i
		want[i] = 2*i + 1
	}
	flow := func() *Flow[int, any] {
		return NewFlow[int, any]().
			Then(Map("scale", func(v int) int { return 2 * v }).Replicate(4)).
			Then(Map("fold", func(v int) int { return v + 1 })).
			Then(TumblingWindow[int]("win", time.Hour))
	}
	for name, opts := range map[string][]Option{
		"goroutines": {WithClock(NewFakeClock()), WithWatchdog(10 * time.Second)},
		"simulator":  {WithBackend(Simulator())},
	} {
		pipe, err := flow().Compile(opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		col := &Collector{}
		if _, err := pipe.Run(context.Background(), SliceSource(input...), col); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ems := col.Emissions()
		if len(ems) != 1 {
			t.Fatalf("%s: got %d windows, want 1", name, len(ems))
		}
		w := ems[0].Payload.(Window[int])
		if len(w.Items) != n {
			t.Fatalf("%s: window holds %d items, want %d", name, len(w.Items), n)
		}
		for i, v := range w.Items {
			if v != want[i] {
				t.Fatalf("%s: item %d = %d, want %d", name, i, v, want[i])
			}
		}
	}
}

// TestTimedWatchdogSuppression holds a session idle far past the
// watchdog timeout while a window sits open with its flush timer armed:
// the watchdog must not report deadlock, the timer must flush the window
// mid-stream when the (fake) clock passes the boundary, and the session
// must complete cleanly afterwards.
func TestTimedWatchdogSuppression(t *testing.T) {
	fake := NewFakeClock()
	ob := NewObserver()
	pipe, err := NewFlow[int, any]().
		Then(TumblingWindow[int]("win", 10*time.Millisecond)).
		Compile(WithObserver(ob), WithClock(fake), WithWatchdog(40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pipe.Engine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ch := make(chan any)
	col := &Collector{}
	ses, err := eng.Open(context.Background(), ChannelSource(ch), col)
	if err != nil {
		t.Fatal(err)
	}
	ch <- 1
	ch <- 2
	// Idle well past the watchdog with the window open and its timer
	// armed on the fake clock.
	time.Sleep(4 * 40 * time.Millisecond)
	fake.Advance(15 * time.Millisecond) // cross the 10ms boundary
	deadline := time.Now().Add(5 * time.Second)
	for len(col.Emissions()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("window did not flush mid-stream after the clock advanced")
		}
		time.Sleep(time.Millisecond)
	}
	ch <- 3
	close(ch)
	if _, err := ses.Wait(); err != nil {
		t.Fatalf("session failed: %v", err)
	}
	ems := col.Emissions()
	if len(ems) != 2 {
		t.Fatalf("got %d windows, want 2", len(ems))
	}
	if got := fmtTimed(ems[0].Payload); got != "W[1 2]" {
		t.Errorf("first window %s, want W[1 2]", got)
	}
	if got := fmtTimed(ems[1].Payload); got != "W[3]" {
		t.Errorf("second window %s, want W[3]", got)
	}
	snap := ob.Snapshot()
	if snap.Time.TimerTicks < 1 {
		t.Errorf("TimerTicks = %d, want >= 1", snap.Time.TimerTicks)
	}
	if snap.Time.TimedEmissions < 2 {
		t.Errorf("TimedEmissions = %d, want >= 2", snap.Time.TimedEmissions)
	}
}

// failOnceSink fails the first delivery ever made to it and accepts the
// rest — the minimal poisoned-payload scenario for the retry layer.
type failOnceSink struct {
	col    *Collector
	failed atomic.Bool
}

func (s *failOnceSink) Emit(ctx context.Context, seq uint64, payload any) error {
	if !s.failed.Swap(true) {
		return errors.New("transient sink failure")
	}
	return s.col.Emit(ctx, seq, payload)
}

// TestTimedRetryReset pins the retry layer's interaction with timed
// stage state: a retried session re-ingests from payload zero, so the
// stage's state must be re-initialized per attempt — otherwise the
// replayed elements here would all be suppressed as duplicates of the
// failed attempt's.  The poisoned first emission lands in the
// dead-letter queue (dedup-sink safe), the rest are delivered exactly
// once.
func TestTimedRetryReset(t *testing.T) {
	dlq := &DeadLetterQueue{}
	pipe, err := NewFlow[int, any]().
		Then(Dedupe[int]("ddp", time.Hour)).
		Compile(
			WithRetry(RetryPolicy{MaxAttempts: 3}),
			WithDeadLetter(dlq),
			WithWatchdog(10*time.Second),
		)
	if err != nil {
		t.Fatal(err)
	}
	col := &Collector{}
	sink := &failOnceSink{col: col}
	if _, err := pipe.Run(context.Background(), SliceSource(intPayloads(7, 7, 8)...), sink); err != nil {
		t.Fatalf("retried run failed: %v", err)
	}
	ems := col.Emissions()
	if len(ems) != 1 || fmtTimed(ems[0].Payload) != "8" {
		t.Fatalf("delivered %v, want just 8 (7 dead-lettered)", ems)
	}
	letters := dlq.Letters()
	if len(letters) != 1 || letters[0].Payload != any(7) || letters[0].Seq != 0 {
		t.Fatalf("dead letters %v, want one letter carrying 7 at seq 0", letters)
	}
}

// TestTimedAfterFilteringSplit puts a window behind a split whose branches
// both filter, so the merge forwards dummies for the sequence numbers
// neither kept and the time-aware node's runs mix data and dummies.  On
// every backend, the windows partition the merged stream in order, and the
// per-edge data and dummy counts upstream of the window — what the
// protocol computed — are the simulator's.
func TestTimedAfterFilteringSplit(t *testing.T) {
	const n = 600
	input := make([]any, n)
	var merged []int
	for i := range input {
		input[i] = i
		if i%3 == 0 || i%4 == 0 {
			merged = append(merged, i)
		}
	}
	run := func(width time.Duration, opts ...Option) (*Pipeline, *RunStats, [][]int) {
		t.Helper()
		pipe, err := NewFlow[int, any]().
			Then(Split(
				Merge("join", func(parts []Maybe[int]) (int, bool) {
					if parts[0].OK {
						return parts[0].Value, true
					}
					return parts[1].Value, true
				}),
				FilterStage("threes", func(v int) bool { return v%3 == 0 }),
				FilterStage("fours", func(v int) bool { return v%4 == 0 }),
			)).
			Then(TumblingWindow[int]("win", width)).
			Compile(append(opts, WithWatchdog(10*time.Second))...)
		if err != nil {
			t.Fatal(err)
		}
		col := &Collector{}
		stats, err := pipe.Run(context.Background(), SliceSource(input...), col)
		if err != nil {
			t.Fatal(err)
		}
		var windows [][]int
		for _, e := range col.Emissions() {
			windows = append(windows, e.Payload.(Window[int]).Items)
		}
		return pipe, stats, windows
	}
	checkPartition := func(label string, windows [][]int) {
		t.Helper()
		var got []int
		for _, w := range windows {
			got = append(got, w...)
		}
		if fmt.Sprint(got) != fmt.Sprint(merged) {
			t.Errorf("%s: windows hold %v, want the merged stream %v", label, got, merged)
		}
	}

	// The simulator's clock moves, so a short width cuts the stream into
	// several windows; they must still partition it.
	_, _, short := run(4*time.Millisecond, WithBackend(Simulator()))
	if len(short) < 2 {
		t.Fatalf("simulator cut %d windows at 4ms; the partition check needs several", len(short))
	}
	checkPartition("simulator, 4ms", short)

	ref, refStats, windows := run(time.Hour, WithBackend(Simulator()))
	checkPartition("simulator", windows)
	g := ref.Topology().Graph()
	into := g.In(g.MustNode("win"))[0]
	if refStats.Dummies[into] == 0 {
		t.Fatal("no dummies reach the window; the case would not exercise mixed runs")
	}
	assign := map[string]string{"win": "w1", "sink": "w1"} // Window[int] stays off the wire
	for i := 0; i < g.NumNodes(); i++ {
		if name := g.Name(NodeID(i)); assign[name] == "" {
			assign[name] = "w0"
		}
	}
	for name, backend := range map[string]Backend{
		"goroutines": Goroutines(), "simulator": Simulator(), "distributed": Distributed(assign),
	} {
		opts := []Option{WithBackend(backend)}
		if name != "simulator" {
			opts = append(opts, WithClock(NewFakeClock()))
		}
		_, stats, windows := run(time.Hour, opts...)
		checkPartition(name, windows)
		for e := range refStats.Data {
			if stats.Data[e] != refStats.Data[e] || stats.Dummies[e] != refStats.Dummies[e] {
				t.Errorf("%s: edge %d carried %d data, %d dummies; the simulator %d, %d",
					name, e, stats.Data[e], stats.Dummies[e], refStats.Data[e], refStats.Dummies[e])
			}
		}
	}
}

// BenchmarkWindowKernelRun times the tumbling kernel alone, per element,
// fed runs of one and of 64 under one clock reading each, with a window
// closing every 4096 elements.
func BenchmarkWindowKernelRun(b *testing.B) {
	for _, run := range []int{1, 64} {
		b.Run(fmt.Sprintf("run%d", run), func(b *testing.B) {
			k := &windowKernel[int]{timedCore: timedCore{name: "win"}, width: time.Millisecond, slide: time.Millisecond}
			seqs, pays := make([]uint64, run), intPayloads(make([]int, run)...)
			now := clock.Epoch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += run {
				k.Ingest(now, seqs, pays)
				if i%4096 == 0 {
					now = now.Add(time.Millisecond)
					k.Tick(now)
					k.TakeEmissions()
				}
			}
		})
	}
}
