package streamdag

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// evens drops odd ints; used across the flow tests.
func evens(v int) bool { return v%2 == 0 }

func runFlow(t *testing.T, f *Flow[int, int], n int, opts ...Option) ([]int, *RunStats) {
	t.Helper()
	pipe, err := f.Compile(append([]Option{WithWatchdog(5 * time.Second)}, opts...)...)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ints := make([]int, n)
	for i := range ints {
		ints[i] = i
	}
	var col TypedCollector[int]
	stats, err := pipe.Run(context.Background(), SliceSource(ints...), &col)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return col.Values(), stats
}

func TestFlowLinearMapFilter(t *testing.T) {
	f := NewFlow[int, int]().
		Then(Map("double", func(v int) int { return 2 * v })).
		Then(FilterStage("mod3", func(v int) bool { return v%3 == 0 }))
	got, stats := runFlow(t, f, 30)
	var want []int
	for i := 0; i < 30; i++ {
		if (2*i)%3 == 0 {
			want = append(want, 2*i)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d: got %d, want %d", i, got[i], want[i])
		}
	}
	if stats.SinkData != int64(len(want)) {
		t.Fatalf("SinkData = %d, want %d", stats.SinkData, len(want))
	}
}

func TestFlowClassifiesSP(t *testing.T) {
	f := NewFlow[int, int]().
		Then(Split(
			Merge2("join", func(a Maybe[int], b Maybe[int]) (int, bool) {
				switch {
				case a.OK && b.OK:
					return a.Value + b.Value, true
				case a.OK:
					return a.Value, true
				case b.OK:
					return b.Value, true
				}
				return 0, false
			}),
			Map("left", func(v int) int { return v }),
			FilterStage("right", evens),
		))
	pipe, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Class() != SP {
		t.Fatalf("class = %v, want SP", pipe.Class())
	}
	var col TypedCollector[int]
	if _, err := pipe.Run(context.Background(), SliceSource(1, 2, 3, 4), &col); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 3, 8} // odd v: left only; even v: v+v
	got := col.Values()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFlowVariadicMerge(t *testing.T) {
	f := NewFlow[int, int]().
		Then(Split(
			Merge("sum", func(parts []Maybe[int]) (int, bool) {
				total, any := 0, false
				for _, p := range parts {
					if p.OK {
						total += p.Value
						any = true
					}
				}
				return total, any
			}),
			Map("x1", func(v int) int { return v }),
			Map("x10", func(v int) int { return 10 * v }),
			FilterStage("odd", func(v int) bool { return v%2 == 1 }),
		))
	got, _ := runFlow(t, f, 4)
	want := []int{0, 12, 22, 36} // v+10v, +v again when odd
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFlowSequenceBranch(t *testing.T) {
	f := NewFlow[int, int]().
		Then(Split(
			Merge2("join", func(a Maybe[int], b Maybe[int]) (int, bool) {
				if !a.OK {
					return 0, false
				}
				v := a.Value
				if b.OK {
					v += b.Value
				}
				return v, true
			}),
			Map("id", func(v int) int { return v }),
			Sequence(
				FilterStage("keep-evens", evens),
				Map("square", func(v int) int { return v * v }),
			),
		))
	got, _ := runFlow(t, f, 5)
	want := []int{0, 1, 6, 3, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFlowCompileTypeMismatch(t *testing.T) {
	f := NewFlow[int, int]().
		Then(Map("str", func(v int) string { return "x" })).
		Then(FilterStage("even", evens))
	_, err := f.Compile()
	var terr *StageTypeError
	if !errors.As(err, &terr) {
		t.Fatalf("err = %v, want *StageTypeError", err)
	}
	if terr.Stage != "even" || terr.Runtime {
		t.Fatalf("unexpected error detail: %+v", terr)
	}
	if !strings.Contains(terr.Error(), `"even"`) {
		t.Fatalf("error does not name the stage: %v", terr)
	}
}

func TestFlowCompileSinkTypeMismatch(t *testing.T) {
	f := NewFlow[int, string]().Then(Map("id", func(v int) int { return v }))
	_, err := f.Compile()
	var terr *StageTypeError
	if !errors.As(err, &terr) || terr.Stage != "sink" {
		t.Fatalf("err = %v, want *StageTypeError at sink", err)
	}
}

func TestFlowRuntimeTypeError(t *testing.T) {
	pipe, err := NewFlow[int, int]().
		Then(Map("id", func(v int) int { return v })).
		Compile(WithWatchdog(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// An untyped source smuggles a string into an int flow: the payload
	// must be filtered at the source boundary (not panic) and the run
	// must report the typed error.
	var col TypedCollector[int]
	_, err = pipe.Run(context.Background(), SliceSource[any](1, "oops", 3), &col)
	var terr *StageTypeError
	if !errors.As(err, &terr) {
		t.Fatalf("err = %v, want *StageTypeError", err)
	}
	if terr.Stage != "source" || !terr.Runtime || terr.Seq != 1 {
		t.Fatalf("unexpected error detail: %+v", terr)
	}
	got := col.Values()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("surviving values = %v, want [1 3]", got)
	}

	// The slot is per-Run: a clean rerun succeeds.
	if _, err := pipe.Run(context.Background(), SliceSource(4, 5), &col); err != nil {
		t.Fatalf("clean rerun: %v", err)
	}

	// At batch 64 the Map itself meets the string, mid-span: it declines
	// there, and every element it committed on either side — boxed into
	// its node's chunk — must arrive with its value.
	pipe, err = NewFlow[any, uint64]().
		Then(Map("m", func(v uint64) uint64 { return 3 * v })).
		Compile(WithWatchdog(5*time.Second), WithMaxBatch(64))
	if err != nil {
		t.Fatal(err)
	}
	in := make([]any, 200)
	for i := range in {
		in[i] = uint64(1000 + i)
	}
	in[100] = "oops"
	var wide TypedCollector[uint64]
	_, err = pipe.Run(context.Background(), SliceSource(in...), &wide)
	if !errors.As(err, &terr) || terr.Stage != "m" || !terr.Runtime || terr.Seq != 100 {
		t.Fatalf("batch 64: err = %v, want the Map's *StageTypeError at seq 100", err)
	}
	var want []uint64
	for i := range in {
		if i != 100 {
			want = append(want, 3*uint64(1000+i))
		}
	}
	if vals := wide.Values(); fmt.Sprint(vals) != fmt.Sprint(want) {
		t.Fatalf("batch 64: surviving values %v, want %v", vals, want)
	}
}

// The flow's Out type is enforced at the sink even when an
// interface-typed boundary defers the static check to run time.
func TestFlowRuntimeSinkTypeError(t *testing.T) {
	pipe, err := NewFlow[int, string]().
		Then(Map("m", func(v int) any { return v * 2 })).
		Compile(WithWatchdog(5 * time.Second))
	if err != nil {
		t.Fatalf("interface-typed boundary must defer to runtime: %v", err)
	}
	_, err = pipe.Run(context.Background(), SliceSource(1, 2, 3), nil)
	var terr *StageTypeError
	if !errors.As(err, &terr) {
		t.Fatalf("err = %v, want *StageTypeError", err)
	}
	if terr.Stage != "sink" || !terr.Runtime {
		t.Fatalf("unexpected error detail: %+v", terr)
	}
}

// Broken composites nested inside other composites must surface their
// recorded error, not panic in the outer constructor's type checks.
func TestFlowNestedBrokenComposites(t *testing.T) {
	id := func(v int) int { return v }
	join := func(a, b Maybe[int]) (int, bool) { return a.Value, a.OK }
	cases := map[string]Stage{
		"empty sequence inside sequence": Sequence(Sequence(), Map("a", id)),
		"non-merge join inside sequence": Sequence(Split(Map("notmerge", id), Map("b1", id), Map("b2", id)), Map("b", id)),
		"broken split inside split":      Split(Merge2("j", join), Split(Merge2("k", join)), Map("c", id)),
	}
	for name, stage := range cases {
		if err := stage.stageErr(); err == nil {
			t.Errorf("%s: no error recorded", name)
		}
		if _, err := NewFlow[int, int]().Then(stage).Compile(); err == nil {
			t.Errorf("%s: Compile accepted a broken composite", name)
		}
	}
}

func TestFlowStatefulResetAcrossRuns(t *testing.T) {
	f := NewFlow[int, int]().
		Then(Stateful("runsum", 0, func(sum int, v int) (int, int, bool) {
			sum += v
			return sum, sum, true
		}))
	pipe, err := f.Compile(WithWatchdog(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		var col TypedCollector[int]
		if _, err := pipe.Run(context.Background(), SliceSource(1, 2, 3), &col); err != nil {
			t.Fatal(err)
		}
		got := col.Values()
		want := []int{1, 3, 6}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: got %v, want %v (state leaked across runs?)", run, got, want)
			}
		}
	}
}

func TestFlowReplicateStage(t *testing.T) {
	f := NewFlow[int, int]().
		Then(Map("work", func(v int) int { return v + 100 }).Replicate(3))
	pipe, err := f.Compile(WithWatchdog(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	g := pipe.Topology().Graph()
	for n := 0; n < g.NumNodes(); n++ {
		names[g.Name(NodeID(n))] = true
	}
	for _, want := range []string{"work.split", "work.1", "work.3", "work.merge"} {
		if !names[want] {
			t.Fatalf("expanded topology lacks node %q (nodes: %v)", want, names)
		}
	}
	var col TypedCollector[int]
	if _, err := pipe.Run(context.Background(), SliceSource(0, 1, 2, 3, 4, 5), &col); err != nil {
		t.Fatal(err)
	}
	for i, v := range col.Values() {
		if v != i+100 {
			t.Fatalf("value %d = %d; merger broke sequence order", i, v)
		}
	}
}

func TestFlowStatefulReplicateRejected(t *testing.T) {
	_, err := NewFlow[int, int]().
		Then(Stateful("acc", 0, func(s, v int) (int, int, bool) { return s, v, true }).Replicate(2)).
		Compile()
	if err == nil || !strings.Contains(err.Error(), "cannot be replicated") {
		t.Fatalf("err = %v, want stateful-replication rejection", err)
	}
}

func TestFlowCompositeReplicateRejected(t *testing.T) {
	seq := Sequence(Map("a", func(v int) int { return v })).Replicate(2)
	_, err := NewFlow[int, int]().Then(seq).Compile()
	if err == nil || !strings.Contains(err.Error(), "composite") {
		t.Fatalf("err = %v, want composite-replication rejection", err)
	}
	// Replicate(1) is a no-op everywhere, composites included.
	one := Sequence(Map("b", func(v int) int { return v })).Replicate(1)
	if _, err := NewFlow[int, int]().Then(one).Compile(); err != nil {
		t.Fatalf("Replicate(1) on a composite must be a no-op: %v", err)
	}
}

// A merge firing whose every present input failed its runtime cast is
// filtered — the join must not run on all-absent parts.
func TestFlowMergeAllCastsFailFiltered(t *testing.T) {
	joinRan := false
	pipe, err := NewFlow[int, int]().
		Then(Split(
			Merge2("j", func(a Maybe[int], b Maybe[int]) (int, bool) {
				joinRan = true
				return a.Value, true
			}),
			Map("bad", func(v int) any { return "oops" }), // passes Compile, fails at run time
			FilterStage("never", func(int) bool { return false }),
		)).
		Compile(WithWatchdog(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var col TypedCollector[int]
	_, err = pipe.Run(context.Background(), SliceSource(1, 2, 3), &col)
	var terr *StageTypeError
	if !errors.As(err, &terr) || terr.Stage != "j" {
		t.Fatalf("err = %v, want *StageTypeError at \"j\"", err)
	}
	if joinRan {
		t.Fatal("join ran with every part absent")
	}
	if got := col.Values(); len(got) != 0 {
		t.Fatalf("fabricated emissions %v from an all-absent merge firing", got)
	}
}

func TestFlowDuplicateStageName(t *testing.T) {
	_, err := NewFlow[int, int]().
		Then(Map("x", func(v int) int { return v })).
		Then(Map("x", func(v int) int { return v })).
		Compile()
	if err == nil || !strings.Contains(err.Error(), "duplicate stage name") {
		t.Fatalf("err = %v, want duplicate-name error", err)
	}
}

func TestFlowReservedStageNames(t *testing.T) {
	for _, name := range []string{"source", "sink"} {
		_, err := NewFlow[int, int]().
			Then(Map(name, func(v int) int { return v })).
			Compile()
		if err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Fatalf("stage named %q: err = %v, want reserved-name error", name, err)
		}
	}
}

// Knob errors recorded after Split captured its members must still fail
// Compile.
func TestFlowSplitMemberKnobErrorAfterConstruction(t *testing.T) {
	b1 := Map("b1", func(v int) int { return v })
	split := Split(
		Merge2("j", func(a, b Maybe[int]) (int, bool) { return a.Value, a.OK }),
		b1,
		Map("b2", func(v int) int { return v }),
	)
	b1.Replicate(0)
	_, err := NewFlow[int, int]().Then(split).Compile()
	if err == nil || !strings.Contains(err.Error(), "must be positive") {
		t.Fatalf("err = %v, want replica-count error from the branch", err)
	}
}

// A nil payload is a valid value of an interface-typed collector, same
// as for TypedSink and the stage boundary checks.
func TestTypedCollectorNilInterfacePayload(t *testing.T) {
	var errs TypedCollector[error]
	if err := errs.Emit(context.Background(), 0, nil); err != nil {
		t.Fatalf("nil payload rejected for interface T: %v", err)
	}
	if got := errs.Emissions(); len(got) != 1 || got[0].Value != nil {
		t.Fatalf("emissions = %+v, want one nil-valued emission", got)
	}
	var ints TypedCollector[int]
	if err := ints.Emit(context.Background(), 0, nil); err == nil {
		t.Fatal("nil payload accepted for non-interface T")
	}
}

func TestFlowMergeOutsideSplit(t *testing.T) {
	_, err := NewFlow[int, int]().
		Then(Merge("join", func([]Maybe[int]) (int, bool) { return 0, false })).
		Compile()
	if err == nil || !strings.Contains(err.Error(), "must be the join of a Split") {
		t.Fatalf("err = %v, want merge-outside-split error", err)
	}
}

func TestFlowKernelConflictWithUserOption(t *testing.T) {
	_, err := NewFlow[int, int]().
		Then(Map("work", func(v int) int { return v })).
		Compile(WithKernel("work", KernelFunc(func(uint64, []Input) map[int]any { return nil })))
	var cerr *KernelConflictError
	if !errors.As(err, &cerr) || cerr.Node != "work" {
		t.Fatalf("err = %v, want *KernelConflictError for node \"work\"", err)
	}
}

func TestFlowOnSimulatorBackend(t *testing.T) {
	f := NewFlow[int, int]().
		Then(Map("double", func(v int) int { return 2 * v })).
		Then(FilterStage("even", evens))
	got, _ := runFlow(t, f, 10, WithBackend(Simulator()))
	for i, v := range got {
		if v != 2*i {
			t.Fatalf("simulator values = %v", got)
		}
	}
}

func TestTypedSinkMismatch(t *testing.T) {
	sink := TypedSink(func(_ context.Context, _ uint64, v string) error { return nil })
	err := sink.Emit(context.Background(), 7, 42)
	var terr *StageTypeError
	if !errors.As(err, &terr) || terr.Stage != "sink" || terr.Seq != 7 {
		t.Fatalf("err = %v, want *StageTypeError at sink seq 7", err)
	}
}

// TestStageKnobPolicy pins which knobs each stage kind accepts: every
// constructor under every knob, compiled in a position the stage may
// hold (a merge as the join of a Split), plus the misplacements, against
// the exact Compile error.  Rows absent from want compile.
func TestStageKnobPolicy(t *testing.T) {
	id := func(v int) int { return v }
	join := func(p []Maybe[int]) (int, bool) { return 0, true }
	join2 := func(a, b Maybe[int]) (int, bool) { return 0, true }
	join3 := func(a, b, c Maybe[int]) (int, bool) { return 0, true }
	ctors := []struct {
		name string
		mk   func(knob func(Stage) Stage) Stage
	}{
		{"Map", func(k func(Stage) Stage) Stage { return k(Map("s", id)) }},
		{"FilterStage", func(k func(Stage) Stage) Stage { return k(FilterStage("s", evens)) }},
		{"FilterMap", func(k func(Stage) Stage) Stage {
			return k(FilterMap("s", func(v int) (int, bool) { return v, true }))
		}},
		{"Stateful", func(k func(Stage) Stage) Stage {
			return k(Stateful("s", 0, func(s, v int) (int, int, bool) { return s, v, true }))
		}},
		{"Merge", func(k func(Stage) Stage) Stage { return Split(k(Merge("s", join)), Map("b0", id), Map("b1", id)) }},
		{"Merge2", func(k func(Stage) Stage) Stage { return Split(k(Merge2("s", join2)), Map("b0", id), Map("b1", id)) }},
		{"Merge3", func(k func(Stage) Stage) Stage {
			return Split(k(Merge3("s", join3)), Map("b0", id), Map("b1", id), Map("b2", id))
		}},
		{"Sequence", func(k func(Stage) Stage) Stage { return k(Sequence(Map("a", id), Map("b", id))) }},
		{"Split", func(k func(Stage) Stage) Stage { return k(Split(Merge("j", join), Map("b0", id), Map("b1", id))) }},
		{"TumblingWindow", func(k func(Stage) Stage) Stage { return k(TumblingWindow[int]("s", time.Millisecond)) }},
		{"SlidingWindow", func(k func(Stage) Stage) Stage {
			return k(SlidingWindow[int]("s", 2*time.Millisecond, time.Millisecond))
		}},
		{"SessionWindow", func(k func(Stage) Stage) Stage { return k(SessionWindow[int]("s", time.Millisecond)) }},
		{"Throttle", func(k func(Stage) Stage) Stage { return k(Throttle[int]("s", time.Millisecond)) }},
		{"Debounce", func(k func(Stage) Stage) Stage { return k(Debounce[int]("s", time.Millisecond)) }},
		{"Dedupe", func(k func(Stage) Stage) Stage { return k(Dedupe[int]("s", time.Millisecond)) }},
		{"Sample", func(k func(Stage) Stage) Stage { return k(Sample[int]("s", time.Millisecond)) }},
	}
	knobs := []struct {
		name  string
		apply func(Stage) Stage
	}{
		{"Replicate(1)", func(s Stage) Stage { return s.Replicate(1) }},
		{"Replicate(2)", func(s Stage) Stage { return s.Replicate(2) }},
		{"Buffer(4)", func(s Stage) Stage { return s.Buffer(4) }},
		{"Tap", func(s Stage) Stage { return s.Tap(func(any) {}) }},
	}
	want := map[string]string{
		"Stateful/Replicate(2)":       "streamdag: flow: stateful stage \"s\" cannot be replicated (replicas would share its state)",
		"Sequence/Replicate(2)":       "streamdag: flow: composite stage \"seq(a..b)\" cannot be replicated; replicate its member stages",
		"Sequence/Buffer(4)":          "streamdag: flow: composite stage \"seq(a..b)\" has no inbound channel of its own; set buffers on its member stages",
		"Sequence/Tap":                "streamdag: flow: composite stage \"seq(a..b)\" has no node of its own; tap its member stages",
		"Split/Replicate(2)":          "streamdag: flow: composite stage \"split(j)\" cannot be replicated; replicate its member stages",
		"Split/Buffer(4)":             "streamdag: flow: composite stage \"split(j)\" has no inbound channel of its own; set buffers on its member stages",
		"Split/Tap":                   "streamdag: flow: composite stage \"split(j)\" has no node of its own; tap its member stages",
		"TumblingWindow/Replicate(2)": `streamdag: flow: time-aware stage "s" cannot be replicated`,
		"SlidingWindow/Replicate(2)":  "streamdag: flow: time-aware stage \"s\" cannot be replicated",
		"SessionWindow/Replicate(2)":  "streamdag: flow: time-aware stage \"s\" cannot be replicated",
		"Throttle/Replicate(2)":       "streamdag: flow: time-aware stage \"s\" cannot be replicated",
		"Debounce/Replicate(2)":       "streamdag: flow: time-aware stage \"s\" cannot be replicated",
		"Dedupe/Replicate(2)":         "streamdag: flow: time-aware stage \"s\" cannot be replicated",
		"Sample/Replicate(2)":         "streamdag: flow: time-aware stage \"s\" cannot be replicated",
		"Merge/linear":                "streamdag: flow: merge stage \"s\" must be the join of a Split",
		"Throttle/in-Split-branch":    "streamdag: flow: time-aware stage \"s\" cannot run inside a Split branch: its re-sequenced output would not align with the sibling branches at the merge",
		"Merge2/three-branches":       "streamdag: flow: Split join \"s\" takes 2 branches, got 3",
		"Map/as-Split-join":           "streamdag: flow: Split join \"s\" must be a Merge, Merge2, or Merge3 stage",
	}
	rows := map[string]Stage{
		"Merge/linear":             Merge("s", join),
		"Throttle/in-Split-branch": Split(Merge("j", join), Throttle[int]("s", time.Millisecond), Map("b1", id)),
		"Merge2/three-branches":    Split(Merge2("s", join2), Map("b0", id), Map("b1", id), Map("b2", id)),
		"Map/as-Split-join":        Split(Map("s", id), Map("b0", id), Map("b1", id)),
	}
	for _, c := range ctors {
		for _, k := range knobs {
			rows[c.name+"/"+k.name] = c.mk(k.apply)
		}
	}
	for name := range want {
		if rows[name] == nil {
			t.Errorf("want names no row %q", name)
		}
	}
	for name, st := range rows {
		_, err := NewFlow[int, any]().Then(st).Compile()
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != want[name] {
			t.Errorf("%s: Compile error = %q, want %q", name, got, want[name])
		}
	}
}
