package proto

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/ival"
)

func TestIntegerize(t *testing.T) {
	iv := map[graph.EdgeID]ival.Interval{
		0: ival.FromRatio(8, 3),
		1: ival.Inf(),
		2: ival.FromRatio(1, 3),
		4: ival.FromInt(0),
	}
	cases := []struct {
		cfg  Config
		e    graph.EdgeID
		want uint64
	}{
		{Config{Intervals: iv}, 0, 3}, // ceil(8/3)
		{Config{Intervals: iv}, 1, 0}, // ∞ never sends
		{Config{}, 0, 0},              // avoidance disabled
		{Config{Intervals: iv}, 2, 1}, // ceil(1/3)
		{Config{Intervals: iv}, 4, 1}, // a zero interval clamps to 1
		{Config{Intervals: iv}, 3, 0}, // absent edge
	}
	for _, c := range cases {
		if got := Integerize(c.cfg, c.e); got != c.want {
			t.Errorf("Integerize(%v, %d) = %d, want %d", c.cfg.Intervals[c.e], c.e, got, c.want)
		}
	}
}

func TestMinSeq(t *testing.T) {
	if got := MinSeq([]uint64{7, 3, EOSSeq}); got != 3 {
		t.Errorf("MinSeq = %d, want 3", got)
	}
	if got := MinSeq([]uint64{EOSSeq, EOSSeq}); got != EOSSeq {
		t.Errorf("MinSeq of all-EOS = %d, want EOSSeq", got)
	}
	if got := MinSeq(nil); got != EOSSeq {
		t.Errorf("MinSeq of no inputs = %d, want EOSSeq", got)
	}
}

// TestFireTimers checks the per-edge timer: with a gap of 3 on edge 0 and
// data flowing only on edge 1, edge 0 receives a dummy every 3 sequence
// numbers.
func TestFireTimers(t *testing.T) {
	iv := map[graph.EdgeID]ival.Interval{0: ival.FromInt(3)}
	e := NewEngine([]graph.EdgeID{0, 1}, Config{Algorithm: cs4.NonPropagation, Intervals: iv})
	var dummySeqs []uint64
	for seq := uint64(0); seq < 10; seq++ {
		dummy := e.Fire(seq, []bool{false, true})
		if dummy[1] {
			t.Fatalf("seq %d: dummy on the data-carrying edge", seq)
		}
		if dummy[0] {
			dummySeqs = append(dummySeqs, seq)
		}
	}
	// lastSent starts at -1, so the first dummy is due when seq-(-1) >= 3.
	want := []uint64{2, 5, 8}
	if len(dummySeqs) != len(want) {
		t.Fatalf("dummies at %v, want %v", dummySeqs, want)
	}
	for i := range want {
		if dummySeqs[i] != want[i] {
			t.Fatalf("dummies at %v, want %v", dummySeqs, want)
		}
	}
}

// TestFireCascade checks the Propagation cascade: a firing with no data on
// any output refreshes every out-edge, even timerless (∞) ones.
func TestFireCascade(t *testing.T) {
	iv := map[graph.EdgeID]ival.Interval{0: ival.Inf(), 1: ival.Inf()}
	e := NewEngine([]graph.EdgeID{0, 1}, Config{Algorithm: cs4.Propagation, Intervals: iv})

	dummy := e.Fire(0, []bool{true, false})
	if dummy[0] || dummy[1] {
		t.Fatalf("data firing with ∞ timers produced dummies: %v", dummy)
	}
	dummy = e.Fire(1, []bool{false, false})
	if !dummy[0] || !dummy[1] {
		t.Fatalf("fully filtered firing must cascade on every output, got %v", dummy)
	}
	// NonPropagation never cascades.
	ne := NewEngine([]graph.EdgeID{0, 1}, Config{Algorithm: cs4.NonPropagation, Intervals: iv})
	dummy = ne.Fire(0, []bool{false, false})
	if dummy[0] || dummy[1] {
		t.Fatalf("Non-Propagation cascaded: %v", dummy)
	}
	// Avoidance disabled: no cascade either.
	off := NewEngine([]graph.EdgeID{0, 1}, Config{Algorithm: cs4.Propagation})
	dummy = off.Fire(0, []bool{false, false})
	if dummy[0] || dummy[1] {
		t.Fatalf("disabled avoidance produced dummies: %v", dummy)
	}
}

// TestFireDataRefreshesTimer checks that data messages refresh the timer,
// so a dummy is only due after a gap-long silence.
func TestFireDataRefreshesTimer(t *testing.T) {
	iv := map[graph.EdgeID]ival.Interval{0: ival.FromInt(2)}
	e := NewEngine([]graph.EdgeID{0}, Config{Algorithm: cs4.NonPropagation, Intervals: iv})
	if d := e.Fire(0, []bool{true}); d[0] {
		t.Fatal("dummy alongside data")
	}
	if d := e.Fire(1, []bool{false}); d[0] {
		t.Fatal("dummy one step after data with gap 2")
	}
	if d := e.Fire(2, []bool{false}); !d[0] {
		t.Fatal("no dummy two steps after data with gap 2")
	}
}

// cloneEngine copies an engine's state, its counts and its mask scratch
// included, so the same prefix can be replayed down two paths.
func cloneEngine(e *Engine) *Engine {
	return &Engine{
		lastSent: append([]int64(nil), e.lastSent...),
		sendAt:   append([]uint64(nil), e.sendAt...),
		cascade:  e.cascade,
		dummy:    append([]bool(nil), e.dummy...),
		counts:   e.counts,
	}
}

// TestFireRunEquivalence checks FireRun against the per-element oracle: on
// every run where per-element Fire would emit no dummies, FireRun must
// succeed and leave identical state; on every run where it would, FireRun
// must refuse without mutating anything.
func TestFireRunEquivalence(t *testing.T) {
	iv := map[graph.EdgeID]ival.Interval{0: ival.FromInt(3), 1: ival.Inf(), 2: ival.FromInt(5)}
	masks := [][]bool{
		{true, true, true},
		{true, false, false},
		{false, true, false},
		{false, false, false},
		{true, false, true},
	}
	for _, alg := range []cs4.Algorithm{cs4.NonPropagation, cs4.Propagation} {
		cfg := Config{Algorithm: alg, Intervals: iv}
		for _, mask := range masks {
			for runLen := uint64(1); runLen <= 7; runLen++ {
				for first := uint64(0); first < 12; first++ {
					ref := NewEngine([]graph.EdgeID{0, 1, 2}, cfg)
					// Warm the engine with a data prefix so lastSent varies.
					for s := uint64(0); s < first; s++ {
						ref.Fire(s, []bool{true, true, true})
					}
					run := cloneEngine(ref)
					last := first + runLen - 1

					// Oracle: per-element Fire; record whether any dummy fired.
					anyDummy := false
					for s := first; s <= last; s++ {
						d := ref.Fire(s, mask)
						for _, v := range d {
							if v {
								anyDummy = true
							}
						}
					}

					anyData := false
					for _, v := range mask {
						if v {
							anyData = true
						}
					}
					dummy, ok := run.FireRun(first, last, mask)
					if anyDummy || !anyData {
						// FireRun must refuse runs the oracle dummies on,
						// and (documented) always refuses all-false masks.
						if ok {
							t.Fatalf("alg=%v mask=%v first=%d len=%d: FireRun accepted a run the oracle dummies on", alg, mask, first, runLen)
						}
						continue
					}
					if !ok {
						t.Fatalf("alg=%v mask=%v first=%d len=%d: FireRun refused a dummy-free run", alg, mask, first, runLen)
					}
					for i, v := range dummy {
						if v {
							t.Fatalf("alg=%v mask=%v first=%d len=%d: FireRun reported a dummy on edge %d", alg, mask, first, runLen, i)
						}
					}
					for i := range ref.lastSent {
						if ref.lastSent[i] != run.lastSent[i] {
							t.Fatalf("alg=%v mask=%v first=%d len=%d: lastSent[%d] = %d after FireRun, oracle has %d",
								alg, mask, first, runLen, i, run.lastSent[i], ref.lastSent[i])
						}
					}
				}
			}
		}
	}
}

// TestFireDummyRunEquivalence checks FireDummyRun against its oracle, k
// calls of Fire with an all-false mask, from random start states (a prefix
// of random masks at sparse sequence numbers) over random gaps, at
// out-degrees 0 to 4 and under both algorithms.  Under the cascade it must
// commit, leave the oracle's timers — every later firing decides the
// oracle's dummies — and count the oracle's dummies and firings; without
// it (Non-propagation, or no intervals) it must refuse and leave the
// engine bit-identical.
func TestFireDummyRunEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	mask := func(deg int) []bool {
		m := make([]bool, deg)
		for i := range m {
			m[i] = rng.Intn(3) == 0
		}
		return m
	}
	for _, alg := range []cs4.Algorithm{cs4.Propagation, cs4.NonPropagation} {
		for deg := 0; deg <= 4; deg++ {
			for trial := 0; trial < 300; trial++ {
				out := make([]graph.EdgeID, deg)
				var iv map[graph.EdgeID]ival.Interval
				if trial%10 != 0 { // one trial in ten runs with avoidance off
					iv = make(map[graph.EdgeID]ival.Interval, deg)
				}
				for i := range out {
					out[i] = graph.EdgeID(i)
					if iv != nil && rng.Intn(4) > 0 {
						iv[out[i]] = ival.FromInt(int64(1 + rng.Intn(6)))
					}
				}
				cfg := Config{Algorithm: alg, Intervals: iv}
				ref := NewEngine(out, cfg)
				seq := uint64(rng.Intn(4))
				for p := rng.Intn(10); p > 0; p-- {
					ref.Fire(seq, mask(deg))
					seq += 1 + uint64(rng.Intn(4))
				}
				run, before := cloneEngine(ref), cloneEngine(ref)
				k := 1 + rng.Intn(8)
				none := make([]bool, deg)
				var last uint64
				for j := 0; j < k; j++ {
					ref.Fire(seq, none)
					last, seq = seq, seq+1+uint64(rng.Intn(4))
				}
				label := fmt.Sprintf("%v deg %d trial %d", alg, deg, trial)
				ok := run.FireDummyRun(last, k)
				if !ref.cascade {
					if ok {
						t.Fatalf("%s: FireDummyRun committed without the cascade", label)
					}
					if !reflect.DeepEqual(run, before) {
						t.Fatalf("%s: refused FireDummyRun changed the engine: %+v, was %+v", label, run, before)
					}
					continue
				}
				if !ok {
					t.Fatalf("%s: FireDummyRun refused under the cascade", label)
				}
				rc, oc := run.Counts(), ref.Counts()
				if rc.Dummies != oc.Dummies || rc.Fires+rc.RunMsgs != oc.Fires+oc.RunMsgs || rc.Runs != before.counts.Runs+1 {
					t.Fatalf("%s: counts %+v after FireDummyRun, oracle %+v", label, rc, oc)
				}
				if !slices.Equal(run.lastSent, ref.lastSent) {
					t.Fatalf("%s: timers %v after FireDummyRun, oracle %v", label, run.lastSent, ref.lastSent)
				}
				for p := 0; p < 20; p++ {
					m := mask(deg)
					want := append([]bool(nil), ref.Fire(seq, m)...)
					if got := run.Fire(seq, m); !slices.Equal(got, want) {
						t.Fatalf("%s: seq %d mask %v: dummies %v after FireDummyRun, oracle %v", label, seq, m, got, want)
					}
					seq += 1 + uint64(rng.Intn(4))
				}
				if run.Counts().Dummies != ref.Counts().Dummies {
					t.Fatalf("%s: %d dummies after later firings, oracle %d", label, run.Counts().Dummies, ref.Counts().Dummies)
				}
			}
		}
	}
}

// TestFireRunRefusalLeavesStateIntact pins that a refused FireRun is a
// pure no-op: the caller can immediately replay the run element by element.
func TestFireRunRefusalLeavesStateIntact(t *testing.T) {
	iv := map[graph.EdgeID]ival.Interval{0: ival.FromInt(2), 1: ival.FromInt(100)}
	e := NewEngine([]graph.EdgeID{0, 1}, Config{Algorithm: cs4.NonPropagation, Intervals: iv})
	e.Fire(0, []bool{true, true})
	before := append([]int64(nil), e.lastSent...)
	// Edge 0's gap-2 timer expires inside seq 1..5 when only edge 1 emits.
	if _, ok := e.FireRun(1, 5, []bool{false, true}); ok {
		t.Fatal("FireRun accepted a run with a mid-run timer expiry")
	}
	for i := range before {
		if e.lastSent[i] != before[i] {
			t.Fatalf("refused FireRun mutated lastSent[%d]: %d -> %d", i, before[i], e.lastSent[i])
		}
	}
}

// TestEngineCounts pins the protocol-level span accounting: Fire counts
// firings (and each dummy it generates), a committed FireRun counts one
// run plus the elements it carried, and a declined FireRun counts
// nothing — its no-mutation contract extends to the counters.
func TestEngineCounts(t *testing.T) {
	iv := map[graph.EdgeID]ival.Interval{0: ival.FromInt(3)}
	e := NewEngine([]graph.EdgeID{0, 1}, Config{Algorithm: cs4.NonPropagation, Intervals: iv})
	for seq := uint64(0); seq < 10; seq++ {
		e.Fire(seq, []bool{false, true})
	}
	c := e.Counts()
	if c.Fires != 10 || c.Dummies != 3 {
		t.Fatalf("after 10 firings: Fires=%d Dummies=%d, want 10 and 3", c.Fires, c.Dummies)
	}
	if c.Runs != 0 || c.RunMsgs != 0 {
		t.Fatalf("run counters moved before any FireRun: %+v", c)
	}
	// Edge 0's timer (last refreshed at seq 8) expires inside 10..14, so
	// this run must decline — and leave every counter untouched.
	if _, ok := e.FireRun(10, 14, []bool{false, true}); ok {
		t.Fatal("FireRun committed across an expiring timer")
	}
	if c2 := e.Counts(); c2 != c {
		t.Fatalf("declined FireRun mutated counts: %+v -> %+v", c, c2)
	}
	// Data on both edges refreshes every timer: the run commits.
	if _, ok := e.FireRun(10, 14, []bool{true, true}); !ok {
		t.Fatal("FireRun declined an all-data run")
	}
	c = e.Counts()
	if c.Runs != 1 || c.RunMsgs != 5 {
		t.Fatalf("after one 5-element run: Runs=%d RunMsgs=%d, want 1 and 5", c.Runs, c.RunMsgs)
	}
}

// TestResetMatchesFresh pins Reset as the recycling contract: an engine
// left partway through its intervals and then Reset decides every firing
// of a new stream exactly as a freshly built engine does, and counts
// from zero.
func TestResetMatchesFresh(t *testing.T) {
	out := []graph.EdgeID{0, 1, 2}
	iv := map[graph.EdgeID]ival.Interval{0: ival.FromInt(3), 1: ival.FromInt(5), 2: ival.Inf()}
	for _, alg := range []cs4.Algorithm{cs4.Propagation, cs4.NonPropagation} {
		cfg := Config{Algorithm: alg, Intervals: iv}
		used := NewEngine(out, cfg)
		for seq := uint64(0); seq < 7; seq++ {
			used.Fire(seq, []bool{seq%4 == 0, false, seq%2 == 0})
		}
		used.FireRun(7, 9, []bool{true, true, true})
		used.Reset()
		fresh := NewEngine(out, cfg)
		if used.Counts() != fresh.Counts() {
			t.Fatalf("%v: Reset left counts %+v", alg, used.Counts())
		}
		for seq := uint64(0); seq < 40; seq++ {
			em := []bool{seq%7 == 0, seq%3 == 0, false}
			got := append([]bool(nil), used.Fire(seq, em)...)
			want := fresh.Fire(seq, em)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v: seq %d edge %d: reset engine sends dummy=%v, fresh %v", alg, seq, i, got[i], want[i])
				}
			}
		}
		if used.Counts() != fresh.Counts() {
			t.Fatalf("%v: counts %+v after Reset, fresh %+v", alg, used.Counts(), fresh.Counts())
		}
	}
}
