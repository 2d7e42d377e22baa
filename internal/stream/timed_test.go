package stream

// Tests of the time-aware node's run-form ingest (timed.go), driven by
// hand on one node of a closed engine the way the layer microbenchmarks
// are: the test's goroutine is the node loop, so what the node reads,
// calls and credits is exact.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"streamdag/internal/clock"
	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/workload"
)

// stubTimed is a TimedKernel that swallows its input and records how it
// arrived.  Its Process reads the clock as the stage library's one-element
// adapter does, so an engine that fell back to it would show in the read
// count.
type stubTimed struct {
	clk   clock.Clock
	keep  bool     // record calls (tests; the benchmarks only count)
	calls []string // "ingest<seqs>" per run, "flush"
	n     int      // elements ingested
}

func (k *stubTimed) Process(seq uint64, in []Input) map[int]any {
	k.Ingest(k.clk.Now(), []uint64{seq}, []any{in[0].Payload})
	return nil
}

func (k *stubTimed) Ingest(_ time.Time, seqs []uint64, payloads []any) {
	if len(seqs) != len(payloads) {
		panic("stubTimed: run halves differ in length")
	}
	if k.keep {
		k.calls = append(k.calls, fmt.Sprint("ingest", seqs))
	}
	k.n += len(payloads)
}

func (k *stubTimed) TimedClock() clock.Clock { return k.clk }
func (k *stubTimed) Tick(time.Time)          {}
func (k *stubTimed) TakeEmissions() []any    { return nil }

func (k *stubTimed) Flush() {
	if k.keep {
		k.calls = append(k.calls, "flush")
	}
}

// NextDeadline keeps one deadline pending once anything arrived, as an
// open window does, so the node keeps its flush timer armed.
func (k *stubTimed) NextDeadline() (time.Time, bool) {
	return clock.Epoch.Add(time.Hour), k.n > 0
}

// countingClock counts the readings taken of a fake clock and the times a
// timer was armed on it (AfterFunc or Reset).
type countingClock struct {
	*clock.Fake
	reads, arms atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.Fake.Now()
}

func (c *countingClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	c.arms.Add(1)
	return countingTimer{c.Fake.AfterFunc(d, f), &c.arms}
}

type countingTimer struct {
	clock.Timer
	arms *atomic.Int64
}

func (t countingTimer) Reset(d time.Duration) bool {
	t.arms.Add(1)
	return t.Timer.Reset(d)
}

// newTimedBench puts k in the middle of a 3-node chain and returns the
// hand-driven node.
func newTimedBench(b testing.TB, k *stubTimed) *firingBench {
	g := workload.Pipeline(3, 4)
	mid := g.MustNode("s1")
	return newFiringBench(b, g, mid, map[graph.NodeID]Kernel{mid: k}, Config{})
}

// TestTimedIngestReadsClockPerRun pins the run contract's cost: a
// time-aware node fed runs of 64 reads the clock once per run it picks up
// (plus armTimer's reading when the deadline moves), not once per element.
func TestTimedIngestReadsClockPerRun(t *testing.T) {
	const n, width = 64000, 64
	clk := &countingClock{Fake: clock.NewFake()}
	k := &stubTimed{clk: clk}
	f := newTimedBench(t, k)
	run := make([]Message, width)
	for i := 0; i < n; i += width {
		for j := range run {
			run[j] = Message{Seq: uint64(i + j), Kind: Data, Payload: j}
		}
		pushIn(f.n, f.ns, 0, run...)
		f.n.advance(f.ns)
	}
	if k.n != n {
		t.Fatalf("kernel ingested %d elements, want %d", k.n, n)
	}
	if reads := clk.reads.Load(); reads > n/16 {
		t.Errorf("%d inputs in runs of %d read the clock %d times; want at most %d (one per run and one per advance)",
			n, width, reads, n/16)
	}
}

// TestTimedTimerArmedOncePerDeadline: runs landing inside one open window
// leave its deadline where it was, so the flush timer is armed once and
// each run reads the clock once (its ingest); a delivered tick disarms
// it, and the next run arms it again.
func TestTimedTimerArmedOncePerDeadline(t *testing.T) {
	const runs, width = 100, 64
	clk := &countingClock{Fake: clock.NewFake()}
	k := &stubTimed{clk: clk}
	f := newTimedBench(t, k)
	run := make([]Message, width)
	seq := 0
	feed := func() {
		for j := range run {
			run[j] = Message{Seq: uint64(seq), Kind: Data, Payload: j}
			seq++
		}
		pushIn(f.n, f.ns, 0, run...)
		f.n.advance(f.ns)
	}
	for i := 0; i < runs; i++ {
		feed()
	}
	if arms, reads := clk.arms.Load(), clk.reads.Load(); arms != 1 || reads != runs+1 {
		t.Errorf("%d runs in one window armed the timer %d times and read the clock %d times; want 1 and %d",
			runs, arms, reads, runs+1)
	}
	f.n.absorb(&event{kind: evTick, ses: f.ns.ses})
	f.n.advance(f.ns)
	feed()
	if arms := clk.arms.Load(); arms != 2 {
		t.Errorf("after a delivered tick the timer was armed %d times in all; want 2", arms)
	}
}

// TestTimedIngestSplitsRunsAtDummies pins what a mixed run becomes: the
// data stretches reach the kernel whole and in order, a dummy only ends a
// stretch, EOS is the Flush, and every head consumed — whatever its kind —
// is counted in the in-edge's consumed line in the advance's one store,
// with no event upstream: the producer has no send parked.
func TestTimedIngestSplitsRunsAtDummies(t *testing.T) {
	k := &stubTimed{clk: clock.NewFake(), keep: true}
	f := newTimedBench(t, k)
	up := f.n.upNode[0].mb
	up.closed = false
	pushIn(f.n, f.ns, 0,
		Message{Seq: 0, Kind: Data, Payload: "a"},
		Message{Seq: 1, Kind: Dummy},
		Message{Seq: 2, Kind: Data, Payload: "b"},
		Message{Seq: 3, Kind: Data, Payload: "c"},
		Message{Seq: proto.EOSSeq, Kind: EOS},
	)
	f.n.advance(f.ns)
	if got, want := fmt.Sprint(k.calls), "[ingest[0] ingest[2 3] flush]"; got != want {
		t.Errorf("kernel saw %s, want %s", got, want)
	}
	if got := f.ns.ses.edges[f.n.in[0]].consumed.Load(); got != 5 || len(up.q) != 0 {
		t.Errorf("consumed = %d and upstream got %+v; want 5 heads consumed and no event", got, up.q)
	}
	if !f.ns.done {
		t.Error("EOS did not end the stream at the node")
	}
}
