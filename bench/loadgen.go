package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"streamdag"
)

// The load generator: sources that make every payload from (seed, index)
// so the sink can recompute what must arrive, a pacer for the open-loop
// phase, and sinks that check order and payload on every emission.

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// payloadAt is the payload of the message with global index i.
func payloadAt(seed, i uint64) uint64 { return splitmix64(seed*0x632be59bd9b4e019 ^ i) }

// The three stage kernels of the chain workloads: a few arithmetic ops
// each, so the engine's per-message cost dominates, not user code.
func stageA(v uint64) uint64 { return v ^ v<<13 }
func stageB(v uint64) uint64 { return v*0x9e3779b97f4a7c15 + 1 }
func stageC(v uint64) uint64 { return v ^ v>>7 }

func chainExpect(v uint64) uint64 { return stageC(stageB(stageA(v))) }
func identity(v uint64) uint64    { return v }

// sleepGrain is the coarsest wake-up error time.Sleep showed on the
// development box (a 20 µs sleep returns after ≈1.1 ms), so the pacer
// sleeps only when the wait is longer and yields the remainder.
const sleepGrain = 1500 * time.Microsecond

// pacer releases message i at t0 + i/rate.  A nil pacer never waits: the
// closed loop, where the source answers at once.
type pacer struct {
	t0       time.Time
	periodNs float64
}

func (p *pacer) due(i uint64) int64 { return int64(float64(i) * p.periodNs) }

// wait blocks until due (ns since t0) and returns the release time.
func (p *pacer) wait(ctx context.Context, due int64) (int64, error) {
	for {
		now := int64(time.Since(p.t0))
		if now >= due {
			return now, nil
		}
		if rest := time.Duration(due - now); rest > sleepGrain+sleepGrain/2 {
			select {
			case <-ctx.Done():
				return now, ctx.Err()
			case <-time.After(rest - sleepGrain):
			}
			continue
		}
		// A pure spin was probed and made the median latency unstable on
		// two cores; yielding lets the engine's goroutines run.
		runtime.Gosched()
	}
}

// latRecord holds one open-loop repetition's per-message times, all in
// nanoseconds since the pacer's origin.  Allocated before the rep starts.
type latRecord struct {
	p       *pacer
	release []int64 // when the generator handed message i to the engine
	emit    []int64 // when the sink saw it (0 = never)
	due     []int64 // when it was due; nil means pacer.due(i)
	rate    float64
}

func newLatRecord(n int, rate float64) *latRecord {
	return &latRecord{
		p:       &pacer{periodNs: 1e9 / rate},
		release: make([]int64, n),
		emit:    make([]int64, n),
		rate:    rate,
	}
}

func (l *latRecord) dueAt(i int) int64 {
	if l.due != nil {
		return l.due[i]
	}
	return l.p.due(uint64(i))
}

// latStats is what one open-loop repetition reports.
type latStats struct {
	samples                  int
	p50us, p99us             float64
	lateP50us, lateP99us     float64
	backlogMax, backlogSlope float64
}

// stats reduces the record: latency is emit − due (so a stalled generator
// or engine charges the wait to every message behind it), lateness is
// release − due, backlog is released − emitted (of the messages that reach
// the sink) sampled at 100 instants.
func (l *latRecord) stats() latStats {
	var lat, late []float64
	var emits, rels []int64
	for i := range l.emit {
		if l.release[i] != 0 {
			late = append(late, float64(l.release[i]-l.dueAt(i))/1e3)
		}
		// Messages the topology filters never reach the sink; only those
		// that do can be in flight towards it.
		if l.emit[i] != 0 {
			lat = append(lat, float64(l.emit[i]-l.dueAt(i))/1e3)
			emits = append(emits, l.emit[i])
			rels = append(rels, l.release[i])
		}
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	sort.Slice(emits, func(a, b int) bool { return emits[a] < emits[b] })
	sort.Slice(rels, func(a, b int) bool { return rels[a] < rels[b] })
	st := latStats{
		samples: len(lat),
		p50us:   percentile(lat, 50), p99us: percentile(lat, 99),
		lateP50us: percentile(late, 50), lateP99us: percentile(late, 99),
	}
	if len(rels) == 0 {
		return st
	}
	// Backlog over the generating interval only: after the last release it
	// can only fall.
	end := rels[len(rels)-1]
	var xs, ys []float64
	for k := 1; k <= 100; k++ {
		t := end * int64(k) / 100
		released := sort.Search(len(rels), func(i int) bool { return rels[i] > t })
		emitted := sort.Search(len(emits), func(i int) bool { return emits[i] > t })
		b := float64(released - emitted)
		if b > st.backlogMax {
			st.backlogMax = b
		}
		xs = append(xs, float64(t)/1e9)
		ys = append(ys, b)
	}
	// Messages per second of growth, as a share of the offered rate.
	st.backlogSlope = slope(xs, ys) / l.rate
	return st
}

// seqSource yields the payloads of global indices base..base+n−1, one per
// Next.  With a latRecord it is the open-loop generator.
type seqSource struct {
	seed, base, n, next uint64
	lat                 *latRecord
	site                site          // traced run only
	eofAt               *atomic.Int64 // traced run: when the source reported end of stream
}

func (s *seqSource) atEOF() {
	if s.eofAt != nil {
		s.eofAt.Store(s.site.pr.tr.now())
	}
}

func (s *seqSource) Next(ctx context.Context) (any, bool, error) {
	start := s.site.enter(1)
	if s.next >= s.n {
		s.atEOF()
		return nil, false, nil
	}
	i := s.base + s.next
	if s.lat != nil {
		rel, err := s.lat.p.wait(ctx, s.lat.dueAt(int(i)))
		if err != nil {
			return nil, false, err
		}
		s.lat.release[i] = rel
	}
	s.next++
	v := payloadAt(s.seed, i)
	s.site.exit(start)
	return v, true, nil
}

// spanSeqSource adds bulk ingestion: a fill takes every message already
// due (at least one), so the realized span length follows the offered
// rate in the open loop and the grant window in the closed loop.
type spanSeqSource struct{ seqSource }

func (s *spanSeqSource) NextSpan(ctx context.Context, buf []any) (int, bool, error) {
	start := s.site.enter(0)
	var rel int64
	if s.lat != nil && s.next < s.n {
		// Wait for the first message; the rest of the fill is whatever is
		// due by then.
		var err error
		if rel, err = s.lat.p.wait(ctx, s.lat.dueAt(int(s.base+s.next))); err != nil {
			return 0, false, err
		}
	}
	k := 0
	for ; k < len(buf) && s.next < s.n; k++ {
		i := s.base + s.next
		if s.lat != nil {
			if s.lat.dueAt(int(i)) > rel {
				break
			}
			s.lat.release[i] = rel
		}
		buf[k] = payloadAt(s.seed, i)
		s.next++
	}
	eof := s.next >= s.n
	if s.site.pr != nil {
		s.site.pr.elems.Add(int64(k))
	}
	s.site.exit(start)
	if eof {
		s.atEOF()
	}
	return k, eof, nil
}

// checkSink verifies every emission as it arrives: strictly increasing
// sequence numbers and the payload the workload's kernels must have
// produced from payloadAt(seed, base+seq).  Which sequence numbers must
// arrive is settled afterwards by verify.
type checkSink struct {
	seed, base uint64
	expect     func(uint64) uint64
	lat        *latRecord
	site       site

	count      int64
	seqSum     uint64
	prev       int64 // last sequence number seen, −1 before the first
	outOfOrder int64
	wrong      int64
	broken     bool // test hook: miscount one emission
}

func newCheckSink(seed, base uint64, expect func(uint64) uint64) *checkSink {
	return &checkSink{seed: seed, base: base, expect: expect, prev: -1}
}

func (c *checkSink) one(seq uint64, payload any, now int64) {
	if int64(seq) <= c.prev {
		c.outOfOrder++
	}
	c.prev = int64(seq)
	if v, ok := payload.(uint64); !ok || v != c.expect(payloadAt(c.seed, c.base+seq)) {
		c.wrong++
	}
	c.count++
	c.seqSum += seq
	if c.lat != nil {
		c.lat.emit[c.base+seq] = now
	}
}

// now is the emission time the open loop records; 0 in the closed loop.
func (c *checkSink) now() int64 {
	if c.lat == nil {
		return 0
	}
	return int64(time.Since(c.lat.p.t0))
}

func (c *checkSink) Emit(_ context.Context, seq uint64, payload any) error {
	start := c.site.enter(1)
	c.one(seq, payload, c.now())
	c.site.exit(start)
	return nil
}

// spanCheckSink adds bulk delivery.
type spanCheckSink struct{ *checkSink }

func (c spanCheckSink) EmitSpan(_ context.Context, seqs []uint64, pays []any) error {
	start := c.site.enter(len(seqs))
	now := c.now()
	for i, seq := range seqs {
		c.one(seq, pays[i], now)
	}
	c.site.exit(start)
	return nil
}

// verify compares what arrived with what the oracle says must arrive:
// wantCount emissions whose sequence numbers sum to wantSeqSum.  It
// returns the number of failed operations and a description of the first
// kind of failure.
func (c *checkSink) verify(wantCount int64, wantSeqSum uint64) (failed int64, why string) {
	count := c.count
	if c.broken {
		count--
	}
	if d := wantCount - count; d != 0 {
		if d < 0 {
			d = -d
			why = fmt.Sprintf("%d duplicate or spurious emissions", d)
		} else {
			why = fmt.Sprintf("%d emissions missing", d)
		}
		failed += d
	} else if c.seqSum != wantSeqSum {
		failed++
		why = "emitted sequence numbers differ from the oracle's"
	}
	if c.outOfOrder > 0 {
		failed += c.outOfOrder
		why = fmt.Sprintf("%d emissions out of order", c.outOfOrder)
	}
	if c.wrong > 0 {
		failed += c.wrong
		why = fmt.Sprintf("%d emissions with the wrong payload", c.wrong)
	}
	if failed > wantCount {
		failed = wantCount
	}
	return failed, why
}

// winSummary is what window_tumble's last stage makes of a window: enough
// for the sink to check that window contents concatenate to the input,
// in order, without shipping the items themselves.
type winSummary struct {
	End   time.Time
	Count int
	Hash  uint64
}

func orderHash(h, v uint64) uint64 { return h*0x100000001b3 ^ v }

func summarizeWindow(w streamdag.Window[uint64]) winSummary {
	s := winSummary{End: w.End, Count: len(w.Items)}
	for _, v := range w.Items {
		s.Hash = orderHash(s.Hash, v)
	}
	return s
}

// windowSink stores each window's summary and its flush lateness (sink
// time − Window.End, which leaves the window length out); verify replays
// the input against the summaries after the run.
type windowSink struct {
	seed   uint64
	wins   []winSummary
	lateUs []float64
	lat    *latRecord // open loop: every item of a window is emitted when the window is
	next   int
	site   site
	broken bool
}

func (w *windowSink) Emit(_ context.Context, _ uint64, payload any) error {
	start := w.site.enter(1)
	if s, ok := payload.(winSummary); ok {
		w.wins = append(w.wins, s)
		w.lateUs = append(w.lateUs, float64(time.Since(s.End))/1e3)
		if w.lat != nil {
			now := int64(time.Since(w.lat.p.t0))
			for i := w.next; i < w.next+s.Count && i < len(w.lat.emit); i++ {
				w.lat.emit[i] = now
			}
		}
		w.next += s.Count
	} else {
		w.wins = append(w.wins, winSummary{Count: -1})
	}
	w.site.exit(start)
	return nil
}

// verify checks that the windows partition inputs 0..n−1 in order.  One
// operation per input: an input is failed when it is missing, duplicated
// or sits in a window whose content hash is wrong.
func (w *windowSink) verify(n uint64) (failed int64, why string) {
	next := uint64(0)
	for _, s := range w.wins {
		if s.Count <= 0 {
			failed++
			why = "window with no items or the wrong payload type"
			continue
		}
		var h uint64
		for i := 0; i < s.Count; i++ {
			h = orderHash(h, stageA(payloadAt(w.seed, next+uint64(i))))
		}
		if h != s.Hash {
			failed += int64(s.Count)
			why = "window contents differ from the input in order"
		}
		next += uint64(s.Count)
	}
	if w.broken {
		next--
	}
	if next != n {
		d := int64(n) - int64(next)
		if d < 0 {
			d = -d
		}
		failed += d
		why = fmt.Sprintf("windows hold %d items, the input has %d", next, n)
	}
	if failed > int64(n) {
		failed = int64(n)
	}
	return failed, why
}
