package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The harness records spans around its own calls into the system under
// test (build, engine_start, open, source.next, kernel.<node>,
// sink.emit, wait, close); spans inside the engine are a later change.
// Spans live in a buffer allocated before the traced run and are written
// out when the command ends.

// span is one timed interval.  Start and End are nanoseconds since the
// tracer's origin; Parent is the index of the causing span (-1 at the
// root); Session ties the spans of one logical stream together.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Session uint64 `json:"session,omitempty"`
}

const (
	traceCap = 1 << 17 // spans kept per traced run; later ones are counted, not stored
	// sampledCap is the part of the buffer the sampled per-call sites may
	// fill; the rest stays free for the lifecycle spans (build, open,
	// wait, close), which are few and must not be crowded out.
	sampledCap = 1 << 16
)

type tracer struct {
	t0      time.Time
	clockNs int64 // what timing a call adds to it: one pair of clock reads
	mu      sync.Mutex
	spans   []span
	sampled int
	dropped int
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, traceCap)}
	pairs := make([]float64, 101)
	for i := range pairs {
		a := t.now()
		pairs[i] = float64(t.now() - a)
	}
	t.clockNs = int64(median(pairs))
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index, or -1 when the buffer is
// full (end then ignores it).
func (t *tracer) begin(name string, parent int32, session uint64) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: start, Parent: parent, Session: session})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add stores an already-timed span (the sampled per-call sites).
func (t *tracer) add(name string, start, end int64, parent int32, session uint64) {
	t.mu.Lock()
	if t.sampled == sampledCap {
		t.dropped++
	} else {
		t.sampled++
		t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Session: session})
	}
	t.mu.Unlock()
}

// duration of the first span with the given name, in nanoseconds.
func (t *tracer) duration(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			return s.End - s.Start
		}
	}
	return 0
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover.  Children may overlap each other
// (source, kernels and sink run concurrently), so the covered part is
// the length of the union of the children's intervals clipped to the
// parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered, curStart, curEnd int64
		open := false
		for _, k := range kids {
			cs, ce := spans[k].Start, spans[k].End
			if cs < s.Start {
				cs = s.Start
			}
			if ce > s.End {
				ce = s.End
			}
			if ce <= cs {
				continue
			}
			switch {
			case !open:
				curStart, curEnd, open = cs, ce, true
			case cs <= curEnd:
				if ce > curEnd {
					curEnd = ce
				}
			default:
				covered += curEnd - curStart
				curStart, curEnd = cs, ce
			}
		}
		if open {
			covered += curEnd - curStart
		}
		self[i] -= covered
	}
	return self
}

// selfByName sums self time over the spans sharing a name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

type traceFile struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Dropped  int              `json:"dropped_spans"`
	SelfNs   map[string]int64 `json:"self_ns_by_name"`
	Spans    []span           `json:"spans"`
}

// write stores the trace under dir as trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Dropped: t.dropped,
		SelfNs: selfByName(t.spans), Spans: t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// probeEvery is the sampling period of the per-call sites: one call in
// probeEvery is timed and stored as a span, every call is counted.  Timing
// each call would cost two clock reads per message per site, several
// times the engine's own per-message cost at batch 64.
const probeEvery = 64

// probe is one per-call site of the traced run (a source, a sink, one
// kernel).  Counts are exact; time is the sampled time scaled by the
// sampling period.  Sites are hit from whichever goroutine the engine
// runs the callback on, hence the atomics.
type probe struct {
	name      string
	tr        *tracer
	calls     atomic.Int64
	elems     atomic.Int64
	sampledNs atomic.Int64
	sampled   atomic.Int64
	// lastExit is the end of the previous sampled call, used for the gap
	// between one call returning and the next one starting.
	lastExit atomic.Int64
	gapNs    atomic.Int64
	gaps     atomic.Int64
}

func newProbe(name string, tr *tracer) *probe { return &probe{name: name, tr: tr} }

// site ties a probe to the span and the session its calls belong to.  The
// zero site, which every untraced run uses, does nothing.
type site struct {
	pr      *probe
	parent  int32
	session uint64
}

func (s site) enter(n int) int64 {
	if s.pr == nil {
		return 0
	}
	return s.pr.enter(n)
}

func (s site) exit(start int64) {
	if s.pr != nil {
		s.pr.exit(start, s.parent, s.session)
	}
}

// enter counts a call carrying n elements and reports whether this call
// is a timed one; the caller passes the result to exit.
func (p *probe) enter(n int) (start int64) {
	c := p.calls.Add(1)
	p.elems.Add(int64(n))
	switch c % probeEvery {
	case 0:
		return p.tr.now()
	case 1:
		// The call after a timed one closes the pull gap.
		if last := p.lastExit.Swap(0); last != 0 {
			p.gapNs.Add(p.tr.now() - last)
			p.gaps.Add(1)
		}
	}
	return 0
}

func (p *probe) exit(start int64, parent int32, session uint64) {
	if start == 0 {
		return
	}
	end := p.tr.now()
	// The clock reads are not the site's time: without this a 2 ns stage
	// function would read as one clock pair per call.
	if d := end - start - p.tr.clockNs; d > 0 {
		p.sampledNs.Add(d)
	}
	p.sampled.Add(1)
	p.lastExit.Store(end)
	p.tr.add(p.name, start, end, parent, session)
}

// busyNs estimates the total time spent inside the site.
func (p *probe) busyNs() float64 {
	n := p.sampled.Load()
	if n == 0 {
		return 0
	}
	return float64(p.sampledNs.Load()) / float64(n) * float64(p.calls.Load())
}

func (p *probe) meanGapNs() float64 {
	n := p.gaps.Load()
	if n == 0 {
		return 0
	}
	return float64(p.gapNs.Load()) / float64(n)
}

func (p *probe) elemsPerCall() float64 {
	c := p.calls.Load()
	if c == 0 {
		return 0
	}
	return float64(p.elems.Load()) / float64(c)
}
