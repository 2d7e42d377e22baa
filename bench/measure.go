package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"streamdag"
)

// instance is one workload built once with its engine resident, the way
// a service embedding streamdag holds it.
type instance struct {
	w    *spec
	seed uint64
	pipe *streamdag.Pipeline
	eng  *streamdag.Engine
	env  *buildEnv

	// Harness probes of the traced run; nil otherwise.
	srcProbe, sinkProbe *probe
	root                int32

	brokenSink bool // copied from breakSinks at start

	mu       sync.Mutex          // the openers of a churn repetition settle concurrently
	expected map[int]expectation // spec.traffic by session length
}

// breakSinks is the test hook behind the "a broken sink fails the run"
// test: every sink started while it is set miscounts by one emission.
var breakSinks bool

// start builds the workload and brings its engine up, under build and
// engine_start spans when env carries a tracer.
func start(w *spec, env *buildEnv) (*instance, error) {
	in := &instance{w: w, seed: env.seed, env: env, root: -1, brokenSink: breakSinks, expected: make(map[int]expectation)}
	var sb, se int32 = -1, -1
	if env.tr != nil {
		in.root = env.tr.begin("run", -1, 0)
		env.root = in.root
		in.srcProbe = newProbe("source.next", env.tr)
		in.sinkProbe = newProbe("sink.emit", env.tr)
		sb = env.tr.begin("build", in.root, 0)
	}
	pipe, err := w.build(env)
	if env.tr != nil {
		env.tr.end(sb)
		se = env.tr.begin("engine_start", in.root, 0)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	eng, err := pipe.Engine()
	if env.tr != nil {
		env.tr.end(se)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: engine: %w", w.name, err)
	}
	in.pipe, in.eng = pipe, eng
	return in, nil
}

func (in *instance) close() error {
	var sc int32 = -1
	if in.env.tr != nil {
		sc = in.env.tr.begin("close", in.root, 0)
	}
	err := in.eng.Close()
	if in.env.tr != nil {
		in.env.tr.end(sc)
		in.env.tr.end(in.root)
	}
	return err
}

// repResult is one repetition: n inputs streamed through the resident
// engine and checked.
type repResult struct {
	inputs   int
	sessions int
	elapsed  time.Duration
	cpu, sys time.Duration
	mallocs  uint64

	data, dummies int64 // summed over edges (and sessions)
	sinkCount     int64

	attempted, failed int64
	why               string // first failure, for the report

	lat     *latStats // open loop only
	winLate []float64 // window_tumble: flush lateness per window, µs
	openNs  []float64 // traced run: duration of each Open call
	tailNs  []float64 // traced run: source EOF → Wait returned, per session
}

func (r *repResult) fail(n int64, why string) {
	if n <= 0 {
		return
	}
	r.failed += n
	if r.why == "" {
		r.why = why
	}
}

func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// session is the harness side of one logical stream.
type session struct {
	base, n int
	src     streamdag.Source
	check   *checkSink
	win     *windowSink
	sink    streamdag.Sink
	eofAt   atomic.Int64
}

// newSession makes the source and the checking sink for inputs
// base..base+n−1; lat is non-nil in the open loop.
func (in *instance) newSession(base, n int, lat *latRecord, id uint64) *session {
	s := &session{base: base, n: n}
	core := seqSource{seed: in.seed, base: uint64(base), n: uint64(n), lat: lat}
	sinkSite := site{}
	if in.srcProbe != nil {
		core.site, core.eofAt = site{in.srcProbe, in.root, id}, &s.eofAt
		sinkSite = site{in.sinkProbe, in.root, id}
	}
	if in.w.spanIO {
		s.src = &spanSeqSource{core}
	} else {
		s.src = &core
	}
	if in.w.window {
		s.win = &windowSink{seed: in.seed, lat: lat, site: sinkSite, broken: in.brokenSink}
		s.sink = s.win
		return s
	}
	s.check = newCheckSink(in.seed, uint64(base), in.w.expect)
	s.check.lat, s.check.site, s.check.broken = lat, sinkSite, in.brokenSink
	if in.w.spanIO {
		s.sink = spanCheckSink{s.check}
	} else {
		s.sink = s.check
	}
	return s
}

// settle adds one finished session to the repetition: one operation for
// the session itself and one per message the oracle says the sink must
// receive.
func (in *instance) settle(r *repResult, s *session, stats *streamdag.RunStats, err error) {
	r.sessions++
	r.attempted++
	if err != nil {
		r.fail(1, "session: "+err.Error())
	}
	in.mu.Lock()
	want, ok := in.expected[s.n]
	if !ok {
		want = in.w.traffic(in.seed, s.n)
		in.expected[s.n] = want
	}
	in.mu.Unlock()
	r.attempted += want.sinkOps
	if err != nil {
		r.fail(want.sinkOps, "")
		return
	}
	if s.win != nil {
		failed, why := s.win.verify(uint64(s.n))
		r.fail(failed, why)
		r.winLate = append(r.winLate, s.win.lateUs...)
		// On top of the inputs, two edges carry one message per window.
		want.data += int64(2 * len(s.win.wins))
		r.sinkCount += int64(len(s.win.wins))
	} else {
		failed, why := s.check.verify(want.sinkOps, want.seqSum)
		r.fail(failed, why)
		r.sinkCount += s.check.count
	}
	var data, dummies int64
	for _, v := range stats.Data {
		data += v
	}
	for _, v := range stats.Dummies {
		dummies += v
	}
	r.data += data
	r.dummies += dummies
	if data != want.data {
		r.fail(1, fmt.Sprintf("edges carried %d data messages, the oracle says %d", data, want.data))
	}
	if !want.dummies && dummies != 0 {
		r.fail(1, fmt.Sprintf("%d dummy messages on a topology that needs none", dummies))
	}
}

// openSession opens s on the engine, under an open span in the traced run.
func (in *instance) openSession(r *repResult, s *session, id uint64) (*streamdag.Session, error) {
	if in.env.tr == nil {
		return in.eng.Open(context.Background(), s.src, s.sink)
	}
	so := in.env.tr.begin("open", in.root, id)
	t := time.Now()
	ses, err := in.eng.Open(context.Background(), s.src, s.sink)
	d := time.Since(t)
	in.env.tr.end(so)
	r.openNs = append(r.openNs, float64(d))
	return ses, err
}

// waitSession waits for ses, under a wait span in the traced run, and
// records the drain tail: last source EOF → Wait returned.
func (in *instance) waitSession(r *repResult, s *session, ses *streamdag.Session, id uint64) (*streamdag.RunStats, error) {
	if in.env.tr == nil {
		return ses.Wait()
	}
	sw := in.env.tr.begin("wait", in.root, id)
	stats, err := ses.Wait()
	in.env.tr.end(sw)
	if eof := s.eofAt.Load(); eof != 0 {
		r.tailNs = append(r.tailNs, float64(in.env.tr.now()-eof))
	}
	return stats, err
}

// serve streams one session to completion and settles it.
func (in *instance) serve(r *repResult, s *session, id uint64) {
	ses, err := in.openSession(r, s, id)
	var stats *streamdag.RunStats
	if err == nil {
		stats, err = in.waitSession(r, s, ses, id)
	}
	in.settle(r, s, stats, err)
}

// closedRep streams n inputs as fast as the engine pulls them: one
// session, or ceil(n/sessionLen) sessions opened by min(nproc, 4)
// openers that each Open → Wait → next.
func (in *instance) closedRep(n int) *repResult {
	return in.measured(n, func(r *repResult) {
		if in.w.sessionLen == 0 {
			in.serve(r, in.newSession(0, n, nil, 1), 1)
			return
		}
		sessions := (n + in.w.sessionLen - 1) / in.w.sessionLen
		openers := runtime.NumCPU()
		if openers > 4 {
			openers = 4
		}
		var next atomic.Int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		for o := 0; o < openers; o++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				local := &repResult{}
				for {
					k := int(next.Add(1)) - 1
					if k >= sessions {
						break
					}
					id := uint64(k + 1)
					in.serve(local, in.newSession(k*in.w.sessionLen, in.w.sessionLen, nil, id), id)
				}
				mu.Lock()
				r.merge(local)
				mu.Unlock()
			}()
		}
		wg.Wait()
	})
}

func (r *repResult) merge(o *repResult) {
	r.sessions += o.sessions
	r.data += o.data
	r.dummies += o.dummies
	r.sinkCount += o.sinkCount
	r.attempted += o.attempted
	r.fail(o.failed, o.why)
	r.openNs = append(r.openNs, o.openNs...)
	r.tailNs = append(r.tailNs, o.tailNs...)
}

// openRep offers n inputs on a fixed schedule regardless of how the
// engine keeps up: message i is due at t0 + i/rate, and latency is taken
// from the due time.  With sessions, session k opens when its first
// message is due and all its messages are due then.
func (in *instance) openRep(n int) *repResult {
	lat := newLatRecord(n, in.w.rate)
	r := in.measured(n, func(r *repResult) {
		lat.p.t0 = time.Now()
		if in.w.sessionLen == 0 {
			in.serve(r, in.newSession(0, n, lat, 1), 1)
		} else {
			in.openSessionsOnSchedule(r, n, lat)
		}
	})
	st := lat.stats()
	r.lat = &st
	return r
}

// openSessionsOnSchedule opens session k when its messages fall due,
// whether or not earlier sessions have drained, and waits for all of them
// at the end.
func (in *instance) openSessionsOnSchedule(r *repResult, n int, lat *latRecord) {
	L := in.w.sessionLen
	sessions := n / L
	lat.due = make([]int64, n)
	for i := range lat.due {
		lat.due[i] = lat.p.due(uint64(i / L * L))
	}
	type opened struct {
		s   *session
		ses *streamdag.Session
		err error
	}
	open := make([]opened, 0, sessions)
	ctx := context.Background()
	for k := 0; k < sessions; k++ {
		id := uint64(k + 1)
		s := in.newSession(k*L, L, lat, id)
		if _, err := lat.p.wait(ctx, lat.due[k*L]); err != nil {
			break
		}
		ses, err := in.openSession(r, s, id)
		open = append(open, opened{s, ses, err})
	}
	for k, o := range open {
		var stats *streamdag.RunStats
		err := o.err
		if err == nil {
			stats, err = in.waitSession(r, o.s, o.ses, uint64(k+1))
		}
		in.settle(r, o.s, stats, err)
	}
}

// measured runs body between two readings of the clock, the process CPU
// time and the allocator's malloc count.  The collector runs first so a
// repetition starts from the same heap.
func (in *instance) measured(n int, body func(r *repResult)) *repResult {
	r := &repResult{inputs: n}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0, s0 := cpuTimes()
	t0 := time.Now()
	body(r)
	r.elapsed = time.Since(t0)
	u1, s1 := cpuTimes()
	runtime.ReadMemStats(&m1)
	r.cpu = (u1 - u0) + (s1 - s0)
	r.sys = s1 - s0
	r.mallocs = m1.Mallocs - m0.Mallocs
	return r
}

// setupCycle is one cold cycle: build, start the engine, stream one
// message through a session, close.
func setupCycle(w *spec, seed uint64) (time.Duration, error) {
	t0 := time.Now()
	in, err := start(w, &buildEnv{seed: seed})
	if err != nil {
		return 0, err
	}
	r := &repResult{}
	s := in.newSession(0, 1, nil, 1)
	ses, err := in.eng.Open(context.Background(), s.src, s.sink)
	if err == nil {
		var stats *streamdag.RunStats
		stats, err = ses.Wait()
		in.settle(r, s, stats, err)
	}
	cerr := in.close()
	d := time.Since(t0)
	if err == nil {
		err = cerr
	}
	if err == nil && r.failed > 0 {
		err = fmt.Errorf("%s: set-up cycle: %s", w.name, r.why)
	}
	return d, err
}
