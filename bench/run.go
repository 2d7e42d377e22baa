package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"streamdag"
)

// plan is how many times a run repeats each measurement.  Many short
// repetitions, not few long ones: on a shared two-core box interference
// comes and goes within seconds, and the more repetitions a run has the
// likelier one of them meets the machine undisturbed (summarizeBest).
type plan struct {
	closedReps int // closed-loop repetitions (throughput, CPU, allocations, traffic)
	// setupGroup set-up cycles run before every repetition, warm-up
	// included, so they sample the whole run and not one moment of the
	// machine.
	setupGroup  int
	tracedReps  int // traced run: repetitions of each kind (untraced, Observer only, traced)
	loadgenReps int // traced run: open-loop repetitions behind the loadgen.* metrics
}

var defaultPlan = plan{closedReps: 39, setupGroup: 9, tracedReps: 3, loadgenReps: 9}

// phase reports how long a part of a run took on standard error, so a
// run that outgrows its time budget shows where.
func phase(w *spec, name string, since time.Time) {
	fmt.Fprintf(os.Stderr, "bench: %s: %s %.2fs\n", w.name, name, time.Since(since).Seconds())
}

// sized scales a count frozen for baseSeconds to the requested run length,
// in whole sessions.
func sized(w *spec, base int, seconds float64) int {
	n := int(float64(base) * seconds / baseSeconds)
	if w.sessionLen > 0 {
		n = n / w.sessionLen * w.sessionLen
		if n < w.sessionLen {
			n = w.sessionLen
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// result is one workload's run: the metrics of the requested kind plus
// the operation counts behind correct/failed.
type result struct {
	Metrics   map[string]summary
	Attempted int64
	Failed    int64
	Failures  []string
	Notes     map[string]string
	Sizes     map[string]float64
}

func (r *result) count(attempted, failed int64, why string) {
	r.Attempted += attempted
	r.Failed += failed
	if failed > 0 && why != "" && len(r.Failures) < 8 {
		r.Failures = append(r.Failures, why)
	}
}

func (r *result) rep(rr *repResult) { r.count(rr.attempted, rr.failed, rr.why) }

// runEndToEnd measures the end-to-end metrics of one workload with
// tracing off and no Observer attached, on a resident engine.
func runEndToEnd(w *spec, seed uint64, seconds float64, pl plan) (*result, error) {
	res := &result{Metrics: make(map[string]summary), Sizes: make(map[string]float64)}
	inputs := sized(w, w.inputs, seconds)
	res.Sizes["closed_inputs_per_rep"] = float64(inputs)
	res.Sizes["closed_reps"] = float64(pl.closedReps)
	res.Sizes["setup_cycles"] = float64(pl.setupGroup * (1 + pl.closedReps))

	t := time.Now()
	if !w.window {
		n := sized(w, oracleInputs, seconds)
		res.Sizes["oracle_inputs"] = float64(n)
		a, f, why, err := oracleCheck(w, seed, n)
		if err != nil {
			return nil, err
		}
		res.count(a, f, "oracle: "+why)
		phase(w, "oracle check", t)
	}

	var setups []float64
	var setupTime time.Duration
	setupGroupRun := func() {
		t := time.Now()
		for i := 0; i < pl.setupGroup; i++ {
			d, err := setupCycle(w, seed)
			res.count(2, 0, "")
			if err != nil {
				res.count(0, 2, err.Error())
				continue
			}
			setups = append(setups, d.Seconds())
		}
		setupTime += time.Since(t)
	}

	in, err := start(w, &buildEnv{seed: seed})
	if err != nil {
		return nil, err
	}
	defer in.close()

	t = time.Now()
	setupGroupRun()
	res.rep(in.closedRep(inputs / 2)) // warm-up: pools filled, goroutines parked where they park
	var thr, cpu, allocs, traffic []float64
	dummies := int64(-1)
	for i := 0; i < pl.closedReps; i++ {
		setupGroupRun()
		rr := in.closedRep(inputs)
		res.rep(rr)
		n := float64(rr.inputs)
		thr = append(thr, n/rr.elapsed.Seconds())
		cpu = append(cpu, float64(rr.cpu.Microseconds())/n)
		allocs = append(allocs, float64(rr.mallocs)/n)
		traffic = append(traffic, float64(rr.data+rr.dummies)/n)
		// The network is a Kahn network: dummy traffic is a function of
		// the inputs alone, so it must repeat exactly.
		if dummies >= 0 && rr.dummies != dummies && rr.failed == 0 {
			res.count(1, 1, fmt.Sprintf("dummy count %d differs from the previous repetition's %d", rr.dummies, dummies))
		}
		dummies = rr.dummies
	}
	res.Metrics["throughput_msgs_s"] = summarizeBest(thr, "1/s", higher)
	res.Metrics["cpu_us_per_msg"] = summarizeBest(cpu, "us/msg", lower)
	res.Metrics["allocs_per_msg"] = summarize(allocs, "allocs/msg")
	res.Metrics["edge_msgs_per_input"] = summarize(traffic, "msgs/input")
	phase(w, "closed loop", t)

	res.Metrics["setup_s"] = summarizeBest(setups, "s", lower)
	fmt.Fprintf(os.Stderr, "bench: %s: set-up cycles %.2fs (inside the closed loop's time)\n", w.name, setupTime.Seconds())
	return res, nil
}

// depthSampler polls the Observer while traced repetitions run: the
// deepest edge queue seen, and what a Snapshot costs.
type depthSampler struct {
	obs    *streamdag.Observer
	max    int64
	edge   string
	snapUs []float64
}

func (d *depthSampler) sample() {
	t := time.Now()
	s := d.obs.Snapshot()
	d.snapUs = append(d.snapUs, float64(time.Since(t))/1e3)
	for _, e := range s.Edges {
		if e.Depth > d.max {
			d.max, d.edge = e.Depth, e.Name
		}
	}
}

// during samples every 100 ms while body runs, and once more at its end
// so that even the shortest repetition is sampled.
func (d *depthSampler) during(body func()) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				d.sample()
			}
		}
	}()
	body()
	close(stop)
	wg.Wait()
	d.sample()
}

// runTraced measures the per-layer metrics of one workload: repetitions
// with the Observer attached and harness spans around every call into a
// layer, interleaved with Observer-only and untraced repetitions so the
// overhead of each is known, then open-loop repetitions for the load
// generator's own figures, then the layer pass.  No end-to-end number
// comes from here.
func runTraced(w *spec, seed uint64, seconds float64, pl plan, traceDir string) (*result, error) {
	res := &result{Metrics: make(map[string]summary), Notes: make(map[string]string), Sizes: make(map[string]float64)}
	m := res.Metrics
	// Twice the end-to-end repetition: long enough for the 100 ms depth
	// sampler to see the queues more than once.
	inputs := sized(w, 2*w.inputs, seconds)
	latInputs := sized(w, int(w.rate*openSecs), seconds)
	res.Sizes["traced_inputs_per_rep"] = float64(inputs)
	res.Sizes["traced_reps"] = float64(pl.tracedReps)
	res.Sizes["loadgen_reps"] = float64(pl.loadgenReps)
	res.Sizes["open_inputs_per_rep"] = float64(latInputs)
	res.Sizes["open_rate_msgs_s"] = w.rate

	plain, err := start(w, &buildEnv{seed: seed})
	if err != nil {
		return nil, err
	}
	defer plain.close()
	observed, err := start(w, &buildEnv{seed: seed, obs: streamdag.NewObserver()})
	if err != nil {
		return nil, err
	}
	defer observed.close()
	tr := newTracer()
	tenv := &buildEnv{seed: seed, obs: streamdag.NewObserver(), tr: tr}
	traced, err := start(w, tenv)
	if err != nil {
		return nil, err
	}

	t := time.Now()
	for _, in := range []*instance{plain, observed, traced} {
		res.rep(in.closedRep(inputs / 2))
	}
	var thrPlain, thrObs, thrTraced, nsPerMsgPlain []float64
	tt := tracedTotals{ds: &depthSampler{obs: tenv.obs}}
	before := tenv.obs.Snapshot()
	for i := 0; i < pl.tracedReps; i++ {
		rp := plain.closedRep(inputs)
		res.rep(rp)
		thrPlain = append(thrPlain, float64(rp.inputs)/rp.elapsed.Seconds())
		nsPerMsgPlain = append(nsPerMsgPlain, float64(rp.elapsed.Nanoseconds())/float64(rp.inputs))

		ro := observed.closedRep(inputs)
		res.rep(ro)
		thrObs = append(thrObs, float64(ro.inputs)/ro.elapsed.Seconds())

		var rt *repResult
		tt.ds.during(func() { rt = traced.closedRep(inputs) })
		res.rep(rt)
		thrTraced = append(thrTraced, float64(rt.inputs)/rt.elapsed.Seconds())
		tt.add(rt)
	}
	tt.delta = tenv.obs.Snapshot().Delta(before)
	phase(w, "untraced / observed / traced repetitions", t)
	if err := traced.close(); err != nil {
		res.count(1, 1, "close: "+err.Error())
	}

	publicMetrics(m, tr, traced, &tt)
	kernelNs := kernelMetrics(m, tenv.probes, &tt)
	backendMetrics(res, w, &tt)
	// obs / trace: what the instruments themselves cost.
	m["obs.overhead_frac"] = point(1-median(thrObs)/median(thrPlain), "frac")
	m["trace.overhead_frac"] = point(1-median(thrTraced)/median(thrObs), "frac")
	m["obs.snapshot_us"] = point(median(tt.ds.snapUs), "us")
	m["failed_frac"] = point(0, "frac") // filled in by the caller once every operation is counted

	t = time.Now()
	loadgenMetrics(res, w, plain, latInputs, pl.loadgenReps)
	phase(w, "open loop", t)

	t = time.Now()
	lp, err := layerPass(seed, seconds)
	if err != nil {
		return nil, err
	}
	phase(w, "layer pass", t)
	for k, v := range lp {
		m[k] = v
	}
	// budget: how much of the end-to-end cost per message the layer
	// figures explain on the two chain workloads: four hops, the public
	// layer's pumps and the kernels.
	unexplained := 0.0
	if parts, ok := map[string][2]string{
		"chain_b1":  {"stream.hop_ns_b1", "streamdag.pump_ns_per_msg"},
		"chain_b64": {"stream.hop_ns_b64", "streamdag.pump_ns_per_msg_b64"},
	}[w.name]; ok {
		explained := 4*lp[parts[0]].Value + lp[parts[1]].Value + kernelNs/float64(tt.inputs)
		unexplained = 1 - explained/median(nsPerMsgPlain)
	}
	m["budget.unexplained_frac"] = point(unexplained, "frac")

	if traceDir != "" {
		if err := tr.write(traceDir, w.name, seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tracedTotals is what the traced repetitions add up to: the harness's
// own counts, the Observer's delta over the same interval, and the depth
// sampler's readings.
type tracedTotals struct {
	repResult
	wall  time.Duration
	delta *streamdag.Snapshot
	ds    *depthSampler
}

func (t *tracedTotals) add(r *repResult) {
	t.wall += r.elapsed
	t.inputs += r.inputs
	t.cpu += r.cpu
	t.sys += r.sys
	t.merge(r)
}

func usOf(ns float64) float64 { return ns / 1e3 }

// publicMetrics: the public streamdag layer, from the harness spans.
func publicMetrics(m map[string]summary, tr *tracer, traced *instance, t *tracedTotals) {
	m["streamdag.build_us"] = point(usOf(float64(tr.duration("build"))), "us")
	m["streamdag.engine_start_us"] = point(usOf(float64(tr.duration("engine_start"))), "us")
	m["streamdag.close_us"] = point(usOf(float64(tr.duration("close"))), "us")
	m["streamdag.open_us"] = point(usOf(median(t.openNs)), "us")
	m["streamdag.drain_tail_us"] = point(usOf(median(t.tailNs)), "us")
	m["streamdag.pull_gap_ns"] = point(traced.srcProbe.meanGapNs(), "ns")
	m["streamdag.source_msgs_per_call"] = point(traced.srcProbe.elemsPerCall(), "msgs/call")
	m["streamdag.sink_msgs_per_call"] = point(traced.sinkProbe.elemsPerCall(), "msgs/call")
}

// kernelMetrics: user code, from the Observer's firing counters (how
// often and with how many elements the engine calls a kernel) and the
// harness-wrapped kernels (how long it stays inside).  It returns the
// estimated time inside user code.
func kernelMetrics(m map[string]summary, probes []*probe, t *tracedTotals) (kernelNs float64) {
	var firings, calls float64
	for _, nd := range t.delta.Nodes {
		firings += float64(nd.Firings)
		calls += float64(nd.Spans + nd.Firings - nd.SpanMsgs) // one per span, one per element outside spans
	}
	for _, p := range probes {
		kernelNs += p.busyNs()
	}
	m["kernel.calls"] = point(calls, "count")
	m["kernel.msgs_per_call"] = point(ratio(firings, calls), "msgs/call")
	m["kernel.busy_frac"] = point(kernelNs/float64(t.wall.Nanoseconds()), "frac")
	return kernelNs
}

// backendMetrics: internal/stream or internal/dist under the workload,
// from the Observer delta taken at the same boundaries as the spans.
func backendMetrics(res *result, w *spec, t *tracedTotals) {
	m := res.Metrics
	n := float64(t.inputs)
	wallNs := float64(t.wall.Nanoseconds())
	edgeMsgs := float64(t.data + t.dummies)
	m["dummy_per_input"] = point(float64(t.dummies)/n, "msgs/input")
	m["stream.edge_msgs_per_input"] = point(edgeMsgs/n, "msgs/input")
	m["stream.ns_per_edge_msg"] = point(wallNs/edgeMsgs, "ns")

	var spans, spanMsgs float64
	busyMax, busyMin := 0.0, 0.0
	busyMaxNode, busyMinNode := "", ""
	for i, nd := range t.delta.Nodes {
		spans += float64(nd.Spans)
		spanMsgs += float64(nd.SpanMsgs)
		b := float64(nd.ServiceTime) / wallNs
		if i == 0 || b > busyMax {
			busyMax, busyMaxNode = b, nd.Name
		}
		if i == 0 || b < busyMin {
			busyMin, busyMinNode = b, nd.Name
		}
	}
	m["stream.span_len_mean"] = point(ratio(spanMsgs, spans), "msgs/span")
	m["stream.node_busy_frac_max"] = point(busyMax, "frac")
	m["stream.node_busy_frac_min"] = point(busyMin, "frac")
	res.Notes["stream.node_busy_frac_max"] = "busiest node: " + busyMaxNode
	res.Notes["stream.node_busy_frac_min"] = "idlest node: " + busyMinNode

	var stalls, stallMax float64
	stallEdge := ""
	for _, e := range t.delta.Edges {
		stalls += float64(e.CreditStalls)
		if f := float64(e.CreditStallTime) / wallNs; f > stallMax {
			stallMax, stallEdge = f, e.Name
		}
	}
	// One Observer serves both backends; the stall share goes under the
	// layer that owns the credit window.
	streamStall, distStall, sysFrac := stallMax, 0.0, 0.0
	if w.distributed {
		streamStall, distStall = 0, stallMax
		sysFrac = ratio(float64(t.sys), float64(t.cpu))
	}
	m["stream.credit_stalls_per_kmsg"] = point(stalls/(n/1000), "1/kmsg")
	m["stream.credit_stall_frac"] = point(streamStall, "frac")
	m["dist.credit_stall_frac"] = point(distStall, "frac")
	m["dist.sys_cpu_frac"] = point(sysFrac, "frac")
	m["stream.queue_depth_max"] = point(float64(t.ds.max), "msgs")
	res.Notes["credit_stall_frac"] = "most stalled edge: " + stallEdge
	res.Notes["stream.queue_depth_max"] = "deepest edge: " + t.ds.edge

	var txBytes, txFrames, txBodies float64
	for _, l := range t.delta.Links {
		txBytes += float64(l.TxBytes)
		txFrames += float64(l.TxFrames)
		txBodies += float64(l.TxBodies)
	}
	m["dist.wire_bytes_per_msg"] = point(txBytes/n, "B/msg")
	m["dist.frames_per_msg"] = point(txFrames/n, "frames/msg")
	m["dist.bodies_per_frame"] = point(ratio(txBodies, txFrames), "bodies/frame")

	m["timed.ticks_per_s"] = point(float64(t.delta.Time.TimerTicks)/t.wall.Seconds(), "1/s")
	m["timed.emissions_per_tick"] = point(ratio(float64(t.delta.Time.TimedEmissions), float64(t.delta.Time.TimerTicks)), "1/tick")
}

// loadgenMetrics: the open loop, untraced — how long a message waits
// between its due time and the sink at the workload's fixed rate (for
// window_tumble: between Window.End and the sink), how late the generator
// ran, and whether the fixed rate is one the engine sustains.
func loadgenMetrics(res *result, w *spec, plain *instance, latInputs, reps int) {
	m := res.Metrics
	var p50, p99, lateP50, lateP99, backlogMax, backlogSlope []float64
	samples := 0
	for i := 0; i < reps; i++ {
		rr := plain.openRep(latInputs)
		res.rep(rr)
		if w.window {
			s := sorted(rr.winLate)
			p50 = append(p50, percentile(s, 50))
			p99 = append(p99, percentile(s, 99))
			samples += len(s)
		} else {
			p50 = append(p50, rr.lat.p50us)
			p99 = append(p99, rr.lat.p99us)
			samples += rr.lat.samples
		}
		lateP50 = append(lateP50, rr.lat.lateP50us)
		lateP99 = append(lateP99, rr.lat.lateP99us)
		backlogMax = append(backlogMax, rr.lat.backlogMax)
		backlogSlope = append(backlogSlope, rr.lat.backlogSlope)
	}
	m["loadgen.latency_p50_us"] = point(median(p50), "us")
	m["loadgen.latency_p99_us"] = point(median(p99), "us")
	m["loadgen.late_p50_us"] = point(median(lateP50), "us")
	m["loadgen.late_p99_us"] = point(median(lateP99), "us")
	m["loadgen.backlog_max"] = point(median(backlogMax), "msgs")
	m["loadgen.backlog_slope"] = point(median(backlogSlope), "frac")
	res.Sizes["latency_samples"] = float64(samples)
	if s := median(backlogSlope); s > 0.02 {
		res.Notes["loadgen.latency_p50_us"] = fmt.Sprintf("unresolved: backlog grows at %.1f%% of the offered rate, the fixed rate is not sustainable", 100*s)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
