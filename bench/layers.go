package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"streamdag"
	"streamdag/internal/cs4"
	"streamdag/internal/dist"
	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/sim"
	"streamdag/internal/sp"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

// The layer pass times each layer's exported functions directly, from
// outside: no workload runs here, so its numbers are the same whichever
// workload's traced run prints them.  Engine-level figures are the median
// of layerReps short runs; a hop is the difference between an 8-node and
// a 2-node chain, which cancels the rims.

const layerReps = 3

// perOp times f, which performs ops operations, and returns ns per
// operation as the best of three — a tight loop is only ever slowed by
// interference, never sped up.
func perOp(ops int, f func()) float64 {
	best := 0.0
	for r := 0; r < 3; r++ {
		t := time.Now()
		f()
		ns := float64(time.Since(t).Nanoseconds()) / float64(ops)
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// layers collects the pass's metrics and its first error: a layer that
// cannot be driven fails the run instead of printing a silent zero.
type layers struct {
	m    map[string]summary
	seed uint64
	err  error
}

// ok records err (the first one wins) and reports whether there was none.
func (l *layers) ok(what string, err error) bool {
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("layer pass: %s: %w", what, err)
	}
	return err == nil
}

// sessionNs streams n messages through one session per repetition —
// open starts it and returns its wait — and returns the median ns per
// message.
func (l *layers) sessionNs(what string, n int, open func() (wait func() error, err error)) float64 {
	ns := make([]float64, layerReps)
	for i := range ns {
		t := time.Now()
		wait, err := open()
		if !l.ok(what, err) || !l.ok(what, wait()) {
			return 0
		}
		ns[i] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(ns)
}

func layerPass(seed uint64, seconds float64) (map[string]summary, error) {
	l := &layers{m: make(map[string]summary), seed: seed}
	scale := func(n int) int {
		n = int(float64(n) * seconds / baseSeconds)
		if n < 256 {
			n = 256
		}
		return n
	}
	for _, pass := range []struct {
		name string
		run  func()
	}{
		{"proto", func() { l.protoPass(scale(1 << 18)) }},
		{"stream", func() { l.streamPass(scale(60_000), scale(600_000)) }},
		{"dist", func() { l.distPass(scale(6_000), scale(25_000)) }},
		{"public", func() { l.publicPass(scale(40_000), scale(300_000)) }},
		{"sim", func() { l.simPass(scale(30_000)) }},
		{"analysis", func() { l.analysisPass() }},
	} {
		t := time.Now()
		pass.run()
		fmt.Fprintf(os.Stderr, "bench: layer pass: %s %.2fs\n", pass.name, time.Since(t).Seconds())
	}
	return l.m, l.err
}

var sinkU64 uint64 // keeps the compiler from deleting a timed pure call

// protoPass times internal/proto on the split node of splitjoin_filter:
// four out-edges, the workload's own p = 0.1 masks and the intervals the
// analysis computed for them.
func (l *layers) protoPass(fires int) {
	t := splitjoinTopology()
	f := splitjoinFilter(t, l.seed)
	split := t.Node("split")
	outs := t.Graph().Out(split)
	const period = 1 << 14 // masks repeat after this many sequence numbers
	masks := make([][]bool, period)
	for seq := range masks {
		masks[seq] = make([]bool, len(outs))
		for i, e := range outs {
			masks[seq][i] = f(split, uint64(seq), e)
		}
	}
	a, err := streamdag.Analyze(t)
	if !l.ok("analyze split/join", err) {
		return
	}
	fire := func(alg streamdag.Algorithm) (ns, dummiesPerFire float64) {
		iv, err := a.Intervals(alg)
		if !l.ok("split/join intervals", err) {
			return 0, 0
		}
		var eng *proto.Engine
		ns = perOp(fires, func() {
			eng = proto.NewEngine(outs, proto.Config{Algorithm: alg, Intervals: iv})
			for seq := 0; seq < fires; seq++ {
				eng.Fire(uint64(seq), masks[seq%period])
			}
		})
		c := eng.Counts()
		return ns, float64(c.Dummies) / float64(c.Fires)
	}
	ns, d := fire(streamdag.Propagation)
	l.m["proto.fire_ns"] = point(ns, "ns")
	l.m["proto.dummies_per_fire"] = point(d, "1/fire")
	ns, _ = fire(streamdag.NonPropagation)
	l.m["proto.fire_nonprop_ns"] = point(ns, "ns")

	one := []graph.EdgeID{0}
	all := []bool{true}
	l.m["proto.fire_nofilter_ns"] = point(perOp(fires, func() {
		eng := proto.NewEngine(one, proto.Config{})
		for seq := 0; seq < fires; seq++ {
			eng.Fire(uint64(seq), all)
		}
	}), "ns")
	l.m["proto.firerun_ns_per_msg"] = point(perOp(fires, func() {
		eng := proto.NewEngine(one, proto.Config{})
		for first := 0; first+64 <= fires; first += 64 {
			eng.FireRun(uint64(first), uint64(first+63), all)
		}
	}), "ns")
	heads := []uint64{7, 3, 9, 5}
	l.m["proto.minseq_ns"] = point(perOp(fires, func() {
		for i := 0; i < fires; i++ {
			heads[i&3]++
			sinkU64 += proto.MinSeq(heads)
		}
	}), "ns")
}

// countSource is a span-capable source of n sequence numbers for the
// engines driven below their public surface.
type countSource struct{ next, n uint64 }

func (c *countSource) one(context.Context) (any, bool, error) {
	if c.next >= c.n {
		return nil, false, nil
	}
	v := c.next
	c.next++
	return v, true, nil
}

func (c *countSource) span(_ context.Context, buf []any) (int, bool, error) {
	k := 0
	for ; k < len(buf) && c.next < c.n; k++ {
		buf[k] = c.next
		c.next++
	}
	return k, c.next >= c.n, nil
}

const layerWatchdog = 30 * time.Second // as the workloads: only a real deadlock trips it

// streamChain streams n messages through a passthrough chain of the
// given length on internal/stream directly and returns ns per message.
func (l *layers) streamChain(nodes, batch, n int) float64 {
	what := fmt.Sprintf("stream chain of %d at batch %d", nodes, batch)
	eng, err := stream.NewEngine(workload.Pipeline(nodes, chainBuffer), nil,
		stream.Config{MaxBatch: batch, WatchdogTimeout: layerWatchdog})
	if !l.ok(what, err) {
		return 0
	}
	defer eng.Close()
	id := proto.SessionID(0) // ids are unique per engine
	return l.sessionNs(what, n, func() (func() error, error) {
		id++
		src := &countSource{n: uint64(n)}
		cfg := stream.SessionConfig{ID: id, Source: src.one}
		if batch > 1 {
			cfg.SpanSource = src.span
		}
		ses, err := eng.Open(cfg)
		if err != nil {
			return nil, err
		}
		return func() error { _, err := ses.Wait(); return err }, nil
	})
}

func (l *layers) streamPass(n1, n64 int) {
	l.m["stream.hop_ns_b1"] = point((l.streamChain(8, 1, n1)-l.streamChain(2, 1, n1))/6, "ns")
	l.m["stream.hop_ns_b64"] = point((l.streamChain(8, 64, n64)-l.streamChain(2, 64, n64))/6, "ns")

	eng, err := stream.NewEngine(workload.Pipeline(5, chainBuffer), nil, stream.Config{WatchdogTimeout: layerWatchdog})
	if !l.ok("stream engine", err) {
		return
	}
	defer eng.Close()
	const sessions = 200
	id := proto.SessionID(0)
	l.m["stream.open_wait_us"] = point(perOp(sessions, func() {
		for i := 0; i < sessions; i++ {
			id++
			ses, err := eng.Open(stream.SessionConfig{ID: id, Source: (&countSource{}).one})
			if !l.ok("open an empty session", err) {
				return
			}
			_, err = ses.Wait()
			l.ok("wait for an empty session", err)
		}
	})/1e3, "us")
}

// distChain is streamChain on internal/dist with nodes alternating
// between two loopback workers.
func (l *layers) distChain(nodes, batch, n int) float64 {
	what := fmt.Sprintf("dist chain of %d at batch %d", nodes, batch)
	part := make(dist.Partition, nodes)
	for i := 0; i < nodes; i++ {
		part[graph.NodeID(i)] = fmt.Sprintf("w%d", i%2)
	}
	eng, err := dist.NewEngine(workload.Pipeline(nodes, chainBuffer), part, nil,
		dist.Config{MaxBatch: batch, WatchdogTimeout: layerWatchdog})
	if !l.ok(what, err) {
		return 0
	}
	defer eng.Close()
	id := proto.SessionID(0)
	return l.sessionNs(what, n, func() (func() error, error) {
		id++
		ses, err := eng.Open(dist.SessionIO{ID: id, Source: (&countSource{n: uint64(n)}).one})
		if err != nil {
			return nil, err
		}
		return func() error { _, err := ses.Wait(); return err }, nil
	})
}

func (l *layers) distPass(n1, n64 int) {
	l.m["dist.hop_ns_b1"] = point((l.distChain(8, 1, n1)-l.distChain(2, 1, n1))/6, "ns")
	l.m["dist.hop_ns_b64"] = point((l.distChain(8, 64, n64)-l.distChain(2, 64, n64))/6, "ns")
}

func onUint64(fn func(uint64) uint64) func(any) any {
	return func(v any) any { return fn(v.(uint64)) }
}

// kernelChain is chainFlow's topology and kernels written at the kernel
// tier, so the Flow layer's cost is the difference between the two.
func kernelChain() (*streamdag.Topology, map[streamdag.NodeID]streamdag.Kernel) {
	t := streamdag.NewTopology()
	for i := 0; i+1 < len(chainNodes); i++ {
		t.Channel(chainNodes[i], chainNodes[i+1], chainBuffer)
	}
	pass := func(v any) any { return v }
	return t, map[streamdag.NodeID]streamdag.Kernel{
		t.Node("source"): streamdag.MapKernel(1, pass),
		t.Node("s1"):     streamdag.MapKernel(1, onUint64(stageA)),
		t.Node("s2"):     streamdag.MapKernel(1, onUint64(stageB)),
		t.Node("s3"):     streamdag.MapKernel(1, onUint64(stageC)),
		t.Node("sink"):   streamdag.MapKernel(0, pass),
	}
}

// pipeNs streams n inputs through pipe's engine, one closed-loop session
// per repetition from a plain or a span-capable source, and returns the
// median ns per message.
func (l *layers) pipeNs(what string, pipe *streamdag.Pipeline, err error, n int, span bool) float64 {
	if !l.ok(what, err) {
		return 0
	}
	eng, err := pipe.Engine()
	if !l.ok(what, err) {
		return 0
	}
	defer eng.Close()
	return l.sessionNs(what, n, func() (func() error, error) {
		var src streamdag.Source = &seqSource{seed: l.seed, n: uint64(n)}
		if span {
			src = &spanSeqSource{seqSource{seed: l.seed, n: uint64(n)}}
		}
		ses, err := eng.Open(context.Background(), src, streamdag.DiscardSink())
		if err != nil {
			return nil, err
		}
		return func() error { _, err := ses.Wait(); return err }, nil
	})
}

// publicPass times the public layer against the layer under it: the
// Engine's pumps and adapters over stream.Engine, the Flow tier over the
// kernel tier, a stage at k = 2 over k = 1, a window stage over none.
func (l *layers) publicPass(n1, n64 int) {
	t, ks := kernelChain()
	// pump is the public Engine minus stream.Engine on the same graph and
	// kernels, fed the same payloads through the same kind of source.
	pump := func(batch, n int) (public, diff float64) {
		what := fmt.Sprintf("kernel-tier chain at batch %d", batch)
		opts := []streamdag.Option{streamdag.WithKernels(ks), streamdag.WithWatchdog(layerWatchdog)}
		if batch > 1 {
			opts = append(opts, streamdag.WithMaxBatch(batch))
		}
		kpipe, err := streamdag.Build(t, opts...)
		public = l.pipeNs(what, kpipe, err, n, batch > 1)
		eng, err := stream.NewEngine(t.Graph(), ks, stream.Config{MaxBatch: batch, WatchdogTimeout: layerWatchdog})
		if !l.ok("stream engine under the "+what, err) {
			return public, 0
		}
		defer eng.Close()
		id := proto.SessionID(0)
		under := l.sessionNs("stream engine under the "+what, n, func() (func() error, error) {
			id++
			src := &spanSeqSource{seqSource{seed: l.seed, n: uint64(n)}}
			cfg := stream.SessionConfig{ID: id, Source: src.Next}
			if batch > 1 {
				cfg.SpanSource = src.NextSpan
			}
			ses, err := eng.Open(cfg)
			if err != nil {
				return nil, err
			}
			return func() error { _, err := ses.Wait(); return err }, nil
		})
		return public, public - under
	}
	kernelNs, pump1 := pump(1, n1)
	_, pump64 := pump(64, n64)
	l.m["streamdag.pump_ns_per_msg"] = point(pump1, "ns")
	l.m["streamdag.pump_ns_per_msg_b64"] = point(pump64, "ns")

	env := &buildEnv{seed: l.seed}
	fpipe, err := chainFlow(env, 1, nil)
	flowNs := l.pipeNs("flow chain", fpipe, err, n1, false)
	l.m["streamdag.flow_tax_frac"] = point(1-ratio(kernelNs, flowNs), "frac")

	k2, err := streamdag.NewFlow[uint64, uint64]().Buffer(chainBuffer).Then(
		streamdag.Map("s1", stageA),
		streamdag.Map("s2", stageB).Replicate(2),
		streamdag.Map("s3", stageC),
	).Compile(env.options(1, nil)...)
	l.m["replicate.k2_tax_frac"] = point(1-ratio(flowNs, l.pipeNs("flow chain at k=2", k2, err, n1, false)), "frac")

	raw, err := streamdag.NewFlow[uint64, uint64]().Buffer(chainBuffer).Then(
		streamdag.Map("pre", stageA),
	).Compile(env.options(64, nil)...)
	rawNs := l.pipeNs("flow without a window", raw, err, n64, true)
	wpipe, err := windowBuild(env)
	l.m["timed.windowed_vs_raw_frac"] = point(ratio(rawNs, l.pipeNs("flow with a window", wpipe, err, n64, true)), "frac")
}

// simPass times the oracle itself on splitjoin_filter.
func (l *layers) simPass(n int) {
	t := splitjoinTopology()
	a, err := streamdag.Analyze(t)
	if !l.ok("analyze split/join", err) {
		return
	}
	iv, err := a.Intervals(streamdag.Propagation)
	if !l.ok("split/join intervals", err) {
		return
	}
	eng := sim.NewEngine(t.Graph(), sim.Config{
		Kernels:   streamdag.RouteKernels(t, splitjoinFilter(t, l.seed)),
		Algorithm: streamdag.Propagation, Intervals: iv, MaxBatch: 64,
	})
	defer eng.Close()
	start := time.Now()
	ses, err := eng.Open(sim.SessionIO{ID: 1, Source: (&seqSource{seed: l.seed, n: uint64(n)}).Next})
	if !l.ok("simulator session", err) {
		return
	}
	r := ses.Wait()
	if !r.Completed {
		l.ok("simulator session", fmt.Errorf("%s", r.Reason))
	}
	l.m["sim.ns_per_msg"] = point(float64(time.Since(start).Nanoseconds())/float64(n), "ns")
	l.m["sim.steps_per_input"] = point(float64(r.Steps)/float64(n), "steps/input")
}

// analysisPass times the paper's interval algorithms on seeded random
// topologies far larger than the six workloads', so the O(|G|)…O(|G|³)
// claims keep a number.
func (l *layers) analysisPass() {
	rng := rand.New(rand.NewSource(int64(l.seed)))
	var err error
	us := func(f func()) float64 { return perOp(1, f) / 1e3 }
	perKEdge := func(g *graph.Graph, f func()) float64 { return us(f) / (float64(g.NumEdges()) / 1000) }

	g := workload.RandomSP(rng, 4096, 8)
	l.m["analysis.sp_prop_us_per_kedge"] = point(perKEdge(g, func() { _, err = sp.PropagationIntervals(g) }), "us/kedge")
	l.ok("sp propagation intervals", err)
	g = workload.RandomSP(rng, 1024, 8)
	l.m["analysis.sp_nonprop_us_per_kedge"] = point(perKEdge(g, func() { _, err = sp.NonPropagationIntervals(g) }), "us/kedge")
	l.ok("sp non-propagation intervals", err)

	g = workload.RandomCS4(rng, 64, 8, 0.5)
	var dec *cs4.Decomposition
	l.m["analysis.classify_us"] = point(us(func() { dec, err = cs4.Classify(g) }), "us")
	if !l.ok("classify a random CS4 graph", err) {
		return
	}
	l.m["analysis.cs4_prop_us"] = point(us(func() { _, err = dec.Intervals(cs4.Propagation) }), "us")
	l.ok("cs4 propagation intervals", err)
	l.m["analysis.cs4_nonprop_us"] = point(us(func() { _, err = dec.Intervals(cs4.NonPropagation) }), "us")
	l.ok("cs4 non-propagation intervals", err)
}
