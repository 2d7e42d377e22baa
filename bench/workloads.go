package main

import (
	"fmt"
	"time"

	"streamdag"
)

// baseSeconds is the run length the frozen input counts and rates below
// were sized for; -seconds scales the counts linearly and leaves the
// rates alone.  It equals run_seconds in BENCHMARK.json.
const baseSeconds = 10

// spec is one workload: a fixed topology, backend and batch size, the
// closed-loop input count and the open-loop rate frozen at the seed
// (rate ≈ ¼ of the seed's closed-loop median, two significant figures),
// never recomputed per run.
type spec struct {
	name string
	why  string

	distributed bool
	spanIO      bool // span-capable source and sink
	sessionLen  int  // messages per session; 0 puts every input in one session
	// window: the sink receives winSummary and latency is flush lateness.
	// The simulator's virtual clock cuts windows elsewhere than the wall
	// clock does, so this is also the one workload the oracle check skips.
	window bool

	inputs int     // closed-loop inputs per repetition at baseSeconds
	rate   float64 // open-loop offered rate, source inputs per second

	build   func(b *buildEnv) (*streamdag.Pipeline, error)
	expect  func(uint64) uint64                  // what the kernels make of a payload
	traffic func(seed uint64, n int) expectation // what a session of n inputs must carry
}

// openSecs is the length of one open-loop repetition at baseSeconds.
const openSecs = 0.3

// expectation is what the filter and the topology alone say about a
// session of n inputs: one sink operation per message that must arrive
// (sequence numbers summing to seqSum), data messages summed over the
// edges, and whether dummy messages may appear at all.
type expectation struct {
	sinkOps int64
	seqSum  uint64
	data    int64
	dummies bool
}

// chainTraffic: every input reaches the sink and crosses all four edges.
func chainTraffic(_ uint64, n int) expectation {
	return expectation{sinkOps: int64(n), seqSum: uint64(n) * uint64(n-1) / 2, data: int64(4 * n)}
}

// windowTraffic: every input is one sink operation (checked through the
// windows' contents) and crosses the two edges before the window stage.
func windowTraffic(_ uint64, n int) expectation {
	return expectation{sinkOps: int64(n), data: int64(2 * n)}
}

// buildEnv is what varies between the builds of one workload: the seed,
// the backend override of the oracle run, and the traced run's observer
// and kernel probes.
type buildEnv struct {
	seed    uint64
	backend streamdag.Backend   // nil: the workload's own
	obs     *streamdag.Observer // nil: instrumentation compiled out
	tr      *tracer             // non-nil: kernels are wrapped in probes
	root    int32               // the traced run's root span
	probes  []*probe
}

// options are the Build options of a workload at the given batch size on
// its own backend (nil: the default goroutine backend), which the oracle
// run's override replaces.
func (b *buildEnv) options(batch int, own streamdag.Backend) []streamdag.Option {
	opts := []streamdag.Option{
		streamdag.WithAlgorithm(streamdag.Propagation),
		// Far above any scheduling hiccup of a shared box: a watchdog
		// firing here is a real deadlock.
		streamdag.WithWatchdog(30 * time.Second),
	}
	if batch > 1 {
		opts = append(opts, streamdag.WithMaxBatch(batch))
	}
	if b.backend != nil {
		own = b.backend
	}
	if own != nil {
		opts = append(opts, streamdag.WithBackend(own))
	}
	if b.obs != nil {
		opts = append(opts, streamdag.WithObserver(b.obs))
	}
	return opts
}

// wrapFn times a stage function in the traced run and leaves it alone
// otherwise.
func wrapFn[A, B any](b *buildEnv, node string, fn func(A) B) func(A) B {
	if b.tr == nil {
		return fn
	}
	p := newProbe("kernel."+node, b.tr)
	b.probes = append(b.probes, p)
	return func(v A) B {
		start := p.enter(1)
		r := fn(v)
		p.exit(start, b.root, 0)
		return r
	}
}

// probeKernel is wrapFn for the kernel tier.
type probeKernel struct {
	k    streamdag.Kernel
	p    *probe
	root int32
}

func (k probeKernel) Process(seq uint64, in []streamdag.Input) map[int]any {
	start := k.p.enter(1)
	out := k.k.Process(seq, in)
	k.p.exit(start, k.root, 0)
	return out
}

const chainBuffer = 256 // leaves room for double buffering of 64-wide spans

// chainFlow is source → 3 Map stages → sink through the Flow API.
func chainFlow(b *buildEnv, batch int, own streamdag.Backend) (*streamdag.Pipeline, error) {
	return streamdag.NewFlow[uint64, uint64]().Buffer(chainBuffer).Then(
		streamdag.Map("s1", wrapFn(b, "s1", stageA)),
		streamdag.Map("s2", wrapFn(b, "s2", stageB)),
		streamdag.Map("s3", wrapFn(b, "s3", stageC)),
	).Compile(b.options(batch, own)...)
}

// chainNodes are the lowered node names of chainFlow, in stream order.
var chainNodes = []string{"source", "s1", "s2", "s3", "sink"}

// alternate assigns nodes to two workers in turn, so every hop crosses
// TCP.
func alternate(nodes []string) map[string]string {
	assign := make(map[string]string, len(nodes))
	for i, n := range nodes {
		assign[n] = fmt.Sprintf("w%d", i%2)
	}
	return assign
}

const (
	sjBranches = 4
	sjBuffer   = 64
	sjPass     = 0.1 // probability that the split forwards an input on one branch
)

// splitjoinTopology is in → split → 4 branches × 2 stages → join → out.
func splitjoinTopology() *streamdag.Topology {
	t := streamdag.NewTopology()
	t.Channel("in", "split", sjBuffer)
	for i := 0; i < sjBranches; i++ {
		a, c := fmt.Sprintf("b%da", i), fmt.Sprintf("b%db", i)
		t.Channel("split", a, sjBuffer)
		t.Channel(a, c, sjBuffer)
		t.Channel(c, "join", sjBuffer)
	}
	t.Channel("join", "out", sjBuffer)
	return t
}

// splitjoinFilter routes per edge at the split (Bernoulli keyed on seed,
// seq and edge) and passes everything elsewhere: the filtering class the
// Propagation protocol is proven safe for.
func splitjoinFilter(t *streamdag.Topology, seed uint64) streamdag.Filter {
	return streamdag.SourceRouting(t.Node("split"), streamdag.Bernoulli(sjPass, seed), streamdag.PassAll)
}

func splitjoinBuild(b *buildEnv) (*streamdag.Pipeline, error) {
	t := splitjoinTopology()
	f := splitjoinFilter(t, b.seed)
	opts := b.options(64, nil)
	if b.tr == nil {
		return streamdag.Build(t, append(opts, streamdag.WithRouting(f))...)
	}
	ks := streamdag.RouteKernels(t, f)
	for id, k := range ks {
		p := newProbe("kernel."+t.NodeName(id), b.tr)
		b.probes = append(b.probes, p)
		ks[id] = probeKernel{k: k, p: p, root: b.root}
	}
	return streamdag.Build(t, append(opts, streamdag.WithKernels(ks))...)
}

// splitjoinTraffic replays the filter: an input crosses in → split, three
// edges per branch that forwards it, and join → out and the sink when any
// branch did.
func splitjoinTraffic(seed uint64, n int) expectation {
	t := splitjoinTopology()
	f := splitjoinFilter(t, seed)
	split := t.Node("split")
	g := t.Graph()
	outs := g.Out(split)
	o := expectation{data: int64(n), dummies: true}
	for seq := uint64(0); seq < uint64(n); seq++ {
		any := false
		for _, e := range outs {
			if f(split, seq, e) {
				o.data += 3 // split → a → b → join
				any = true
			}
		}
		if any {
			o.data++ // join → out
			o.sinkOps++
			o.seqSum += seq
		}
	}
	return o
}

const windowWidth = time.Millisecond

func windowBuild(b *buildEnv) (*streamdag.Pipeline, error) {
	return streamdag.NewFlow[uint64, winSummary]().Buffer(chainBuffer).Then(
		streamdag.Map("pre", wrapFn(b, "pre", stageA)),
		streamdag.TumblingWindow[uint64]("win", windowWidth),
		streamdag.Map("sum", wrapFn(b, "sum", summarizeWindow)),
	).Compile(b.options(64, nil)...)
}

// workloads are the six fixed workloads, in the order they run.
var workloads = []*spec{
	{
		name:   "chain_b1",
		why:    "Flow chain at batch 1: the fixed per-message path (mailbox hop, Process map, pumps) does all the work; proto, dist and dummies do none",
		inputs: 135_000, rate: 140_000,
		build:  func(b *buildEnv) (*streamdag.Pipeline, error) { return chainFlow(b, 1, nil) },
		expect: chainExpect, traffic: chainTraffic,
	},
	{
		name:   "chain_b64",
		why:    "same flow and inputs at batch 64 with span source and sink: the span path; a gain on one path that costs the other, or batching delay at the same offered rate, shows here",
		spanIO: true,
		inputs: 1_400_000, rate: 140_000,
		build:  func(b *buildEnv) (*streamdag.Pipeline, error) { return chainFlow(b, 64, nil) },
		expect: chainExpect, traffic: chainTraffic,
	},
	{
		name:   "splitjoin_filter",
		why:    "the paper's workload: a split filtering each of 4 branches at p=0.1, so proto.Fire, dummy sends and join alignment do the work and spans fragment; only workload with dummies",
		spanIO: true,
		inputs: 90_000, rate: 87_000,
		build:  splitjoinBuild,
		expect: identity, traffic: splitjoinTraffic,
	},
	{
		name:        "tcp_chain",
		why:         "chain_b64 across two loopback workers with every hop on TCP: internal/dist (codec, frames, credit windows, syscalls) does most of the work, mailboxes little",
		distributed: true, spanIO: true,
		inputs: 52_000, rate: 52_000,
		build: func(b *buildEnv) (*streamdag.Pipeline, error) {
			return chainFlow(b, 64, streamdag.Distributed(alternate(chainNodes)))
		},
		expect: chainExpect, traffic: chainTraffic,
	},
	{
		name:       "session_churn",
		why:        "chain_b1 in sessions of 64 messages: session open and teardown, per-session demux maps and registries dominate; 1 message in 64 pays Open",
		sessionLen: 64,
		inputs:     120_000, rate: 30_000,
		build:  func(b *buildEnv) (*streamdag.Pipeline, error) { return chainFlow(b, 1, nil) },
		expect: chainExpect, traffic: chainTraffic,
	},
	{
		name:   "window_tumble",
		why:    "Map → TumblingWindow(1ms) → Map on the wall clock: the timed, non-vectorized path; latency is flush lateness (sink time − Window.End)",
		spanIO: true, window: true,
		inputs: 600_000, rate: 580_000,
		build: windowBuild, traffic: windowTraffic,
	},
}

func workloadByName(name string) *spec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
