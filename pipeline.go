package streamdag

import (
	"context"
	"errors"
	"fmt"
	"time"

	"streamdag/internal/clock"
	"streamdag/internal/stream"
)

// This file is the Pipeline API: one build-and-run surface over the
// whole library.  Build performs validate → (optional) replicate →
// classify → interval computation in one step; the resulting Pipeline
// executes with real user payloads — Pipeline.Run(ctx, source, sink)
// pulls payloads from a Source, streams them through the topology under
// the chosen dummy protocol, and delivers sink-node emissions to a Sink
// in sequence order — on any of the three backends (goroutine runtime,
// deterministic simulator, distributed TCP workers), selected with
// WithBackend.

// Pipeline is a built streaming computation: a validated (and possibly
// replicated) topology together with its classification, its dummy
// intervals, its kernels, and the backend that will execute it.  Build
// once, then Run; a Pipeline is reusable across Runs as long as its
// kernels are stateless (the library's own synthetic kernels are).
type Pipeline struct {
	topo      *Topology // expanded topology; the built one without replication
	analysis  *Analysis
	intervals map[EdgeID]Interval
	kernels   map[NodeID]Kernel // keyed by expanded-topology IDs
	backend   Backend
	alg       Algorithm
	watchdog  time.Duration
	avoidance bool
	maxBatch  int
	obs       *Observer   // telemetry collector; nil (the default) compiles instrumentation out
	clk       clock.Clock // time source of the time-aware stages; nil means backend default

	// Fault-tolerance configuration (see fault.go).
	retry RetryPolicy
	dlq   DeadLetterSink

	// Flow-compiled pipelines carry the shared runtime type-error slot
	// and the per-Run reset hooks (stateful stage state, see stage.go);
	// both are nil/empty for hand-wired pipelines.
	flowSlot *stageErrSlot
	resets   []func()
}

// KernelConflictError is returned by Build when two kernels are assigned
// to the same node via the WithKernel / WithKernels options.  (Routing
// kernels from WithRouting do not conflict: they are the documented
// fallback for nodes the other options leave unset.)
type KernelConflictError struct {
	// Node is the name of the doubly-assigned node.
	Node string
}

// Error names the doubly-assigned node.
func (e *KernelConflictError) Error() string {
	return fmt.Sprintf("streamdag: build: node %q is assigned two kernels", e.Node)
}

// buildConfig accumulates Build's functional options.
type buildConfig struct {
	alg        Algorithm
	backend    Backend
	watchdog   time.Duration
	maxBatch   int
	plan       ReplicationPlan
	kernelMaps []map[NodeID]Kernel
	named      []namedKernel
	routing    Filter
	avoidance  bool
	observer   *Observer
	retry      RetryPolicy
	dlq        DeadLetterSink
	clk        clock.Clock
	err        error // first option error; reported by Build
}

type namedKernel struct {
	name string
	k    Kernel
}

// Option configures Build.
type Option func(*buildConfig)

// WithAlgorithm selects the dummy protocol (default Propagation).
func WithAlgorithm(alg Algorithm) Option {
	return func(c *buildConfig) { c.alg = alg }
}

// WithReplication expands the named nodes into data-parallel replicas
// (see Replicate); kernels and routing filters given by other options
// are written against the original topology and carried across the
// expansion automatically.  Multiple WithReplication options merge;
// naming one node with two different counts is an error.  (Flow.Compile
// contributes the plan drawn from Stage.Replicate marks the same way.)
func WithReplication(plan ReplicationPlan) Option {
	return func(c *buildConfig) {
		if c.plan == nil {
			c.plan = make(ReplicationPlan, len(plan))
		}
		for name, k := range plan {
			if prev, ok := c.plan[name]; ok && prev != k && c.err == nil {
				c.err = fmt.Errorf("streamdag: build: node %q replicated as both %d and %d", name, prev, k)
			}
			c.plan[name] = k
		}
	}
}

// WithBackend selects the execution backend (default Goroutines).  A
// nil b is a Build error.
func WithBackend(b Backend) Option {
	return func(c *buildConfig) {
		if b == nil && c.err == nil {
			c.err = errors.New("streamdag: build: nil Backend")
		}
		c.backend = b
	}
}

// WithWatchdog sets how long the runtime backends wait without progress
// before reporting deadlock (default one second, which zero selects).  Time
// spent blocked in Source or Sink callbacks does not count as stalled.
// A negative d is a Build error.
func WithWatchdog(d time.Duration) Option {
	return func(c *buildConfig) {
		if d < 0 && c.err == nil {
			c.err = fmt.Errorf("streamdag: build: watchdog %v must not be negative", d)
		}
		c.watchdog = d
	}
}

// WithMaxBatch sets the batch width n of the runtime backends (default
// 1): the longest span of data elements one call of a vectorizing kernel
// (a Flow Map's) takes.  A node takes up to max(n, 64) firings per pass
// and carries what they send — data and the dummies between them, out of
// any node — as one run per out-edge: one publish to the edge's ring (or,
// across workers, one coalesced wire frame and one credit batch) per run
// instead of per message.  Batching is transport-level only:
// windows are still accounted in message units (a run of k messages
// takes k window slots, and a node stops firing at a full window exactly
// where it would per message), kernels still fire in sequence order, and
// the logical stream — per-edge data and dummy counts, sink delivery
// order — is identical at every n.  n is every node's one batch width;
// n = 1 hands a kernel one element per call.  The Simulator ignores n:
// it fires one element per step, the reference schedule the batched
// backends must match.
func WithMaxBatch(n int) Option {
	return func(c *buildConfig) {
		if n < 1 && c.err == nil {
			c.err = fmt.Errorf("streamdag: build: max batch %d must be positive", n)
		}
		c.maxBatch = n
	}
}

// WithKernel assigns node name's compute kernel.  Names refer to the
// original (pre-replication) topology.  Assigning a node a kernel twice
// is a *KernelConflictError.
func WithKernel(name string, k Kernel) Option {
	return func(c *buildConfig) { c.named = append(c.named, namedKernel{name, k}) }
}

// WithKernels assigns kernels keyed by original-topology node IDs — the
// shape RouteKernels produces.  Assigning a node a kernel twice (within
// or across WithKernels and WithKernel options) is a
// *KernelConflictError.
func WithKernels(ks map[NodeID]Kernel) Option {
	return func(c *buildConfig) { c.kernelMaps = append(c.kernelMaps, ks) }
}

// WithRouting installs forwarding kernels driven by f (see
// RouteKernels) for every node the other kernel options leave unset:
// each node forwards its first present payload on the out-edges f
// selects.  f is written against the original topology.  Until ROADMAP
// item 23 lands, per-edge filters at interior splits are outside the
// Propagation guarantee (a split inside another cycle can deadlock);
// SourceRouting is inside it.
func WithRouting(f Filter) Option {
	return func(c *buildConfig) { c.routing = f }
}

// WithoutAvoidance disables the dummy protocol: no intervals are
// computed and no dummies are sent.  Runs may then deadlock under
// filtering — this exists to demonstrate exactly that.
func WithoutAvoidance() Option {
	return func(c *buildConfig) { c.avoidance = false }
}

// WithClock injects the time source the time-aware stages (windows,
// Throttle, Debounce, Dedupe, Sample) read.  The default depends on the
// backend: the wall clock on the runtime backends, and a fresh
// deterministic FakeClock on the Simulator (which advances it with
// virtual time, one millisecond per scheduler round, so window contents
// are a pure function of the input).  Pass a NewFakeClock to drive
// wall-backend tests by hand, or a shared FakeClock to pin simulator
// runs to a chosen start instant; passing the wall clock to a Simulator
// pipeline with time-aware stages is a Build error, because it would
// destroy the determinism the backend exists for.
func WithClock(c Clock) Option {
	return func(cfg *buildConfig) {
		if c == nil && cfg.err == nil {
			cfg.err = errors.New("streamdag: build: nil Clock")
		}
		cfg.clk = c
	}
}

// Build compiles a topology into a runnable Pipeline in one step:
// validate, apply any replication, classify (SP / CS4 / general), and
// compute the per-edge dummy intervals for the chosen protocol.
func Build(t *Topology, opts ...Option) (*Pipeline, error) {
	cfg := buildConfig{
		alg:       Propagation,
		backend:   Goroutines(),
		avoidance: true,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	if err := t.g.Validate(); err != nil {
		return nil, err
	}

	// Resolve kernels against the original topology: routing supplies
	// the fallback for every node, and the explicit assignments (ID-keyed
	// maps, then named) override it.  Two explicit assignments to one
	// node conflict — a silent last-writer-wins would hide a wiring bug.
	kernels := make(map[NodeID]Kernel)
	if cfg.routing != nil {
		kernels = RouteKernels(t, cfg.routing)
	}
	assigned := make(map[NodeID]bool)
	for _, ks := range cfg.kernelMaps {
		for id, k := range ks {
			if int(id) >= t.g.NumNodes() {
				return nil, fmt.Errorf("streamdag: build: kernel for unknown node id %d", id)
			}
			if assigned[id] {
				return nil, &KernelConflictError{Node: t.g.Name(id)}
			}
			assigned[id] = true
			kernels[id] = k
		}
	}
	for _, nk := range cfg.named {
		id, ok := t.g.NodeByName(nk.name)
		if !ok {
			return nil, fmt.Errorf("streamdag: build: no node %q in the topology", nk.name)
		}
		if assigned[id] {
			return nil, &KernelConflictError{Node: nk.name}
		}
		assigned[id] = true
		kernels[id] = nk.k
	}

	p := &Pipeline{
		backend: cfg.backend, alg: cfg.alg,
		watchdog: cfg.watchdog, avoidance: cfg.avoidance,
		maxBatch: cfg.maxBatch,
		retry:    cfg.retry, dlq: cfg.dlq,
		clk: cfg.clk,
	}
	// Resolve the time-aware stages' clock: an explicit WithClock wins;
	// otherwise a Simulator pipeline with timed kernels gets its own
	// deterministic fake (advanced by the scheduler), and the runtime
	// backends leave clk nil so the kernels default to the wall clock.
	// Injection reaches the kernel instances themselves, which survive
	// replication carry-over, so every replica reads the same clock.
	if p.clk == nil {
		if _, isSim := cfg.backend.(simulatorBackend); isSim && anyTimedKernel(kernels) {
			p.clk = clock.NewFake()
		}
	}
	if p.clk != nil {
		injectClock(kernels, p.clk)
	}
	if err := p.applyPlan(t, cfg.plan, kernels); err != nil {
		return nil, err
	}
	if err := p.validateTimed(); err != nil {
		return nil, err
	}
	if cfg.observer != nil {
		// Attached last, against the executed (possibly expanded) topology,
		// so the observer's node/edge slots line up with the IDs the
		// backends instrument.
		if err := cfg.observer.attach(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// applyPlan derives the executed state from t, plan and the kernels
// resolved against t: replication expansion, kernel carry-over,
// classification, and dummy intervals.
func (p *Pipeline) applyPlan(t *Topology, plan ReplicationPlan, kernels map[NodeID]Kernel) error {
	p.topo = t
	// Replication wraps the replicated node's kernel in per-replica
	// adapters, which would silently erase a timed kernel's TimedKernel
	// surface — the replicas would fall to the plain dispatch path and
	// drop every element.  Checked against the original kernels, before
	// the wrap hides the interface.
	for name, n := range plan {
		if n == 1 {
			continue
		}
		if id, ok := t.g.NodeByName(name); ok {
			if _, timed := kernels[id].(stream.TimedKernel); timed {
				return fmt.Errorf("streamdag: replication: node %q is a time-aware stage and cannot be replicated — replicas would partition its single window state", name)
			}
		}
	}
	if len(plan) > 0 {
		rep, err := expand(t, plan)
		if err != nil {
			return err
		}
		p.topo = rep.Topology()
		kernels = rep.res.Kernels(kernels)
	}
	p.kernels = kernels

	a, err := Analyze(p.topo)
	if err != nil {
		return err
	}
	p.analysis = a
	p.intervals = nil
	if p.avoidance {
		iv, err := a.Intervals(p.alg)
		if err != nil {
			return err
		}
		p.intervals = iv
	}
	return nil
}

// validateTimed checks the expanded topology against the timed path's
// structural contract: a time-aware kernel runs on exactly one input and
// at least one output (the backends dispatch it to the re-sequencing
// loop only then), and a kernel instance may serve only one node —
// replication shares the instance across replicas, which for a stateful
// timed kernel would mean concurrent mutation of one window state.
// Checked after the plan is applied, as a backstop behind applyPlan's
// explicit plan screen, so a structural violation fails at Build, never
// silently at run time.  (A replicated
// stage directly upstream is fine: expansion inserts a merge node, so
// the timed node still sees exactly one ordered input edge.)
func (p *Pipeline) validateTimed() error {
	g := p.topo.g
	seen := make(map[Kernel]NodeID)
	for id, k := range p.kernels {
		if _, ok := k.(stream.TimedKernel); !ok {
			continue
		}
		if prev, dup := seen[k]; dup {
			return fmt.Errorf("streamdag: build: time-aware kernel shared by nodes %q and %q — replicating a time-aware stage would share one window state across replicas",
				g.Name(prev), g.Name(id))
		}
		seen[k] = id
		if len(g.In(id)) != 1 || len(g.Out(id)) == 0 {
			return fmt.Errorf("streamdag: build: time-aware node %q needs exactly one input and at least one output, got %d and %d — it cannot directly follow a replicated stage or sit at a topology endpoint",
				g.Name(id), len(g.In(id)), len(g.Out(id)))
		}
	}
	return nil
}

// Topology returns the topology the pipeline executes — the expanded one
// when replication was requested.
func (p *Pipeline) Topology() *Topology { return p.topo }

// Analysis returns the pipeline's classification.
func (p *Pipeline) Analysis() *Analysis { return p.analysis }

// Class returns the topology family (SP, CS4, or General).
func (p *Pipeline) Class() Class { return p.analysis.Class() }

// Intervals returns the computed per-edge dummy intervals, keyed by the
// executed (expanded) topology's edges; nil when built
// WithoutAvoidance.
func (p *Pipeline) Intervals() map[EdgeID]Interval { return p.intervals }

// Run executes the pipeline on its backend: payloads pulled from source
// flow through the topology under the dummy protocol, and sink-node
// emissions are delivered to sink in ascending sequence order.  Run
// returns when the source ends and the stream drains, when ctx is
// cancelled (ctx.Err() is returned), when source or sink returns an
// error, or when deadlock is detected.  A nil sink discards emissions
// (they are still counted).
//
// Run is a convenience over the Engine API — it spins up a resident
// engine, opens one session, waits, and closes — so every run re-pays
// the per-process setup the Engine exists to amortize.  Services
// streaming more than once should hold a Pipeline.Engine and Open a
// session per stream.
//
// A Pipeline is reusable: sequential Runs (with a fresh Source each, as
// Sources are single-use) behave identically as long as hand-wired
// kernels are stateless — Flow-compiled pipelines re-initialize their
// Stateful stages at the start of every Run.  For concurrent streams,
// use Engine.Open; concurrent Runs of one Pipeline are not supported.
//
// For Flow-compiled pipelines, a payload that reached a stage with the
// wrong dynamic type was filtered at that stage, and the first such
// mismatch is returned as a *StageTypeError once the run finishes.
func (p *Pipeline) Run(ctx context.Context, source Source, sink Sink) (*RunStats, error) {
	if source == nil {
		return nil, errors.New("streamdag: Pipeline.Run: nil Source (use CountingSource for synthetic sequence numbers)")
	}
	if sink == nil {
		sink = DiscardSink()
	}
	eng, err := p.Engine()
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ses, err := eng.Open(ctx, source, sink)
	if err != nil {
		return nil, err
	}
	return ses.Wait()
}

// Backend executes a built Pipeline.  The three implementations —
// Goroutines, Simulator, and Distributed — run the identical
// ingestion/delivery contract: same node semantics, same protocol
// engine, same Source/Sink endpoints; only the transport differs.  The
// interface is sealed; pick an implementation with its constructor.
type Backend interface {
	// String names the backend for diagnostics and benchmarks.
	String() string

	// newEngine starts the backend's resident runtime for p; all
	// execution — including Pipeline.Run — flows through it.
	newEngine(p *Pipeline) (backendEngine, error)
}

// anyTimedKernel reports whether any kernel runs on the backends' timed
// path (stream.TimedKernel — see stage_time.go and internal/stream).
func anyTimedKernel(ks map[NodeID]Kernel) bool {
	for _, k := range ks {
		if _, ok := k.(stream.TimedKernel); ok {
			return true
		}
	}
	return false
}

// clockUser is the unexported injection point the time-aware stage
// kernels expose (timedCore.setClock); hand-wired kernels manage their
// own clocks and are left alone.
type clockUser interface{ setClock(clock.Clock) }

// injectClock hands c to every kernel that accepts one.
func injectClock(ks map[NodeID]Kernel, c clock.Clock) {
	for _, k := range ks {
		if cu, ok := k.(clockUser); ok {
			cu.setClock(c)
		}
	}
}

// goroutineBackend executes on the in-process concurrent runtime.
type goroutineBackend struct{}

// Goroutines is the default backend: resident per-node workers, credit
// windows sized to the topology's channels, and a progress watchdog for
// deadlock detection.
func Goroutines() Backend { return goroutineBackend{} }

func (goroutineBackend) String() string { return "goroutines" }

// simulatorBackend executes on the deterministic discrete-step
// simulator.
type simulatorBackend struct{}

// Simulator is the deterministic backend: the same kernels and protocol
// run under a sequential round-robin scheduler with exact deadlock
// detection — results are schedule-independent, making it the oracle
// the concurrent backends are tested against.  Kernels must be pure.
//
// Because the scheduler is a single goroutine, simulator sessions must
// use non-blocking Sources and Sinks (SliceSource, CountingSource, a
// Collector): a callback that blocks — a ChannelSource awaiting a send,
// a backpressuring ChannelSink — parks the scheduler and stalls every
// concurrent session (and their Cancels) until it returns.  The
// concurrent backends have no such restriction.
func Simulator() Backend { return simulatorBackend{} }

func (simulatorBackend) String() string { return "simulator" }

// distributedBackend executes across TCP-connected workers hosted in
// this process.
type distributedBackend struct {
	assign map[string]string
}

// Distributed is the loopback-partitioned backend: every worker lives in
// the calling process, and every channel between two workers is a real
// loopback TCP link.  assign maps every node name (of the executed
// topology — expanded names like "work.1" when replicating) to a worker
// name.  Cross-worker channels keep their finite capacities over the
// wire via credit-based flow control, so the dummy intervals protect the
// distributed run exactly as they protect the in-process one.  The Source
// is pulled by the worker hosting the topology's source node and the Sink
// fed by the worker hosting the sink; payloads crossing workers must
// round-trip the wire codec (scalars, strings, []byte natively; other
// types via gob.Register).  Workers in separate processes are not
// currently supported.
func Distributed(assign map[string]string) Backend {
	return distributedBackend{assign: assign}
}

func (b distributedBackend) String() string { return "distributed" }
