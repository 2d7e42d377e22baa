package streamdag

// This file is the elastic-replication surface: live rescaling of a
// node's replica count on a resident Engine, and the autoscaler that
// drives it (see DESIGN.md, "Elastic replication").
//
// Replication is the library's scaling lever — a hot node expands into
// k class-preserved replicas behind a splitter/merger pair — but Build
// fixes k statically.  Rescale re-plans k on a live engine: the
// expanded topology is recompiled in the background through the same
// Build path (validate → replicate → classify → intervals), checked for
// class preservation so the deadlock-freedom guarantee survives the
// swap, and committed as a new engine *generation*.  New Opens land on
// the new generation's resident workers; sessions already streaming
// drain on the old one, bounded by a drain deadline — past it,
// retry-armed sessions migrate to the new generation exactly-once
// (rewind + sink de-duplication, PR 8's machinery) and bare sessions
// fail with ErrSessionEvicted.  The old workers then retire.
//
// WithAutoscale closes the loop: a controller samples Engine.Metrics —
// on a wall-clock ticker for the concurrent backends, on the
// simulator's virtual round counter for deterministic tests — and feeds
// the bottleneck detector (internal/scale), which picks the hot node
// from per-replica service time and inbound queue/stall trends and
// emits hysteretic scale decisions the engine applies live.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamdag/internal/obs"
	"streamdag/internal/scale"
)

// ErrSessionEvicted is the failure of a session whose engine generation
// was replaced by a rescale and which was still streaming when the
// drain deadline passed.  Sessions armed with WithRetry and a
// ReplayableSource migrate to the new generation instead of failing.
var ErrSessionEvicted = errors.New("streamdag: session evicted by rescale drain deadline (arm WithRetry with a ReplayableSource to migrate live sessions instead)")

// Elastic is a node's replica-count range for autoscaling: the
// controller keeps k within [Min, Max].  Stage.Elastic and
// ScalePolicy.Nodes both produce these marks.
type Elastic struct {
	Min, Max int
}

// ScaleEvent reports one rescale — applied or failed — to the
// ScalePolicy.OnEvent callback.
type ScaleEvent struct {
	Node   string // logical (pre-replication) node name
	FromK  int
	ToK    int
	Reason string // detector reasoning, or "manual"
	Auto   bool   // true when the autoscaler decided, false for Engine.Rescale
	Err    error  // non-nil when the swap failed (the old generation keeps serving)
}

// ScalePolicy configures WithAutoscale.  The zero value is usable:
// every field has a default, and nodes can be marked elastic with
// Stage.Elastic instead of Nodes.
type ScalePolicy struct {
	// Interval is the metrics sampling period on the wall-clock backends
	// (default 250ms).
	Interval time.Duration
	// StepInterval is the sampling period on the Simulator backend, in
	// scheduler rounds (default 25) — virtual time, so autoscale runs
	// are deterministic.
	StepInterval int64
	// Window is the number of samples the detector needs before judging
	// a node (default 3).
	Window int
	// UpUtil scales a node up when its windowed utilization — service
	// time per replica per unit time — reaches it (default 0.80).
	UpUtil float64
	// DownUtil scales down when utilization falls to or below it and
	// inbound queue depth is not rising (default 0.20).  Must stay below
	// UpUtil: the gap is the hysteresis band.
	DownUtil float64
	// TargetUtil is what scale-up sizes toward: new k is
	// ceil(k·util/TargetUtil) (default 0.65).
	TargetUtil float64
	// CooldownSamples is the minimum number of sampling periods between
	// two decisions for one node (default 6).
	CooldownSamples int
	// MaxStep caps how many replicas one scale-up may add (default 0 =
	// no cap beyond the node's Max).
	MaxStep int
	// Nodes marks nodes elastic by name, merged with (and overriding)
	// Stage.Elastic marks.
	Nodes map[string]Elastic
	// DrainTimeout bounds how long a replaced generation may keep
	// serving its old sessions before they are migrated or evicted
	// (default 30s).
	DrainTimeout time.Duration
	// OnEvent, when non-nil, observes every rescale (manual ones too).
	// Called from the controller or Rescale caller's goroutine; must not
	// call back into the engine's scale surface.
	OnEvent func(ScaleEvent)
}

// normalized returns sp with unset fields defaulted.
func (sp ScalePolicy) normalized() ScalePolicy {
	if sp.Interval <= 0 {
		sp.Interval = 250 * time.Millisecond
	}
	if sp.StepInterval <= 0 {
		sp.StepInterval = 25
	}
	if sp.CooldownSamples == 0 {
		sp.CooldownSamples = 6
	}
	if sp.DrainTimeout <= 0 {
		sp.DrainTimeout = 30 * time.Second
	}
	return sp
}

// validate rejects a policy the detector would refuse.
func (sp *ScalePolicy) validate() error {
	if sp.CooldownSamples < 0 {
		return fmt.Errorf("streamdag: build: negative CooldownSamples %d", sp.CooldownSamples)
	}
	_, err := sp.detectorPolicy(1).Normalize()
	return err
}

// detectorPolicy maps the public policy onto the detector's, with the
// cooldown expressed in the given clock unit (nanoseconds per sampling
// interval on the wall-clock backends, rounds per interval on the
// simulator).
func (sp *ScalePolicy) detectorPolicy(unit int64) scale.Policy {
	return scale.Policy{
		Window:     sp.Window,
		UpUtil:     sp.UpUtil,
		DownUtil:   sp.DownUtil,
		TargetUtil: sp.TargetUtil,
		Cooldown:   int64(sp.CooldownSamples) * unit,
		MaxStep:    sp.MaxStep,
	}
}

// WithAutoscale arms the elastic-replication controller: the engine
// samples its own metrics, detects the bottleneck node among the
// elastic ones, and re-plans its replica count live.  Autoscaling
// implies an Observer (one is created if none is attached) and requires
// at least one elastic node — from p.Nodes or Stage.Elastic.
func WithAutoscale(p ScalePolicy) Option {
	return func(c *buildConfig) { c.scale = &p }
}

// withElasticMarks carries Stage.Elastic marks from Flow.Compile.
func withElasticMarks(marks map[string]Elastic) Option {
	return func(c *buildConfig) {
		if len(marks) == 0 {
			return
		}
		if c.elastic == nil {
			c.elastic = make(map[string]Elastic, len(marks))
		}
		for n, el := range marks {
			c.elastic[n] = el
		}
	}
}

// ---------------------------------------------------------------------
// The virtual-clock tap.

type stepFn func(int64)

// stepHook lets the autoscale controller ride the simulator scheduler's
// round counter without the backend knowing about the controller: each
// generation's sim engine is built with its pipeline hook's call as
// Config.OnStep, and the controller arms exactly one generation's hook
// at a time — the current one — so a draining engine can't tick the
// clock.  call is wait-free; an unarmed hook is a single atomic load.
type stepHook struct{ fn atomic.Value }

func (h *stepHook) arm(fn func(int64)) { h.fn.Store(stepFn(fn)) }
func (h *stepHook) disarm()            { h.fn.Store(stepFn(nil)) }

func (h *stepHook) call(step int64) {
	if fn, _ := h.fn.Load().(stepFn); fn != nil {
		fn(step)
	}
}

// ---------------------------------------------------------------------
// Pipeline helpers.

// elasticNodes merges Stage.Elastic marks with the policy's Nodes (the
// policy wins on conflict).
func (p *Pipeline) elasticNodes() map[string]Elastic {
	out := make(map[string]Elastic, len(p.elastic))
	for n, el := range p.elastic {
		out[n] = el
	}
	if p.scale != nil {
		for n, el := range p.scale.Nodes {
			out[n] = el
		}
	}
	return out
}

// planValue returns the node's current replica count under p's plan.
func (p *Pipeline) planValue(name string) int {
	if k := p.plan[name]; k > 1 {
		return k
	}
	return 1
}

// drainTimeout is how long a retired generation may keep its sessions.
func (p *Pipeline) drainTimeout() time.Duration {
	if p.scale != nil {
		return p.scale.DrainTimeout
	}
	return 30 * time.Second
}

// scaleSpecs describes the elastic nodes as they appear in p's executed
// topology — replica names and inbound pressure edges — for the
// detector.  Deterministic order (sorted by name).
func (p *Pipeline) scaleSpecs() []scale.NodeSpec {
	elastic := p.elasticNodes()
	names := make([]string, 0, len(elastic))
	for n := range elastic {
		names = append(names, n)
	}
	sort.Strings(names)
	g := p.topo.g
	specs := make([]scale.NodeSpec, 0, len(names))
	for _, name := range names {
		el := elastic[name]
		k := p.planValue(name)
		spec := scale.NodeSpec{Name: name, K: k, Min: el.Min, Max: el.Max}
		if k > 1 && p.rep != nil {
			if ids, err := p.rep.Replicas(name); err == nil {
				for _, id := range ids {
					spec.Replicas = append(spec.Replicas, g.Name(id))
				}
			}
		}
		if len(spec.Replicas) == 0 {
			spec.Replicas = []string{name}
		}
		// Pressure is measured where the stream enters the node: the
		// splitter when expanded, the node itself otherwise.
		intake := name
		if k > 1 {
			intake = name + ".split"
		}
		for _, ed := range g.Edges() {
			if g.Name(ed.To) == intake {
				spec.Inbound = append(spec.Inbound, g.Name(ed.From)+"→"+intake)
			}
		}
		specs = append(specs, spec)
	}
	return specs
}

// ---------------------------------------------------------------------
// Engine surface.

// GenerationStatus describes one engine generation in ScaleStatus.
type GenerationStatus struct {
	Seq     int    // 1 for the engine's first generation, +1 per rescale
	Backend string // backend name
	Nodes   int    // executed-topology node count
	Active  int    // sessions owned by this generation
	Retired bool   // true for draining generations
}

// ScaleStatus is a point-in-time view of the engine's elastic state.
type ScaleStatus struct {
	// Plan is the live replication plan (nodes at k=1 are absent).
	Plan ReplicationPlan
	// Generations lists the draining generations followed by the
	// current one (always last).
	Generations []GenerationStatus
}

// ScaleStatus reports the engine's live replication plan and its
// generations — more than one while a rescale's old runtime drains.
func (e *Engine) ScaleStatus() ScaleStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := ScaleStatus{Plan: make(ReplicationPlan, len(e.p.plan))}
	for n, k := range e.p.plan {
		st.Plan[n] = k
	}
	gens := append([]*engineGen{}, e.old...)
	gens = append(gens, e.cur)
	for _, g := range gens {
		st.Generations = append(st.Generations, GenerationStatus{
			Seq:     g.seq,
			Backend: g.pipe.backend.String(),
			Nodes:   g.pipe.topo.g.NumNodes(),
			Active:  g.active,
			Retired: g.retired,
		})
	}
	return st
}

// Rescale re-plans one node to k replicas on the live engine: the
// expanded topology is compiled and class-checked in the background,
// its resident runtime starts, and new Opens land on it while existing
// sessions drain on the old one (see DrainTimeout for what happens to
// stragglers).  k=1 collapses the node back to a single instance.  The
// node must be replicable (not the source or sink); if it carries an
// Elastic mark, k must stay within its range.  On error the engine is
// unchanged and keeps serving.
func (e *Engine) Rescale(node string, k int) error {
	return e.rescale(node, k, false, "manual")
}

func (e *Engine) rescale(node string, k int, auto bool, reason string) error {
	e.scaleMu.Lock()
	defer e.scaleMu.Unlock()
	began := time.Now()

	p := e.pipe()
	fromK := p.planValue(node)
	fail := func(err error) error {
		if p.scale != nil && p.scale.OnEvent != nil {
			p.scale.OnEvent(ScaleEvent{Node: node, FromK: fromK, ToK: k, Reason: reason, Auto: auto, Err: err})
		}
		return err
	}

	if k < 1 {
		return fail(fmt.Errorf("streamdag: rescale: k %d < 1 for node %q", k, node))
	}
	if _, ok := p.orig.g.NodeByName(node); !ok {
		return fail(fmt.Errorf("streamdag: rescale: no node %q in the topology", node))
	}
	if el, marked := p.elasticNodes()[node]; marked && (k < el.Min || k > el.Max) {
		return fail(fmt.Errorf("streamdag: rescale: k %d outside node %q's elastic range [%d, %d]", k, node, el.Min, el.Max))
	}
	if fromK == k {
		return nil // no-op, no event
	}
	e.mu.Lock()
	closed, draining := e.closed, e.draining
	e.mu.Unlock()
	if closed {
		return fail(ErrEngineClosed)
	}
	if draining {
		return fail(ErrEngineDraining)
	}

	plan := make(ReplicationPlan, len(p.plan)+1)
	for n, kk := range p.plan {
		plan[n] = kk
	}
	if k > 1 {
		plan[node] = k
	} else {
		delete(plan, node)
	}
	np, err := p.withPlan(plan)
	if err != nil {
		return fail(err)
	}

	// The live observer re-targets the new topology before the runtime
	// starts (backends capture their metrics handle at construction).
	// Lifecycle counters carry over; per-node/edge counters restart —
	// the draining generation keeps feeding the shared totals through
	// the previous collector.
	var prevM *obs.Metrics
	if p.obs != nil {
		prevM = p.obs.rebind(np)
	}
	unbind := func() {
		if p.obs != nil {
			p.obs.restore(prevM)
		}
	}
	impl, err := np.backend.newEngine(np)
	if err != nil {
		unbind()
		return fail(err)
	}

	ng := &engineGen{pipe: np, impl: impl, drained: make(chan struct{})}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		impl.close()
		unbind()
		return fail(ErrEngineClosed)
	}
	old := e.cur
	ng.seq = old.seq + 1
	e.cur = ng
	e.p = np
	old.retired = true
	if old.active <= 0 {
		old.drainedDone = true
		close(old.drained)
	} else {
		e.old = append(e.old, old)
	}
	e.mu.Unlock()

	// Hand the virtual clock to the new generation: the old scheduler
	// stops ticking the controller the moment the swap commits.
	if e.ctl != nil && e.ctl.virtual {
		p.onStep.disarm()
		np.onStep.arm(e.ctl.onStep)
	}

	if m := np.obsMetrics(); m != nil {
		sc := m.Scale()
		if k > fromK {
			sc.ScaleUps.Add(1)
		} else {
			sc.ScaleDowns.Add(1)
		}
		if !m.Virtual() {
			sc.RescaleTime.Add(time.Since(began).Nanoseconds())
		}
	}
	go e.retireGen(old, p.drainTimeout())

	if p.scale != nil && p.scale.OnEvent != nil {
		p.scale.OnEvent(ScaleEvent{Node: node, FromK: fromK, ToK: k, Reason: reason, Auto: auto})
	}
	return nil
}

// retireGen waits out a replaced generation's sessions — evicting or
// migrating stragglers at the drain deadline — then shuts its runtime
// down.
func (e *Engine) retireGen(g *engineGen, deadline time.Duration) {
	t := time.NewTimer(deadline)
	defer t.Stop()
	select {
	case <-g.drained:
	case <-t.C:
		e.evictGen(g)
		<-g.drained
	}
	g.closeImpl()
}

// evictGen forces the drain gate of a generation that outlived its
// deadline: retry-armed sessions abort their in-flight attempt and
// migrate to the current generation (exactly-once, via their dedup
// sink); sessions without a retry policy are cancelled and fail with
// ErrSessionEvicted.
func (e *Engine) evictGen(g *engineGen) {
	e.mu.Lock()
	var migrate []*retryCtl
	var kill []*Session
	for _, s := range e.sessions {
		if s.gen != g {
			continue
		}
		if s.rc != nil {
			migrate = append(migrate, s.rc)
		} else {
			kill = append(kill, s)
		}
	}
	p := e.p
	e.mu.Unlock()
	for _, rc := range migrate {
		rc.evict()
	}
	for _, s := range kill {
		s.end(ErrSessionEvicted)
	}
	if len(kill) > 0 {
		if m := p.obsMetrics(); m != nil {
			m.Scale().SessionsEvicted.Add(int64(len(kill)))
		}
	}
}

// ---------------------------------------------------------------------
// The controller.

// scaleController runs the detection loop for one Engine.  On the
// wall-clock backends a goroutine samples Engine.Metrics every
// Interval; on the simulator the controller rides the scheduler's round
// counter through the pipeline's stepHook, so the entire feedback loop
// — spike, detection, swap — replays deterministically.
type scaleController struct {
	e       *Engine
	pol     ScalePolicy
	det     *scale.Detector
	virtual bool
	t0      time.Time

	stopOnce sync.Once
	stopC    chan struct{}
	doneC    chan struct{}

	mu    sync.Mutex
	steps int64 // cumulative rounds across generations (virtual mode)

	smu    sync.Mutex // serializes sample across generation hand-offs
	genSeq int
}

// newScaleController builds the controller for e's pipeline; called
// from Pipeline.Engine before the engine escapes, so unlocked reads of
// e.p are safe here.
func newScaleController(e *Engine) *scaleController {
	p := e.p
	c := &scaleController{
		e:      e,
		pol:    *p.scale,
		stopC:  make(chan struct{}),
		doneC:  make(chan struct{}),
		genSeq: 1,
	}
	_, c.virtual = p.backend.(simulatorBackend)
	unit := c.pol.Interval.Nanoseconds()
	if c.virtual {
		unit = c.pol.StepInterval
	}
	dp, err := c.pol.detectorPolicy(unit).Normalize()
	if err != nil {
		// Build validated the policy; an error here is a programming bug.
		panic(err)
	}
	c.det = scale.New(dp, p.scaleSpecs())
	return c
}

func (c *scaleController) start() {
	if c.virtual {
		c.e.p.onStep.arm(c.onStep)
		close(c.doneC) // no goroutine to join
		return
	}
	c.t0 = time.Now()
	go c.tickLoop()
}

func (c *scaleController) stop() {
	c.stopOnce.Do(func() {
		close(c.stopC)
		if c.virtual {
			if p := c.e.pipe(); p.onStep != nil {
				p.onStep.disarm()
			}
		}
	})
	<-c.doneC
}

func (c *scaleController) tickLoop() {
	defer close(c.doneC)
	tick := time.NewTicker(c.pol.Interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stopC:
			return
		case <-tick.C:
			c.sample(time.Since(c.t0).Nanoseconds())
		}
	}
}

// onStep is the virtual-clock tap, called by the current generation's
// simulator scheduler after every round.  The controller keeps its own
// cumulative counter: each generation's scheduler restarts at round 1,
// but the detector's clock must be monotonic across swaps.
func (c *scaleController) onStep(int64) {
	select {
	case <-c.stopC:
		return
	default:
	}
	c.mu.Lock()
	c.steps++
	at := c.steps
	due := at%c.pol.StepInterval == 0
	c.mu.Unlock()
	if due {
		c.sample(at)
	}
}

// sample feeds one metrics snapshot to the detector and applies its
// decision, if any.  Serialized: during a virtual-mode swap the old and
// new schedulers can overlap briefly.
func (c *scaleController) sample(at int64) {
	c.smu.Lock()
	defer c.smu.Unlock()
	e := c.e
	e.mu.Lock()
	closed := e.closed
	cur := e.cur
	e.mu.Unlock()
	if closed {
		return
	}
	if cur.seq != c.genSeq {
		// A swap — ours or a manual Rescale — changed the executed
		// topology: re-prime the windows against the new replica names
		// (cooldowns survive by node name).
		c.genSeq = cur.seq
		c.det.Reprime(cur.pipe.scaleSpecs())
	}
	dec := c.det.Observe(at, e.Metrics())
	if dec == nil {
		return
	}
	// A failed swap is reported through OnEvent; the decision's cooldown
	// keeps the controller from hot-looping on it.
	_ = e.rescale(dec.Node, dec.ToK, true, dec.Reason)
}

// ---------------------------------------------------------------------
// Distributed placement.

// forPlan derives the node→worker assignment for a rescaled topology
// from the live one.  Surviving nodes keep their worker (their runtime
// state and links are already there); a logical node's splitter and
// merger follow the node's former worker; fresh replicas go to the
// least-loaded worker, measured by live per-node service time when an
// observer is attached (node count otherwise), with deterministic
// tie-breaking.
func (b distributedBackend) forPlan(np, old *Pipeline) (Backend, error) {
	workers := make([]string, 0, 4)
	seen := make(map[string]bool, 4)
	for _, w := range b.assign {
		if !seen[w] {
			seen[w] = true
			workers = append(workers, w)
		}
	}
	sort.Strings(workers)
	if len(workers) == 0 {
		return nil, errors.New("streamdag: rescale: distributed backend has no workers")
	}

	var snap *Snapshot
	if old.obs != nil {
		snap = old.obs.Snapshot()
	}
	nodeLoad := func(name string) float64 {
		if snap != nil {
			if n := snap.NodeByName(name); n != nil && n.ServiceTime > 0 {
				return float64(n.ServiceTime)
			}
		}
		return 1
	}

	g := np.topo.g
	assign := make(map[string]string, g.NumNodes())
	load := make(map[string]float64, len(workers))
	var missing []string
	for i := 0; i < g.NumNodes(); i++ {
		name := g.Name(NodeID(i))
		if w, ok := b.assign[name]; ok {
			assign[name] = w
			load[w] += nodeLoad(name)
		} else {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	leastLoaded := func() string {
		best := workers[0]
		for _, w := range workers[1:] {
			if load[w] < load[best] {
				best = w
			}
		}
		return best
	}
	for _, name := range missing {
		base, kind := splitRepName(name)
		w := ""
		switch kind {
		case "split", "merge":
			// The rim of a newly expanded node stays on its worker.
			w = b.assign[base]
		case "replica":
			w = leastLoaded()
		default:
			// A bare name reappearing: the node collapsed back to k=1;
			// it lands where its splitter lived.
			w = b.assign[base+".split"]
		}
		if w == "" {
			w = leastLoaded()
		}
		assign[name] = w
		load[w]++
	}
	return distributedBackend{assign: assign}, nil
}

// splitRepName classifies an expanded-topology name the rescale path
// must place: "n.split", "n.merge", "n.<i>" (replica), or a bare
// logical name.  Only names Replicate synthesizes reach this.
func splitRepName(name string) (base, kind string) {
	if strings.HasSuffix(name, ".split") {
		return strings.TrimSuffix(name, ".split"), "split"
	}
	if strings.HasSuffix(name, ".merge") {
		return strings.TrimSuffix(name, ".merge"), "merge"
	}
	if i := strings.LastIndexByte(name, '.'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], "replica"
		}
	}
	return name, ""
}
