// Package sim is a deterministic discrete-step simulator of the paper's
// streaming model: a DAG of nodes joined by bounded FIFO channels carrying
// sequence-numbered messages, with data-dependent filtering and the two
// dummy-message deadlock-avoidance protocols.
//
// Unlike the goroutine runtime (package stream), the simulator detects
// deadlock exactly: it runs nodes round-robin until the stream completes or
// no node can make progress.  Because nodes are deterministic and channels
// are FIFO, the network is confluent (a Kahn network with bounded buffers):
// whether the run completes is independent of the schedule, so a single
// deterministic schedule is a sound and complete deadlock oracle.  The
// simulator is the ground truth for the safety experiments (E10–E12) and
// for validating the runtime itself.
//
// The simulator is a specification, not a second runtime: every step is
// one firing of one element.  The runtime backends' passes, which fire up
// to 64 elements and ship them as one run, are a transport property that
// must leave the logical stream unchanged, which is exactly what comparing
// the engine against this one-element schedule checks.
package sim

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"streamdag/internal/clock"
	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/ival"
	"streamdag/internal/obs"
	"streamdag/internal/proto"
	"streamdag/internal/stream"
)

// Filter decides routing: whether node emits a data message for sequence
// number seq on its outgoing edge e, given that it received data for seq.
// Filters must be pure functions so runs are reproducible and the
// confluence argument holds.
type Filter func(node graph.NodeID, seq uint64, e graph.EdgeID) bool

// EmitAll never filters.
func EmitAll(graph.NodeID, uint64, graph.EdgeID) bool { return true }

// Kind discriminates simulated messages; it is the protocol engine's Kind.
type Kind = proto.Kind

const (
	// Data is an ordinary message.
	Data = proto.Data
	// Dummy is a content-free deadlock-avoidance message.
	Dummy = proto.Dummy
	// EOS is the end-of-stream marker, broadcast on every channel after
	// the last input so nodes can drain and terminate.
	EOS = proto.EOS
)

// message is a simulated message; EOS uses seq = proto.EOSSeq.  payload
// is carried only in kernel mode (Config.Kernels != nil).
type message struct {
	seq     uint64
	kind    Kind
	payload any
}

// Config parameterizes a simulation run.
type Config struct {
	// Algorithm selects the dummy protocol used when Intervals != nil.
	Algorithm cs4.Algorithm
	// Intervals are the per-edge dummy intervals; nil disables dummy
	// messages entirely (the unsafe baseline).  +∞ entries never send.
	Intervals map[graph.EdgeID]ival.Interval
	// Inputs is the number of sequence numbers injected at the source
	// when Source is nil.
	Inputs uint64
	// Kernels switches the simulator into kernel mode: instead of the
	// payload-less Filter, every node fires its stream.Kernel through
	// stream.SliceForm — the exact call of the goroutine and distributed
	// runtimes — and messages carry payloads.  Kernels must be pure for
	// the confluence argument (and therefore the deadlock oracle) to hold.
	// Missing entries default to stream.Passthrough.
	Kernels map[graph.NodeID]stream.Kernel
	// Source, when non-nil, supplies the payloads injected at the source
	// node; Inputs is then ignored.
	Source stream.SourceFunc
	// Sink, when non-nil, receives the sink node's data-carrying firings
	// in ascending sequence order.
	Sink stream.SinkFunc
	// Ctx, when non-nil, is polled between scheduler steps; cancellation
	// stops the run with Reason "canceled" and Err = context.Cause(Ctx).
	// It is also the context passed to Source and Sink.
	Ctx context.Context
	// MaxSteps bounds the scheduler; 0 means no bound.  Runs exceeding
	// the bound report Completed=false with Reason "step budget".
	MaxSteps int64
	// MaxBatch is ignored: the reference schedule fires one element per
	// step (see the package doc).
	//
	// Deprecated: the field has no effect.
	MaxBatch int
	// Obs, when non-nil, receives per-node/per-edge/per-session telemetry.
	// The simulator stamps it virtual: every duration metric (service
	// time, credit-stall time, session latency) is measured in scheduler
	// steps, never wall clock, so two runs of the same configuration
	// produce byte-identical snapshots.
	Obs *obs.Metrics
	// Clock, when non-nil, is the virtual clock backing time-aware
	// kernels (stream.TimedKernel): the simulator advances it
	// deterministically — roundTime (one millisecond) of virtual time
	// per scheduler round of this session — and delivers due flush-timer
	// deadlines between consumes, so window boundaries are a pure
	// function of the input and bit-identical across runs.  A round with
	// no other progress jumps the clock to the earliest pending deadline
	// instead of declaring deadlock: the stream is waiting for time, which
	// the simulator can fast-forward.  The caller must inject the same Fake
	// into the kernels.  Concurrent sessions share the clock (it only
	// moves forward), so per-session virtual time is deterministic only
	// for serial sessions — which time-aware stages already force, being
	// stateful.
	Clock *clock.Fake
}

// roundTime is the virtual time one scheduler round represents when
// Config.Clock is set.
const roundTime = time.Millisecond

// Result summarizes a run.
type Result struct {
	Completed bool
	// Reason is empty on success, otherwise "deadlock", "step budget",
	// "canceled", "source error", or "sink error".
	Reason string
	// Err carries the underlying error for the "canceled", "source
	// error", and "sink error" reasons.
	Err   error
	Steps int64
	// DataMsgs and DummyMsgs count messages delivered per edge.
	DataMsgs  map[graph.EdgeID]int64
	DummyMsgs map[graph.EdgeID]int64
	// SinkData counts data-carrying firings at the sink — the simulated
	// counterpart of stream.Stats.SinkData, for runtime/simulator
	// equivalence checks.
	SinkData int64
	// Elapsed is wall-clock time from open to resolution for Engine
	// sessions; Run leaves it zero (callers time Run themselves).
	Elapsed time.Duration
	// Blocked describes the stuck configuration on deadlock: for each
	// node, what it is waiting for.
	Blocked []string
	// Channels and Stalled are the wedge on deadlock in the runtime
	// backends' form (stream.DeadlockError): "from→to" to
	// "occupied/capacity" for every edge, and the full edges, sorted.
	Channels map[string]string
	Stalled  []string
}

// TotalData sums data messages across edges.
func (r *Result) TotalData() int64 { return sumMap(r.DataMsgs) }

// TotalDummy sums dummy messages across edges.
func (r *Result) TotalDummy() int64 { return sumMap(r.DummyMsgs) }

// Overhead is the dummy-to-data traffic ratio.
func (r *Result) Overhead() float64 {
	d := r.TotalData()
	if d == 0 {
		return math.Inf(1)
	}
	return float64(r.TotalDummy()) / float64(d)
}

func sumMap(m map[graph.EdgeID]int64) int64 {
	var s int64
	for _, v := range m {
		s += v
	}
	return s
}

// node is the simulated state of one compute node.
type node struct {
	id      graph.NodeID
	in, out []graph.EdgeID
	// pending are messages produced but not yet delivered (a node blocks
	// on its first undeliverable send, like a goroutine on a full
	// channel).
	pending []pendingMsg
	// engine holds the per-edge dummy timers and the cascade rule; all
	// protocol decisions live in internal/proto, shared with the
	// goroutine and distributed runtimes.
	engine *proto.Engine
	// kernel is the node's compute code in kernel mode, fired through
	// its stream.SliceForm like on the runtime backends; nil in filter
	// mode.
	kernel stream.SliceKernel
	// outs, emitted, seqs and ins are per-firing scratch: the kernel's
	// output slots and the data mask handed to the engine (one slot each
	// per out-edge, one at a sink: the SinkPayload hook), the input heads'
	// sequence numbers, and the aligned inputs (a source has one, its
	// ingested payload).  In kernel mode the mask is the kernel's
	// presence slice.
	outs    []any
	emitted []bool
	seqs    []uint64
	ins     []stream.Input
	done    bool
	// timed is non-nil when the kernel is time-aware; the node then
	// consumes its input silently and fires only for the kernel's own
	// emissions at outSeq, its private output-sequence counter (see
	// stream/timed.go for the re-sequencing contract).
	timed  stream.TimedKernel
	outSeq uint64
	// runIn is the payload half of a time-aware node's one-element ingest
	// run; seqs, one long at a single-input node, is the other.
	runIn [1]any
	// obsN is the node's telemetry slot, nil when observation is off.
	obsN *obs.NodeMetrics
}

type pendingMsg struct {
	edge graph.EdgeID
	msg  message
	// stalled/stallTick track a send parked on a full channel: the
	// virtual step the stall began, so stall time is measured in
	// scheduler steps and stays deterministic.  Used only when Config.Obs
	// is set.
	stalled   bool
	stallTick int64
}

// Run simulates the streaming computation defined by g and filter under
// cfg.  g must be a validated two-terminal DAG.  When cfg.Kernels is
// non-nil the simulator runs in kernel mode and filter is ignored.
func Run(g *graph.Graph, filter Filter, cfg Config) *Result {
	s := newState(g, filter, cfg)
	if s.obsS != nil {
		s.obsS.Opened.Add(1)
		s.obsS.Active.Add(1)
	}
	s.run()
	if s.obsS != nil {
		s.finishObs()
	}
	return s.res
}

// finishObs records a resolved stream against the session telemetry:
// lifecycle counters plus open→EOF latency, measured in virtual scheduler
// steps so repeated runs observe identical values.
func (s *state) finishObs() {
	s.obsS.Active.Add(-1)
	if s.res.Completed {
		s.obsS.Completed.Add(1)
	} else {
		s.obsS.Failed.Add(1)
		// A failed stream strands its buffered messages; fold them into
		// the drained counts so the queue-depth gauge converges.  (For a
		// deadlocked stream the pre-fold depths are what the wedge
		// snapshot reports — this runs after that snapshot is taken.)
		for i := range s.chans {
			ch := &s.chans[i]
			if ch.obsE != nil && len(ch.buf) > 0 {
				ch.obsE.Consumed.Add(int64(len(ch.buf)))
			}
		}
	}
	s.obsS.Latency.Observe(s.res.Steps)
}

// newState builds one stream's simulation state; Run drives it to
// completion in one go, the multi-session Engine interleaves several.
func newState(g *graph.Graph, filter Filter, cfg Config) *state {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("sim: invalid graph: %v", err))
	}
	if filter == nil {
		filter = EmitAll
	}
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	if cfg.Source == nil {
		cfg.Source = stream.SyntheticSource(cfg.Inputs)
	}
	s := &state{
		g:          g,
		filter:     filter,
		cfg:        cfg,
		kernelMode: cfg.Kernels != nil,
		chans:      make([]chanState, g.NumEdges()),
		res: &Result{
			DataMsgs:  make(map[graph.EdgeID]int64, g.NumEdges()),
			DummyMsgs: make(map[graph.EdgeID]int64, g.NumEdges()),
		},
	}
	if cfg.Clock != nil {
		s.vbase = cfg.Clock.Now()
	}
	for i := range s.chans {
		s.chans[i].cap = g.Edge(graph.EdgeID(i)).Buf
	}
	if m := cfg.Obs; m != nil {
		m.SetVirtual(true)
		s.obsS = m.Sessions()
		for i := range s.chans {
			s.chans[i].obsE = m.Edge(i)
		}
	}
	topo, _ := g.TopoOrder()
	for _, n := range topo {
		nd := &node{id: n, in: g.In(n), out: g.Out(n)}
		if cfg.Obs != nil {
			nd.obsN = cfg.Obs.Node(int(n))
		}
		nd.engine = proto.NewEngine(nd.out, protoConfig(cfg))
		nd.outs = make([]any, max(len(nd.out), 1))
		nd.emitted = make([]bool, max(len(nd.out), 1))
		nd.seqs = make([]uint64, len(nd.in))
		nd.ins = make([]stream.Input, max(len(nd.in), 1))
		if s.kernelMode {
			k := cfg.Kernels[n]
			if k == nil {
				k = stream.Passthrough(len(nd.out))
			}
			nd.kernel = stream.SliceForm(k)
			if tk, ok := k.(stream.TimedKernel); ok && len(nd.in) == 1 && len(nd.out) > 0 && cfg.Clock != nil {
				nd.timed = tk
			}
		}
		s.nodes = append(s.nodes, nd)
	}
	return s
}

// protoConfig converts a simulator Config into the shared engine's.
func protoConfig(cfg Config) proto.Config {
	return proto.Config{
		Algorithm: cfg.Algorithm,
		Intervals: cfg.Intervals,
	}
}

type chanState struct {
	buf []message
	cap int
	// obsE is the edge's telemetry slot, nil when observation is off.
	obsE *obs.EdgeMetrics
}

func (c *chanState) full() bool  { return len(c.buf) >= c.cap }
func (c *chanState) empty() bool { return len(c.buf) == 0 }

type state struct {
	g          *graph.Graph
	filter     Filter
	cfg        Config
	kernelMode bool
	nodes      []*node
	chans      []chanState
	res        *Result
	nextIn     uint64 // next external input seq at the source
	failed     bool   // a source/sink error already set res.Reason/Err
	// obsS is the session telemetry slot, nil when observation is off.
	obsS *obs.SessionMetrics
	// vbase maps this session's Steps onto the shared virtual clock
	// (Clock != nil only): each round moves time to
	// vbase + Steps·roundTime, never backwards.
	vbase time.Time
}

func (s *state) run() {
	for !s.advanceOnce() {
	}
}

// advanceOnce performs one scheduler round for this stream — a full node
// sweep plus the completion checks — and reports whether the run
// resolved (s.res then carries the outcome).  A round with no progress
// is deadlock: the stream's channels are self-contained, so nothing
// outside the sweep can unblock it.
func (s *state) advanceOnce() (done bool) {
	if s.canceled() {
		return true
	}
	if s.cfg.Clock != nil {
		// Virtual time is a pure function of this session's step count —
		// Set never moves backwards, so a prior deadline jump holds.
		s.cfg.Clock.Set(s.vbase.Add(time.Duration(s.res.Steps) * roundTime))
	}
	progress := false
	for _, nd := range s.nodes {
		for s.step(nd) {
			progress = true
			s.res.Steps++
			if s.cfg.MaxSteps > 0 && s.res.Steps >= s.cfg.MaxSteps {
				s.res.Reason = "step budget"
				return true
			}
			if s.res.Steps%1024 == 0 && s.canceled() {
				return true
			}
		}
		if s.failed {
			return true
		}
	}
	if s.allDone() {
		s.res.Completed = true
		return true
	}
	if !progress {
		if s.jumpToNextDeadline() {
			return false
		}
		s.res.Reason = "deadlock"
		s.res.Blocked = s.describeBlocked()
		s.res.Channels, s.res.Stalled = stream.Wedge(s.g, func(e graph.EdgeID) int64 { return int64(len(s.chans[e].buf)) })
		return true
	}
	return false
}

// jumpToNextDeadline advances virtual time to the earliest pending
// flush-timer deadline after a round with no other progress: the stream
// is not wedged, it is waiting for time to pass, which the simulator
// fast-forwards deterministically (the wall backends' watchdogs make
// the matching allowance by suppressing DeadlockError while a flush
// timer is armed).  Reports whether it jumped; a deadline at or before
// now never jumps — the sweep would have delivered it, so reaching here
// with one means a kernel broke the Tick contract, and the deadlock
// verdict stands rather than spinning.
func (s *state) jumpToNextDeadline() bool {
	if s.cfg.Clock == nil {
		return false
	}
	var earliest time.Time
	found := false
	for _, nd := range s.nodes {
		if nd.timed == nil || nd.done {
			continue
		}
		if when, ok := nd.timed.NextDeadline(); ok && (!found || when.Before(earliest)) {
			earliest, found = when, true
		}
	}
	if !found || !earliest.After(s.cfg.Clock.Now()) {
		return false
	}
	s.cfg.Clock.Set(earliest)
	return true
}

// canceled reports whether the run's context is done, recording Reason
// "canceled" and the context's cause as the outcome.
func (s *state) canceled() bool {
	if s.cfg.Ctx.Err() == nil {
		return false
	}
	s.res.Reason = "canceled"
	s.res.Err = context.Cause(s.cfg.Ctx)
	return true
}

// fail records the first source/sink failure and stops the scheduler
// (later failures are consequences of the first and do not overwrite
// it).  A failure after the run's context is done is a callback echoing
// the cancellation, so the cancellation's cause is recorded instead.
func (s *state) fail(reason string, err error) {
	if s.failed {
		return
	}
	s.failed = true
	if s.canceled() {
		return
	}
	s.res.Reason = reason
	s.res.Err = err
}

func (s *state) allDone() bool {
	for _, nd := range s.nodes {
		if !nd.done || len(nd.pending) > 0 {
			return false
		}
	}
	return true
}

// step attempts one unit of work for nd; it returns whether any was done.
func (s *state) step(nd *node) bool {
	if s.failed {
		// A source/sink error aborted the run: no further firings (in
		// particular, no further Sink invocations).
		return false
	}
	// Deliver pending sends first (even after EOS).  A firing produces at
	// most one message per out-channel and sends to distinct channels
	// proceed independently — the node waits on the set of full channels,
	// not on an arbitrary send order (head-of-line blocking across
	// channels would introduce deadlocks the model does not have; the
	// goroutine runtime mirrors this with concurrent sends per firing).
	// The node consumes its next input only when all sends have landed.
	if len(nd.pending) > 0 {
		return s.deliver(nd)
	}
	if nd.done {
		return false
	}
	if len(nd.in) == 0 {
		return s.stepSource(nd)
	}
	if nd.timed != nil {
		return s.stepTimed(nd)
	}
	// Consume: every in-channel must be non-empty.
	for i, e := range nd.in {
		ch := &s.chans[e]
		if ch.empty() {
			return false
		}
		nd.seqs[i] = ch.buf[0].seq
	}
	minSeq := proto.MinSeq(nd.seqs)
	if minSeq == proto.EOSSeq {
		// All heads are EOS: drain them and finish.
		for _, e := range nd.in {
			s.pop(e)
		}
		return s.finish(nd)
	}
	// Pop all heads with seq == minSeq, capturing the aligned inputs.
	anyData := false
	for i, e := range nd.in {
		nd.ins[i] = stream.Input{}
		if nd.seqs[i] != minSeq {
			continue
		}
		if m := s.pop(e); m.kind == Data {
			anyData = true
			nd.ins[i] = stream.Input{Present: true, Payload: m.payload}
		}
	}
	s.fire(nd, minSeq, anyData)
	return true
}

// deliver moves nd's pending sends into every channel with room and
// reports whether any landed.
func (s *state) deliver(nd *node) bool {
	delivered := false
	rest := nd.pending[:0]
	for _, p := range nd.pending {
		ch := &s.chans[p.edge]
		if ch.full() {
			if ch.obsE != nil && !p.stalled {
				p.stalled = true
				p.stallTick = s.res.Steps
				ch.obsE.CreditStalls.Add(1)
			}
			rest = append(rest, p)
			continue
		}
		ch.buf = append(ch.buf, p.msg)
		delivered = true
		switch p.msg.kind {
		case Data:
			s.res.DataMsgs[p.edge]++
		case Dummy:
			s.res.DummyMsgs[p.edge]++
		}
		if ch.obsE != nil {
			if p.stalled {
				ch.obsE.CreditStallTime.Add(s.res.Steps - p.stallTick)
			}
			ch.obsE.Sent.Add(1)
			switch p.msg.kind {
			case Data:
				ch.obsE.Data.Add(1)
			case Dummy:
				ch.obsE.Dummies.Add(1)
			}
		}
	}
	nd.pending = rest
	return delivered
}

// pop dequeues the head of e's channel.
func (s *state) pop(e graph.EdgeID) message {
	ch := &s.chans[e]
	m := ch.buf[0]
	ch.buf = ch.buf[1:]
	if ch.obsE != nil {
		ch.obsE.Consumed.Add(1)
	}
	return m
}

// finish broadcasts EOS on every out-edge and retires nd; it is always
// progress.
func (s *state) finish(nd *node) bool {
	for _, e := range nd.out {
		nd.pending = append(nd.pending, pendingMsg{edge: e, msg: message{seq: proto.EOSSeq, kind: EOS}})
	}
	nd.done = true
	return true
}

// stepSource injects the next external input at the source node: the
// next Source payload (synthetic sequence numbers unless the caller gave
// one) fired at the next sequence number, or EOS once it is exhausted.
func (s *state) stepSource(nd *node) bool {
	payload, ok, err := s.cfg.Source(s.cfg.Ctx)
	if err != nil {
		s.fail("source error", fmt.Errorf("sim: source: %w", err))
		return false
	}
	if !ok {
		return s.finish(nd)
	}
	nd.ins[0] = stream.Input{Present: true, Payload: payload}
	s.fire(nd, s.nextIn, true)
	s.nextIn++
	return true
}

// stepTimed is one unit of work for a time-aware node: a due flush
// deadline is delivered first (virtual time outranks queued input, so a
// window closing at T never absorbs an element the clock says arrived
// after T), then one input is consumed — dummies silently, data into
// the kernel as a run of one at the step's clock reading (the run-form
// ingest the runtime backends call with longer runs), EOS via the
// unconditional Flush — and any matured emissions fire in the node's
// private output-sequence space.
func (s *state) stepTimed(nd *node) bool {
	now := s.cfg.Clock.Now()
	if when, ok := nd.timed.NextDeadline(); ok && !when.After(now) {
		nd.timed.Tick(now)
		if nd.obsN != nil {
			nd.obsN.ServiceTime.Add(1)
		}
		if m := s.cfg.Obs; m != nil {
			m.Time().TimerTicks.Add(1)
		}
		s.drainTimed(nd)
		return true // the consumed deadline is progress even if it emitted nothing
	}
	if s.chans[nd.in[0]].empty() {
		return false
	}
	m := s.pop(nd.in[0])
	if nd.obsN != nil {
		nd.obsN.ServiceTime.Add(1)
	}
	if m.seq == proto.EOSSeq {
		nd.timed.Flush()
		s.drainTimed(nd)
		return s.finish(nd)
	}
	if m.kind == Data {
		nd.seqs[0], nd.runIn[0] = m.seq, m.payload
		nd.timed.Ingest(now, nd.seqs, nd.runIn[:])
		nd.runIn[0] = nil
		if nd.obsN != nil {
			nd.obsN.Firings.Add(1)
		}
	}
	s.drainTimed(nd)
	return true
}

// drainTimed queues the kernel's matured emissions: one firing per
// emission at consecutive private output sequence numbers, data on
// every out-edge under the all-emitted mask — which never dummies, the
// protocol-safety half of the re-sequencing contract (stream/timed.go).
func (s *state) drainTimed(nd *node) {
	ems := nd.timed.TakeEmissions()
	for i := range nd.emitted {
		nd.emitted[i] = true
	}
	for _, em := range ems {
		for _, e := range nd.out {
			nd.pending = append(nd.pending, pendingMsg{edge: e, msg: message{seq: nd.outSeq, kind: Data, payload: em}})
		}
		nd.engine.Fire(nd.outSeq, nd.emitted)
		nd.outSeq++
	}
	if m := s.cfg.Obs; m != nil && len(ems) > 0 {
		m.Time().TimedEmissions.Add(int64(len(ems)))
	}
}

// fire is one firing of nd at sequence number seq on the aligned inputs
// in nd.ins: decide which out-edges carry data, deliver a sink's data,
// and queue the data plus the dummies the protocol engine requires.  In
// kernel mode the kernel's ProcessInto decides (an edge carries data iff
// its slot is present) and its slots are the payloads; in filter mode the
// Filter decides.  A firing without data emits none, but may still dummy.
//
// Protocol notes (see DESIGN.md, "Fidelity notes"):
//
//   - Dummy timers measure distance in SEQUENCE NUMBERS since the last
//     message sent on the edge.  Counting consumed inputs instead is
//     unsound: a node fed sparse (upstream-filtered) traffic advances many
//     sequence numbers per consume and would starve its successors beyond
//     the interval bound.
//   - Propagation algorithm: an input that yields no data on any output is
//     informationally identical to a dummy — sequence number seq happened
//     and nothing follows — and must cascade like one ("dummy messages may
//     not be filtered").  This covers both dummy-only inputs and inputs
//     whose data the node filtered entirely; without the latter, a fully
//     filtering pass-through node (a recognizer that never fires, as in
//     the paper's own Fig. 1 narrative) starves its cycle with no dummy to
//     propagate, and no finite timer exists on its edges ([e] = ∞ for
//     interior edges under Propagation).  A split that emits data on
//     some outputs does not cascade, and timers do not cover it either:
//     per-edge filters at a split inside another cycle can leave an edge
//     silent longer than the outer cycle's buffers absorb, and the run
//     deadlocks (DESIGN.md "Protocol soundness", note 1;
//     TestPropagationWitnessDeadlocks in internal/mc).
func (s *state) fire(nd *node, seq uint64, anyData bool) {
	if nd.obsN != nil {
		nd.obsN.ServiceTime.Add(1)
		if anyData {
			nd.obsN.Firings.Add(1)
		}
	}
	if !s.kernelMode {
		for i, e := range nd.out {
			nd.emitted[i] = anyData && s.filter(nd.id, seq, e)
		}
	} else if anyData {
		nd.kernel.ProcessInto(seq, nd.ins, nd.outs, nd.emitted)
	}
	if anyData && len(nd.out) == 0 {
		if err := s.sinkDeliver(nd, seq); err != nil {
			s.fail("sink error", fmt.Errorf("sim: sink: %w", err))
			return
		}
	}
	dummy := nd.engine.Fire(seq, nd.emitted[:len(nd.out)])
	for i, e := range nd.out {
		switch {
		case nd.emitted[i]:
			nd.pending = append(nd.pending, pendingMsg{edge: e, msg: message{seq: seq, kind: Data, payload: nd.outs[i]}})
		case dummy[i]:
			nd.pending = append(nd.pending, pendingMsg{edge: e, msg: message{seq: seq, kind: Dummy}})
		}
	}
	clear(nd.outs) // the next firing's slots arrive zeroed
	clear(nd.emitted)
}

// sinkDeliver records one data-carrying sink firing and hands its
// payload to the Sink.
func (s *state) sinkDeliver(nd *node, seq uint64) error {
	s.res.SinkData++
	if s.obsS != nil {
		s.obsS.SinkMsgs.Add(1)
	}
	if s.cfg.Sink != nil {
		return s.cfg.Sink(s.cfg.Ctx, seq, stream.SinkPayload(nd.ins, nd.outs, nd.emitted))
	}
	return nil
}

// describeBlocked renders the stuck configuration (the full/empty pattern
// of Fig. 2) for diagnostics.
func (s *state) describeBlocked() []string {
	var out []string
	for _, nd := range s.nodes {
		if nd.done {
			continue
		}
		if len(nd.pending) > 0 {
			e := nd.pending[0].edge
			out = append(out, fmt.Sprintf("%s blocked sending on %s→%s (full)",
				s.g.Name(nd.id), s.g.Name(s.g.Edge(e).From), s.g.Name(s.g.Edge(e).To)))
			continue
		}
		var empties []string
		for _, e := range nd.in {
			if s.chans[e].empty() {
				empties = append(empties,
					fmt.Sprintf("%s→%s", s.g.Name(s.g.Edge(e).From), s.g.Name(s.g.Edge(e).To)))
			}
		}
		if len(empties) > 0 {
			out = append(out, fmt.Sprintf("%s waiting on empty %s",
				s.g.Name(nd.id), strings.Join(empties, ", ")))
		}
	}
	return out
}
