// Package stream is the concurrent runtime for streaming computations with
// filtering: a resident Engine (engine.go) keeps one event-loop goroutine
// per compute node, serves any number of logical streams (sessions) over
// them, and gives every session, on every channel of the topology, a
// credit window whose size is the edge's buffer capacity.  The
// dummy-message protocols of Buhler et al. are implemented as a wrapper
// around the user's kernel — no kernel code ever sees a dummy (the
// paper's "no participation by the application programmer").
//
// Per-session credit windows realize the paper's model exactly: reliable
// FIFO delivery, finite buffering, and a producer that cannot run ahead
// of a full channel.  A progress watchdog turns a wedged session into a
// diagnosable DeadlockError instead of a hung process; the deterministic
// oracle lives in package sim.
//
// Payloads enter through SessionConfig.Source (pulled at the topology's
// source node, one sequence number per payload) and sink-node firings
// leave through SessionConfig.Sink in ascending sequence order.
// Cancelling the session's context tears its state down and resolves it
// with ctx.Err().
package stream

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/ival"
	"streamdag/internal/obs"
	"streamdag/internal/proto"
)

// Kind discriminates runtime messages; it is the protocol engine's Kind.
type Kind = proto.Kind

const (
	// Data is an ordinary message with a payload.
	Data = proto.Data
	// Dummy is a content-free deadlock-avoidance message.
	Dummy = proto.Dummy
	// EOS is the end-of-stream marker; the wrapper broadcasts it after the
	// last input so nodes drain and terminate.  Kernels never see it; it is
	// exported for the distributed transport (internal/dist).
	EOS = proto.EOS
)

// Message is one item on a channel.
type Message struct {
	Seq     uint64
	Kind    Kind
	Payload any
}

// Input is what a kernel receives on one in-edge for a sequence number.
type Input struct {
	// Present reports whether a data message with this sequence number
	// arrived on the edge (false ⇒ it was filtered upstream).
	Present bool
	Payload any
}

// Kernel is user code for one node.  Process receives the aligned inputs
// for sequence number seq — one entry per in-edge, in the edge order of
// graph.Graph.In — and returns the outputs keyed by out-edge position
// (graph.Graph.Out order).  Absent keys mean the input is filtered with
// respect to that channel.  Sources (no in-edges) receive a single
// synthetic present Input carrying the ingested payload and are invoked
// once per payload, in ingestion order.  in is engine scratch at every
// width — do not retain it (copy the payloads out).
type Kernel interface {
	Process(seq uint64, in []Input) map[int]any
}

// KernelFunc adapts a function to Kernel.
type KernelFunc func(seq uint64, in []Input) map[int]any

// Process implements Kernel.
func (f KernelFunc) Process(seq uint64, in []Input) map[int]any { return f(seq, in) }

// SliceKernel is the one calling convention inside the module: the
// Engine, the simulator and a replica all fire a kernel through
// ProcessInto, whose outputs go into caller-owned scratch instead of a
// fresh map.  ProcessInto sets out[i] and present[i] = true for every
// out-edge position i it emits on; both slices arrive zeroed, one slot per
// out-edge (one slot, the SinkPayload hook, at a node without out-edges),
// and like in they are reused by the next firing.  SliceForm adapts a
// Kernel that has only Process; every kernel of the library implements
// ProcessInto natively and its Process is MapForm, so a routed or
// filtering firing allocates no map.
type SliceKernel interface {
	Kernel
	ProcessInto(seq uint64, in []Input, out []any, present []bool)
}

// SliceForm returns how k is fired: k itself when it is a SliceKernel,
// otherwise an adapter that reads its Process map — the one place a
// map-returning Process is called.
func SliceForm(k Kernel) SliceKernel {
	if sk, ok := k.(SliceKernel); ok {
		return sk
	}
	return mapAdapter{k}
}

// mapAdapter is the SliceKernel form of a Kernel that only has Process.
type mapAdapter struct{ Kernel }

func (a mapAdapter) ProcessInto(seq uint64, in []Input, out []any, present []bool) {
	outs := a.Process(seq, in)
	for i := range out {
		out[i], present[i] = outs[i]
	}
}

// MapForm is the Process of a SliceKernel: one ProcessInto into
// max(nOut, 1) fresh slots, read back as a map of the positions it
// emitted on (nil when it emitted on none).
func MapForm(k SliceKernel, nOut int, seq uint64, in []Input) map[int]any {
	out, present := make([]any, max(nOut, 1)), make([]bool, max(nOut, 1))
	k.ProcessInto(seq, in, out, present)
	var outs map[int]any
	for i, ok := range present {
		if ok {
			if outs == nil {
				outs = make(map[int]any, len(out))
			}
			outs[i] = out[i]
		}
	}
	return outs
}

// SpanKernel is an optional extension of Kernel for the vectorized hot
// path.  A kernel that maps each element to exactly one output payload
// — emitted on every out-edge, never filtered — can process a whole run
// of data elements in a single call: ProcessSpan receives the run's
// payloads in (seq0 is the first one's sequence number), writes the
// output payloads to out (len(out) == len(in)), and returns the length
// of the prefix it processed.  The run is as long as the node's batch
// width, its queued input and its out-edge windows allow and may have
// length one at any Config.MaxBatch — at batch 1 every element is a span
// of one — and in and out are engine scratch, reused by the next call: a
// kernel must never retain them.  The payloads it writes to out may share
// a node-owned chunk with each other and with earlier calls' (a Flow Map's
// per-node copy, PerNode, boxes its outputs into chunks it keeps across
// calls, internal/box): an interface value is immutable, so sharing is
// never visible.  Returning n < len(in) declines element
// n — the engine fires it through ProcessInto and offers what follows to
// ProcessSpan again, in order, so a kernel may vectorize the common case
// and fall back per element for filtering, per-edge divergence, or type
// errors.  The engine calls ProcessSpan only at nodes with at most one
// in-edge, where it would have fired the kernel once per element with a
// single present input, so a stateful kernel observes the same element
// sequence either way.  Kernels that do not implement the interface are
// simply invoked per element.
type SpanKernel interface {
	Kernel
	ProcessSpan(seq0 uint64, in, out []any) int
}

// PerNode is implemented by a kernel that keeps per-node state for its
// span path.  One kernel value serves every engine built from the same
// kernels and every replica of a replicated node, so NewEngine calls
// ForNode once per node and runs the copy it returns there: the node's
// own loop is the copy's only caller.  The simulator and the replicas
// fire the shared value through ProcessInto and never ask for a copy.
type PerNode interface {
	Kernel
	ForNode() Kernel
}

// passthroughKernel forwards the first present input payload on every
// out-edge; it vectorizes trivially (ProcessSpan copies the run).
type passthroughKernel struct{ outs int }

func (p passthroughKernel) Process(seq uint64, in []Input) map[int]any {
	return MapForm(p, p.outs, seq, in)
}

func (p passthroughKernel) ProcessInto(_ uint64, in []Input, out []any, present []bool) {
	for _, i := range in {
		if i.Present {
			for o := range out {
				out[o], present[o] = i.Payload, true
			}
			return
		}
	}
}

func (p passthroughKernel) ProcessSpan(_ uint64, in, out []any) int {
	copy(out, in)
	return len(in)
}

// Passthrough forwards the first present input payload on every out-edge.
func Passthrough(outs int) Kernel { return passthroughKernel{outs: outs} }

// SourceFunc supplies the stream's payloads: each call returns the next
// payload, ok=false for end of stream, or an error that aborts the
// session.  The context is the session's (cancelled on abort, deadlock,
// or parent cancellation), so a blocked source unblocks when the session
// dies.
type SourceFunc func(ctx context.Context) (payload any, ok bool, err error)

// SpanSourceFunc is the bulk form of SourceFunc: fill buf with up to
// len(buf) payloads and return how many, plus eof when the stream ends
// (eof may accompany a final non-empty fill; n == 0 with a nil error
// also ends the stream).  Like SourceFunc it may block until at least
// one payload is available — but the caller publishes the whole fill at
// once, so only sources whose payloads never depend on the downstream
// observing earlier ones (counters, slices, replay logs) should offer
// it; a request/response feedback source must stick to SourceFunc's
// one-at-a-time contract.
type SpanSourceFunc func(ctx context.Context, buf []any) (n int, eof bool, err error)

// SinkFunc receives sink-node emissions in ascending sequence order; a
// non-nil error aborts the session.  The context is the session's, so a
// blocked sink (backpressure) unblocks when the session dies.
type SinkFunc func(ctx context.Context, seq uint64, payload any) error

// SpanSinkFunc is the bulk form of SinkFunc: one call carries the
// emissions the sink pump found queued — one or more firings, in order,
// up to the sink window, split over two calls where the ring wraps — as
// parallel seqs/pays slices valid only for the duration of the call.  An
// error aborts the session; the elements of the failing span count as
// undelivered.
type SpanSinkFunc func(ctx context.Context, seqs []uint64, pays []any) error

// SyntheticSource ingests n payloads that are the sequence numbers
// 0..n-1 themselves (as uint64).
func SyntheticSource(n uint64) SourceFunc {
	var next uint64
	return func(context.Context) (any, bool, error) {
		if next >= n {
			return nil, false, nil
		}
		v := next
		next++
		return v, true, nil
	}
}

// Config parameterizes NewEngine.
type Config struct {
	// Algorithm selects the dummy protocol when Intervals != nil.
	Algorithm cs4.Algorithm
	// Intervals are per-edge dummy intervals (nil disables avoidance).
	Intervals map[graph.EdgeID]ival.Interval
	// WatchdogTimeout is how long the watchdog waits without progress in
	// a session before declaring it deadlocked.  Zero defaults to one second;
	// a negative timeout is a NewEngine error.
	WatchdogTimeout time.Duration
	// MaxBatch is the width of the Engine's firing pass: a node takes up
	// to MaxBatch aligned firings per protocol step — at any in-degree,
	// data and dummies alike — and forwards what they send as one run per
	// out-edge (one ring publish, or across workers one frame and one
	// credit frame), stopping early at the first send an out-edge window
	// cannot take.  Zero or one fires per
	// element (a SpanKernel then sees spans of length one); the logical
	// stream is bit-identical at every width.  Credits stay in message
	// units — a run of k messages consumes k credits — so the windowed
	// backpressure semantics are unchanged, as are the per-edge logical
	// data/dummy counts.
	MaxBatch int
	// NodeBatch overrides MaxBatch for individual nodes (the Flow
	// tier's Stage.Batch knob); absent nodes use MaxBatch.
	NodeBatch map[graph.NodeID]int
	// Cross names the edges a transport carries between workers
	// (cross.go); every other edge is a ring between its nodes.  Nil
	// outside internal/dist.
	Cross map[graph.EdgeID]CrossEdge
	// Obs, when non-nil, receives per-node, per-edge, and per-session
	// telemetry (see internal/obs).  Nil — the default — compiles the
	// instrumentation out of the hot path: every site is behind a
	// pointer resolved once at engine construction.
	Obs *obs.Metrics
}

// Stats summarizes a completed session.
type Stats struct {
	Data    map[graph.EdgeID]int64
	Dummies map[graph.EdgeID]int64
	// SinkData counts data messages consumed by the sink.
	SinkData int64
	Elapsed  time.Duration
}

// TotalDummies sums dummy messages across edges.
func (s *Stats) TotalDummies() int64 {
	var n int64
	for _, v := range s.Dummies {
		n += v
	}
	return n
}

// DeadlockError reports a wedged session with a channel-state snapshot.
// Every backend returns this one type; the simulator fills it from its
// exact deadlock check.
type DeadlockError struct {
	// Session is the wedged logical stream.  An engine serving several
	// sessions wedges stream-by-stream — each session owns its protocol
	// state and buffer windows — so the error names the one that stalled
	// rather than blaming the whole engine.
	Session proto.SessionID
	// Channels maps "from→to" to "occupied/capacity": messages sent and
	// not yet consumed, wherever they are (a cross-worker edge's may be
	// queued for the wire, on it, or at the consumer).
	Channels map[string]string
	// Stalled names the edges whose buffer window was exhausted when the
	// watchdog fired — the channels the wedged session's producers were
	// blocked on, i.e. where the stream stalled.  Sorted; possibly empty
	// when the wedge is pure input starvation.
	Stalled []string
}

func (e *DeadlockError) Error() string {
	keys := make([]string, 0, len(e.Channels))
	for k := range e.Channels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "stream: session %d deadlock detected; channel occupancy:", e.Session)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, e.Channels[k])
	}
	if len(e.Stalled) > 0 {
		fmt.Fprintf(&b, "; stalled on: %s", strings.Join(e.Stalled, ", "))
	}
	return b.String()
}

// Wedge renders a wedged session's snapshot for its DeadlockError from
// each edge's occupancy (sent, not yet consumed): every edge as
// "occupied/capacity", and the full edges — the channels its producers
// were blocked on — sorted.
func Wedge(g *graph.Graph, occupancy func(graph.EdgeID) int64) (map[string]string, []string) {
	chans := make(map[string]string, g.NumEdges())
	var stalled []string
	for i := 0; i < g.NumEdges(); i++ {
		ed := g.Edge(graph.EdgeID(i))
		occ := occupancy(graph.EdgeID(i))
		key := fmt.Sprintf("%s→%s", g.Name(ed.From), g.Name(ed.To))
		chans[key] = fmt.Sprintf("%d/%d", occ, ed.Buf)
		if ed.Buf > 0 && occ >= int64(ed.Buf) {
			stalled = append(stalled, key)
		}
	}
	sort.Strings(stalled)
	return chans, stalled
}

// SinkPayload selects what a sink firing delivers, on the Engine and in
// the simulator alike: the kernel's slot-0 output when it emitted one (a
// sink node has no out-edges, so slot 0 is a transformation hook, not a
// channel), otherwise the first present input payload.
func SinkPayload(in []Input, out []any, present []bool) any {
	if present[0] {
		return out[0]
	}
	for _, i := range in {
		if i.Present {
			return i.Payload
		}
	}
	return nil
}
