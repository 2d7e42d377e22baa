// Package stream is the concurrent runtime for streaming computations with
// filtering: every compute node is a goroutine, every channel of the
// topology is a buffered Go channel whose capacity is the edge's buffer
// size, and the dummy-message protocols of Buhler et al. are implemented
// as a wrapper around the user's kernel — no kernel code ever sees a dummy
// (the paper's "no participation by the application programmer").
//
// Goroutines and buffered channels realize the paper's model exactly:
// reliable FIFO delivery, finite buffering, and blocking sends.  A
// progress watchdog turns a wedged network into a diagnosable
// DeadlockError instead of a hung process; the deterministic oracle lives
// in package sim.
//
// Payloads enter through Config.Source (pulled by the topology's source
// node, one sequence number per payload) and sink-node firings leave
// through Config.Sink in ascending sequence order; both default to the
// legacy synthetic arrangement (sequence-number payloads counted by
// Config.Inputs, sink firings merely counted).  Cancelling the run's
// context tears the node goroutines down and returns ctx.Err().
package stream

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
// once per payload, in ingestion order.
type Kernel interface {
	Process(seq uint64, in []Input) map[int]any
}

// KernelFunc adapts a function to Kernel.
type KernelFunc func(seq uint64, in []Input) map[int]any

// Process implements Kernel.
func (f KernelFunc) Process(seq uint64, in []Input) map[int]any { return f(seq, in) }

// SpanKernel is an optional extension of Kernel for the vectorized hot
// path.  A kernel that maps each element to exactly one output payload
// — emitted on every out-edge, never filtered — can process a whole run
// of consecutive data elements in a single call: ProcessSpan receives
// the run's payloads in (carrying the consecutive sequence numbers
// seq0, seq0+1, …), writes the output payloads to out (len(out) ==
// len(in)), and returns the length of the prefix it processed.  The run
// is as long as the node's batch width allows and may have length one
// at any Config.MaxBatch — at batch 1 every element is a span of one —
// and in and out are engine scratch, reused by the next call: a kernel
// must never retain them.  Returning n < len(in) declines element n — the
// engine routes it (and everything after it) through Process, in order,
// so a kernel may vectorize the common case and fall back per element
// for filtering, per-edge divergence, or type errors.  The engine calls
// ProcessSpan only where it would have called Process once per element
// with a single present input, so a stateful kernel observes the same
// element sequence either way.  Kernels that do not implement the
// interface are simply invoked per element.
type SpanKernel interface {
	Kernel
	ProcessSpan(seq0 uint64, in, out []any) int
}

// passthroughKernel forwards the first present input payload on every
// out-edge; it vectorizes trivially (ProcessSpan copies the run).
type passthroughKernel struct{ outs int }

func (p passthroughKernel) Process(_ uint64, in []Input) map[int]any {
	var payload any
	ok := false
	for _, i := range in {
		if i.Present {
			payload, ok = i.Payload, true
			break
		}
	}
	if !ok && len(in) > 0 {
		return nil
	}
	out := make(map[int]any, p.outs)
	for i := 0; i < p.outs; i++ {
		out[i] = payload
	}
	return out
}

func (p passthroughKernel) ProcessSpan(_ uint64, in, out []any) int {
	copy(out, in)
	return len(in)
}

// Passthrough forwards the first present input payload on every out-edge.
func Passthrough(outs int) Kernel { return passthroughKernel{outs: outs} }

// SourceFunc supplies the stream's payloads: each call returns the next
// payload, ok=false for end of stream, or an error that aborts the run.
// The context is the run's (cancelled on abort, deadlock, or parent
// cancellation), so a blocked source unblocks when the run dies.
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
// non-nil error aborts the run.  The context is the run's, so a blocked
// sink (backpressure) unblocks when the run dies.
type SinkFunc func(ctx context.Context, seq uint64, payload any) error

// SpanSinkFunc is the bulk form of SinkFunc: one call delivers a whole
// batched emission run (parallel seqs/pays slices, ascending sequence
// order, valid only for the duration of the call).  An error aborts the
// run; the elements of the failing span count as undelivered.
type SpanSinkFunc func(ctx context.Context, seqs []uint64, pays []any) error

// SyntheticSource is the legacy ingestion arrangement: n payloads that
// are the sequence numbers 0..n-1 themselves (as uint64).
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

// Config parameterizes Run.
type Config struct {
	// Inputs is the number of sequence numbers generated at the source
	// when Source is nil (the legacy synthetic arrangement).
	Inputs uint64
	// Source, when non-nil, supplies the payloads injected at the
	// topology's source node; Inputs is then ignored.
	Source SourceFunc
	// Sink, when non-nil, receives the sink node's data-carrying firings
	// in ascending sequence order; they are counted in Stats.SinkData
	// either way.
	Sink SinkFunc
	// Algorithm selects the dummy protocol when Intervals != nil.
	Algorithm cs4.Algorithm
	// Intervals are per-edge dummy intervals (nil disables avoidance).
	Intervals map[graph.EdgeID]ival.Interval
	// WatchdogTimeout is how long the watchdog waits without global
	// progress before declaring deadlock.  Zero defaults to one second.
	WatchdogTimeout time.Duration
	// MaxBatch is the vectorization width of the resident Engine's hot
	// path: single-input nodes consume up to MaxBatch consecutive data
	// messages per protocol step and forward them as one span (one
	// mailbox post, one credit batch, one amortized timer refresh).
	// Zero or one fires per element (a SpanKernel then sees spans of
	// length one); the logical stream is bit-identical at every width.
	// Credits stay in payload units — a span of k messages consumes k
	// credits — so the windowed backpressure semantics are unchanged,
	// as are the per-edge logical data/dummy counts.  The one-shot Run
	// ignores it.
	MaxBatch int
	// NodeBatch overrides MaxBatch for individual nodes (the Flow
	// tier's Stage.Batch knob); absent nodes use MaxBatch.
	NodeBatch map[graph.NodeID]int
	// Obs, when non-nil, receives per-node, per-edge, and per-session
	// telemetry (see internal/obs).  Nil — the default — compiles the
	// instrumentation out of the hot path: every site is behind a
	// pointer resolved once at engine construction.
	Obs *obs.Metrics
}

// Stats summarizes a completed run.
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

// DeadlockError reports a wedged network with a channel-state snapshot.
type DeadlockError struct {
	// Session is the wedged logical stream when the error comes from a
	// multi-session Engine; zero for single-stream runs.  An Engine
	// serving several sessions wedges stream-by-stream — each session
	// owns its protocol state and buffer windows — so the error names
	// the one that stalled rather than blaming the whole engine.
	Session proto.SessionID
	// Channels maps "from→to" to "occupied/capacity".
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
	if e.Session != 0 {
		fmt.Fprintf(&b, "stream: session %d deadlock detected; channel occupancy:", e.Session)
	} else {
		b.WriteString("stream: deadlock detected; channel occupancy:")
	}
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, e.Channels[k])
	}
	if len(e.Stalled) > 0 {
		fmt.Fprintf(&b, "; stalled on: %s", strings.Join(e.Stalled, ", "))
	}
	return b.String()
}

// runState is the teardown rendezvous shared by a run's workers: the
// first failure (deadlock, cancellation, source/sink error) is recorded,
// the abort channel closes, and the run context is cancelled so blocked
// Source/Sink callbacks unblock.
type runState struct {
	abort     chan struct{}
	abortOnce sync.Once
	cancel    context.CancelFunc

	// external counts in-flight Source/Sink callbacks.  Time spent blocked
	// in user code — a quiet source, a backpressuring sink — is the
	// outside world's pace, not a wedged network, so the watchdog treats
	// it as progress.
	external atomic.Int64

	mu  sync.Mutex
	err error
}

func (s *runState) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.abortOnce.Do(func() {
		close(s.abort)
		s.cancel()
	})
}

func (s *runState) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Run executes the topology with the given kernels (keyed by node) until
// the stream drains, ctx is cancelled, or the watchdog detects deadlock.
// Kernels default to Passthrough.  g must be a validated two-terminal
// DAG.
func Run(ctx context.Context, g *graph.Graph, kernels map[graph.NodeID]Kernel, cfg Config) (*Stats, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if cfg.WatchdogTimeout == 0 {
		cfg.WatchdogTimeout = time.Second
	}
	if cfg.Source == nil {
		cfg.Source = SyntheticSource(cfg.Inputs)
	}
	start := time.Now()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := &runState{abort: make(chan struct{}), cancel: cancel}

	chans := make([]chan Message, g.NumEdges())
	for i := range chans {
		chans[i] = make(chan Message, g.Edge(graph.EdgeID(i)).Buf)
	}
	var progress atomic.Int64
	dataCounts := make([]atomic.Int64, g.NumEdges())
	dummyCounts := make([]atomic.Int64, g.NumEdges())
	var sinkData atomic.Int64

	var wg sync.WaitGroup
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		k := kernels[id]
		if k == nil {
			k = Passthrough(g.OutDegree(id))
		}
		w := &worker{
			g: g, id: id, kernel: k, cfg: cfg, ctx: runCtx, st: st,
			chans: chans, progress: &progress,
			dataCounts: dataCounts, dummyCounts: dummyCounts, sinkData: &sinkData,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run()
		}()
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	go func() {
		select {
		case <-ctx.Done():
			st.fail(ctx.Err())
		case <-done:
		}
	}()

	ticker := time.NewTicker(cfg.WatchdogTimeout)
	defer ticker.Stop()
	last := progress.Load()
	for {
		select {
		case <-done:
			if err := st.failure(); err != nil {
				return nil, err
			}
			stats := &Stats{
				Data:     make(map[graph.EdgeID]int64, g.NumEdges()),
				Dummies:  make(map[graph.EdgeID]int64, g.NumEdges()),
				SinkData: sinkData.Load(),
				Elapsed:  time.Since(start),
			}
			for i := range dataCounts {
				stats.Data[graph.EdgeID(i)] = dataCounts[i].Load()
				stats.Dummies[graph.EdgeID(i)] = dummyCounts[i].Load()
			}
			return stats, nil
		case <-ticker.C:
			cur := progress.Load()
			if cur == last && st.external.Load() == 0 {
				// No progress for a full watchdog period: snapshot and
				// abort.  Channel lengths are racy but indicative.
				derr := &DeadlockError{Channels: make(map[string]string, len(chans))}
				for i, ch := range chans {
					e := g.Edge(graph.EdgeID(i))
					key := fmt.Sprintf("%s→%s", g.Name(e.From), g.Name(e.To))
					derr.Channels[key] = fmt.Sprintf("%d/%d", len(ch), cap(ch))
					if cap(ch) > 0 && len(ch) == cap(ch) {
						derr.Stalled = append(derr.Stalled, key)
					}
				}
				sort.Strings(derr.Stalled)
				st.fail(derr)
				<-done
				return nil, st.failure()
			}
			last = cur
		}
	}
}

// worker is the per-node goroutine.  It implements Ports over buffered
// Go channels; the node semantics themselves live in NodeLoop, shared
// with the distributed runtime.
type worker struct {
	g        *graph.Graph
	id       graph.NodeID
	kernel   Kernel
	cfg      Config
	ctx      context.Context
	st       *runState
	chans    []chan Message
	progress *atomic.Int64

	in, out []graph.EdgeID

	dataCounts  []atomic.Int64
	dummyCounts []atomic.Int64
	sinkData    *atomic.Int64
}

func (w *worker) run() {
	w.in = w.g.In(w.id)
	w.out = w.g.Out(w.id)
	engine := proto.NewEngine(w.out, proto.Config{
		Algorithm: w.cfg.Algorithm,
		Intervals: w.cfg.Intervals,
	})
	NodeLoop(len(w.in), len(w.out), w.kernel, engine, w)
}

// Recv implements Ports over the in-edge's buffered channel.
func (w *worker) Recv(i int) (Message, bool) {
	select {
	case m := <-w.chans[w.in[i]]:
		w.progress.Add(1)
		return m, true
	case <-w.st.abort:
		return Message{}, false
	}
}

// Send implements Ports over the out-edge's buffered channel.
func (w *worker) Send(i int, m Message) bool { return w.sendOne(w.out[i], m) }

// Consumed implements Ports; in-process channels need no acknowledgment.
func (w *worker) Consumed(int) bool { return true }

// Ingest implements Ports: it pulls the next payload from the run's
// source, failing the run on source error.
func (w *worker) Ingest() (any, bool) {
	select {
	case <-w.st.abort:
		return nil, false
	default:
	}
	w.st.external.Add(1)
	payload, ok, err := w.cfg.Source(w.ctx)
	w.st.external.Add(-1)
	if err != nil {
		w.st.fail(fmt.Errorf("stream: source: %w", err))
		return nil, false
	}
	if ok {
		w.progress.Add(1)
	}
	return payload, ok
}

// SinkEmit implements Ports: it counts the firing and hands it to the
// run's sink, failing the run on sink error.
func (w *worker) SinkEmit(seq uint64, payload any) bool {
	w.sinkData.Add(1)
	w.progress.Add(1)
	if w.cfg.Sink == nil {
		return true
	}
	w.st.external.Add(1)
	err := w.cfg.Sink(w.ctx, seq, payload)
	w.st.external.Add(-1)
	if err != nil {
		w.st.fail(fmt.Errorf("stream: sink: %w", err))
		return false
	}
	return true
}

func (w *worker) sendOne(e graph.EdgeID, m Message) bool {
	select {
	case w.chans[e] <- m:
		switch m.Kind {
		case Data:
			w.dataCounts[e].Add(1)
		case Dummy:
			w.dummyCounts[e].Add(1)
		}
		w.progress.Add(1)
		return true
	case <-w.st.abort:
		return false
	}
}
