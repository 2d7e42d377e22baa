// Package obs is the engine-wide observability layer: lock-cheap
// (atomic, cache-line-padded) counters and histograms shared by all
// three backends — the resident goroutine engine, the deterministic
// simulator, and the distributed TCP workers.
//
// A Metrics is created per built pipeline topology and threaded into
// each backend's Config.  The nil default compiles the instrumentation
// out of the hot path: every site is guarded by a pointer resolved once
// at engine construction, so observer-off runs pay a single predictable
// branch and no allocation.  Counters are cumulative (Prometheus
// counter semantics) across every engine and session attached to the
// same Metrics.
//
// Time has two modes.  In wall-clock mode (the goroutine and
// distributed backends) durations are nanoseconds.  In virtual-time
// mode (the simulator) every duration is a count of deterministic
// scheduler steps, so two runs of the same workload produce bit-
// identical snapshots — the property the metrics-determinism test pins.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// pad fills a NodeMetrics/EdgeMetrics out to its own cache line so two
// adjacent array entries — updated by different node goroutines — never
// false-share.
type pad [24]byte

// NodeMetrics is one node's counters.  Fields are written with atomics
// by the owning backend; read with atomics by Snapshot.
type NodeMetrics struct {
	// Firings counts data-carrying kernel firings (one per element on
	// the span path too, so batch size never changes the total).
	Firings atomic.Int64
	// ServiceTime is cumulative kernel/advance time: nanoseconds in
	// wall-clock mode, scheduler steps in virtual-time mode.  The
	// goroutine backend samples it (one advance pass in eight is timed
	// and scaled) so the clock reads stay off the hot path; the other
	// counters are exact.
	ServiceTime atomic.Int64
	// Spans counts ProcessSpan calls, one that declines its first element
	// included; SpanMsgs the elements they took.  SpanMsgs/Spans is the
	// realized batch size.
	Spans    atomic.Int64
	SpanMsgs atomic.Int64
	_        pad
}

// EdgeMetrics is one edge's counters, split across two cache lines so
// the producer and consumer goroutines never write the same one: the
// sending node owns Data/Dummies/Sent and the stall counters, the
// receiving node owns Consumed.  The queue-depth gauge is derived at
// snapshot time as Sent - Consumed — a shared read-modify-write gauge
// would ping-pong its cache line once per span.
type EdgeMetrics struct {
	// Data and Dummies count messages sent on the edge, matching the
	// per-run Stats the backends already report.
	Data    atomic.Int64
	Dummies atomic.Int64
	// Sent counts every message shipped on the edge — data, dummies,
	// and EOS markers — and pairs with Consumed below.
	Sent atomic.Int64
	// CreditStalls counts blocked-send episodes (the producer found the
	// edge's credit window exhausted); CreditStallTime is the cumulative
	// time spent blocked (ns, or steps in virtual-time mode).
	CreditStalls    atomic.Int64
	CreditStallTime atomic.Int64
	_               pad
	// Consumed counts every message the receiving node drained, on its
	// own cache line.
	Consumed atomic.Int64
	_        [56]byte
}

// SessionMetrics aggregates session lifecycle counters and the
// open→EOF latency histogram.
type SessionMetrics struct {
	Opened    atomic.Int64
	Active    atomic.Int64
	Completed atomic.Int64
	Failed    atomic.Int64
	// SinkMsgs counts data-carrying sink deliveries across sessions.
	SinkMsgs atomic.Int64
	// IngestWakes counts the times a source node woke its session's
	// ingest pump, stalled on a full ingest window; SinkWakes the times
	// the sink node and its session's sink pump woke each other across
	// the sink rim (a parked pump, or a sink node stalled on a full sink
	// window).  Both are written only at the wake, never per message.
	IngestWakes atomic.Int64
	SinkWakes   atomic.Int64
	// Latency is open→EOF per session (ns, or steps in virtual mode).
	Latency Histogram
}

// FaultMetrics is the fault-domain's counters: workers down, session
// retries, dead-lettered payloads, and drains.  One set per Metrics —
// faults are an engine-wide concern, not per-node.
type FaultMetrics struct {
	// WorkersDown counts workers whose links were dropped and re-dialed
	// (KillWorker, or a link that broke).
	WorkersDown atomic.Int64
	// SessionRetries counts session re-open attempts by the retry layer.
	SessionRetries atomic.Int64
	// DeadLettered counts payloads routed to the dead-letter sink.
	DeadLettered atomic.Int64
	// Drains counts completed Engine.Drain calls; DrainTime is their
	// cumulative duration (ns, or steps in virtual-time mode).
	Drains    atomic.Int64
	DrainTime atomic.Int64
}

// ScaleMetrics is the autoscaler's counters: rescale commits by
// direction, swap latency, and what happened to the sessions that were
// still running on the retiring topology.  One set per Metrics —
// scaling, like faults, is an engine-wide concern.
type ScaleMetrics struct {
	// ScaleUps / ScaleDowns count committed rescales that raised /
	// lowered a node's replica count.
	ScaleUps   atomic.Int64
	ScaleDowns atomic.Int64
	// RescaleTime is the cumulative time spent re-planning and swapping
	// (ns, or steps in virtual-time mode).
	RescaleTime atomic.Int64
	// SessionsMigrated counts sessions moved from a retiring generation
	// onto the new topology via the retry path (rewind + dedup).
	SessionsMigrated atomic.Int64
	// SessionsEvicted counts sessions cancelled at the drain deadline
	// because they had no retry path to migrate on.
	SessionsEvicted atomic.Int64
}

// TimeMetrics is the time-aware stage library's counters: timer-driven
// flushes delivered to timed kernels and the elements they emit (window
// closes, debounce and sample flushes, throttle passes).  One set per
// Metrics — timed behaviour is an engine-wide concern like faults and
// scaling, and the per-node Firings/Spans counters already localize it.
type TimeMetrics struct {
	// TimerTicks counts timer-driven Tick deliveries to timed kernels.
	TimerTicks atomic.Int64
	// TimedEmissions counts elements emitted by timed kernels.
	TimedEmissions atomic.Int64
}

// LinkMetrics is one distributed worker→peer link's transport counters.
type LinkMetrics struct {
	TxFrames atomic.Int64 // wire frames written (run, credit, hello, beat)
	TxBodies atomic.Int64 // protocol units carried: a run frame's messages, one per credit frame
	TxBytes  atomic.Int64
	RxFrames atomic.Int64
	RxBytes  atomic.Int64
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with 2^(i-1) <= v < 2^i (bucket 0 is v < 1).
const histBuckets = 64

// Histogram is a lock-free power-of-two histogram.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// HistogramSnapshot is a point-in-time copy of a Histogram.  Buckets
// are non-cumulative; Le is the bucket's inclusive upper bound.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			le := int64(math.MaxInt64)
			if i < 63 {
				le = (int64(1) << i) - 1
			}
			s.Buckets = append(s.Buckets, BucketCount{Le: le, Count: n})
		}
	}
	return s
}

// lifecycle holds the counters that outlive any single topology:
// session/fault/scale totals and transport links.  A Rebind (rescale
// swapping in an expanded topology) shares the same lifecycle struct,
// so engines still draining on the retired topology keep adding to the
// counters the new snapshot reports — sessions are never lost from the
// totals across a swap.
type lifecycle struct {
	sessions SessionMetrics
	faults   FaultMetrics
	scale    ScaleMetrics
	timed    TimeMetrics

	linkMu sync.Mutex
	links  map[string]*LinkMetrics
}

// Metrics is the per-topology registry all backends write into.  Node
// and edge slots are fixed at construction (indexed by the topology's
// NodeID/EdgeID); link slots are registered by the distributed engine.
type Metrics struct {
	nodeNames []string
	edgeNames []string
	nodes     []NodeMetrics
	edges     []EdgeMetrics
	life      *lifecycle

	virtual atomic.Bool
}

// New builds a Metrics for a topology with the given node names and
// edge labels (conventionally "from→to", indexed by EdgeID).
func New(nodeNames, edgeNames []string) *Metrics {
	return newMetrics(nodeNames, edgeNames, &lifecycle{links: make(map[string]*LinkMetrics)})
}

// Rebind builds a Metrics for a new topology that shares m's lifecycle
// counters (sessions, faults, scale, links).  Per-node and per-edge
// counters start at zero — a Prometheus counter reset, labeled by the
// new topology's names — while the shared totals carry over, and
// engines still draining against m keep feeding them.
func (m *Metrics) Rebind(nodeNames, edgeNames []string) *Metrics {
	nm := newMetrics(nodeNames, edgeNames, m.life)
	nm.virtual.Store(m.virtual.Load())
	return nm
}

func newMetrics(nodeNames, edgeNames []string, life *lifecycle) *Metrics {
	return &Metrics{
		nodeNames: append([]string(nil), nodeNames...),
		edgeNames: append([]string(nil), edgeNames...),
		nodes:     make([]NodeMetrics, len(nodeNames)),
		edges:     make([]EdgeMetrics, len(edgeNames)),
		life:      life,
	}
}

// Matches reports whether m was built for exactly this topology — the
// attach-twice guard for observers reused across builds of one flow.
func (m *Metrics) Matches(nodeNames, edgeNames []string) bool {
	return slices.Equal(m.nodeNames, nodeNames) && slices.Equal(m.edgeNames, edgeNames)
}

// Node returns node i's counters (i is the topology NodeID).
func (m *Metrics) Node(i int) *NodeMetrics { return &m.nodes[i] }

// Edge returns edge i's counters (i is the topology EdgeID).
func (m *Metrics) Edge(i int) *EdgeMetrics { return &m.edges[i] }

// Sessions returns the session lifecycle counters.
func (m *Metrics) Sessions() *SessionMetrics { return &m.life.sessions }

// Faults returns the fault-domain counters.
func (m *Metrics) Faults() *FaultMetrics { return &m.life.faults }

// Scale returns the autoscaler counters.
func (m *Metrics) Scale() *ScaleMetrics { return &m.life.scale }

// Time returns the time-aware stage counters.
func (m *Metrics) Time() *TimeMetrics { return &m.life.timed }

// Link returns (registering on first use) the counters for one
// worker→peer transport link.
func (m *Metrics) Link(name string) *LinkMetrics {
	m.life.linkMu.Lock()
	defer m.life.linkMu.Unlock()
	l := m.life.links[name]
	if l == nil {
		l = &LinkMetrics{}
		m.life.links[name] = l
	}
	return l
}

// SetVirtual marks the metrics as virtual-time: durations are
// deterministic scheduler steps, not nanoseconds.  The simulator sets
// this; mixing backends on one Metrics is not supported.
func (m *Metrics) SetVirtual(v bool) { m.virtual.Store(v) }

// Virtual reports virtual-time mode.
func (m *Metrics) Virtual() bool { return m.virtual.Load() }

// Snapshot types: plain values with JSON tags, safe to marshal and
// compare (the cross-backend parity and determinism tests diff them).

// NodeSnapshot is one node's counters at snapshot time.
type NodeSnapshot struct {
	Name        string `json:"name"`
	Firings     int64  `json:"firings"`
	ServiceTime int64  `json:"service_time"`
	Spans       int64  `json:"spans,omitempty"`
	SpanMsgs    int64  `json:"span_msgs,omitempty"`
}

// EdgeSnapshot is one edge's counters at snapshot time.
type EdgeSnapshot struct {
	Name            string `json:"name"`
	Data            int64  `json:"data"`
	Dummies         int64  `json:"dummies"`
	Depth           int64  `json:"depth"`
	CreditStalls    int64  `json:"credit_stalls,omitempty"`
	CreditStallTime int64  `json:"credit_stall_time,omitempty"`
}

// SessionSnapshot is the session counters at snapshot time.
type SessionSnapshot struct {
	Opened      int64             `json:"opened"`
	Active      int64             `json:"active"`
	Completed   int64             `json:"completed"`
	Failed      int64             `json:"failed"`
	SinkMsgs    int64             `json:"sink_msgs"`
	IngestWakes int64             `json:"ingest_wakes"`
	SinkWakes   int64             `json:"sink_wakes"`
	Latency     HistogramSnapshot `json:"latency"`
}

// FaultSnapshot is the fault-domain counters at snapshot time.
type FaultSnapshot struct {
	WorkersDown    int64 `json:"workers_down"`
	SessionRetries int64 `json:"session_retries"`
	DeadLettered   int64 `json:"dead_lettered"`
	Drains         int64 `json:"drains"`
	DrainTime      int64 `json:"drain_time"`
}

// ScaleSnapshot is the autoscaler counters at snapshot time.
type ScaleSnapshot struct {
	ScaleUps         int64 `json:"scale_ups"`
	ScaleDowns       int64 `json:"scale_downs"`
	RescaleTime      int64 `json:"rescale_time"`
	SessionsMigrated int64 `json:"sessions_migrated"`
	SessionsEvicted  int64 `json:"sessions_evicted"`
}

// TimeSnapshot is the time-aware stage counters at snapshot time.
type TimeSnapshot struct {
	TimerTicks     int64 `json:"timer_ticks"`
	TimedEmissions int64 `json:"timed_emissions"`
}

// LinkSnapshot is one distributed link's counters at snapshot time.
type LinkSnapshot struct {
	Name     string `json:"name"`
	TxFrames int64  `json:"tx_frames"`
	TxBodies int64  `json:"tx_bodies"`
	TxBytes  int64  `json:"tx_bytes"`
	RxFrames int64  `json:"rx_frames"`
	RxBytes  int64  `json:"rx_bytes"`
}

// Snapshot is a typed point-in-time copy of a Metrics, returned by
// Engine.Metrics and served by Handler.
type Snapshot struct {
	// VirtualTime marks every duration field as deterministic scheduler
	// steps (simulator) rather than nanoseconds.
	VirtualTime bool            `json:"virtual_time,omitempty"`
	Nodes       []NodeSnapshot  `json:"nodes"`
	Edges       []EdgeSnapshot  `json:"edges"`
	Sessions    SessionSnapshot `json:"sessions"`
	Faults      FaultSnapshot   `json:"faults"`
	Scale       ScaleSnapshot   `json:"scale"`
	Time        TimeSnapshot    `json:"time"`
	Links       []LinkSnapshot  `json:"links,omitempty"`
}

// NodeByName returns the named node's snapshot, or nil.
func (s *Snapshot) NodeByName(name string) *NodeSnapshot {
	for i := range s.Nodes {
		if s.Nodes[i].Name == name {
			return &s.Nodes[i]
		}
	}
	return nil
}

// EdgeByName returns the named edge's snapshot ("from→to"), or nil.
func (s *Snapshot) EdgeByName(name string) *EdgeSnapshot {
	for i := range s.Edges {
		if s.Edges[i].Name == name {
			return &s.Edges[i]
		}
	}
	return nil
}

// The metric set: one row per metric, giving its Prometheus name and
// help (a %s in either stands for the time unit, "ns" or "steps"), its
// type, the snapshot field that holds it and the counter it is loaded
// from.  Snapshot, Delta and WritePrometheus are loops over these
// tables, so a new metric is a counter field, a snapshot field and one
// row.  Written by hand beside them: the edge Depth gauge (Sent −
// Consumed), the latency histogram and the link-name sort.

// kind is a family's Prometheus type.  Delta subtracts counters and
// keeps gauges at their current value.
type kind string

const (
	counter kind = "counter"
	gauge   kind = "gauge"
)

// family is one metric read from counter set C into snapshot S.
type family[C, S any] struct {
	name, help string
	kind       kind
	field      func(*S) *int64
	src        func(*C) *atomic.Int64 // nil: derived in Snapshot
}

var nodeFamilies = []family[NodeMetrics, NodeSnapshot]{
	{"streamdag_node_firings_total", "Data-carrying kernel firings per node.", counter,
		func(s *NodeSnapshot) *int64 { return &s.Firings }, func(c *NodeMetrics) *atomic.Int64 { return &c.Firings }},
	{"streamdag_node_service_time_%s_total", "Cumulative node service time (%s).", counter,
		func(s *NodeSnapshot) *int64 { return &s.ServiceTime }, func(c *NodeMetrics) *atomic.Int64 { return &c.ServiceTime }},
	{"streamdag_node_spans_total", "Vectorized span invocations per node.", counter,
		func(s *NodeSnapshot) *int64 { return &s.Spans }, func(c *NodeMetrics) *atomic.Int64 { return &c.Spans }},
	{"streamdag_node_span_msgs_total", "Elements carried by spans per node.", counter,
		func(s *NodeSnapshot) *int64 { return &s.SpanMsgs }, func(c *NodeMetrics) *atomic.Int64 { return &c.SpanMsgs }},
}

var edgeFamilies = []family[EdgeMetrics, EdgeSnapshot]{
	{"streamdag_edge_data_total", "Data messages sent per edge.", counter,
		func(s *EdgeSnapshot) *int64 { return &s.Data }, func(c *EdgeMetrics) *atomic.Int64 { return &c.Data }},
	{"streamdag_edge_dummies_total", "Protocol dummy messages sent per edge.", counter,
		func(s *EdgeSnapshot) *int64 { return &s.Dummies }, func(c *EdgeMetrics) *atomic.Int64 { return &c.Dummies }},
	{"streamdag_edge_queue_depth", "Messages currently queued per edge.", gauge,
		func(s *EdgeSnapshot) *int64 { return &s.Depth }, nil},
	{"streamdag_edge_credit_stalls_total", "Blocked-send episodes per edge.", counter,
		func(s *EdgeSnapshot) *int64 { return &s.CreditStalls }, func(c *EdgeMetrics) *atomic.Int64 { return &c.CreditStalls }},
	{"streamdag_edge_credit_stall_%s_total", "Cumulative blocked-send time per edge (%s).", counter,
		func(s *EdgeSnapshot) *int64 { return &s.CreditStallTime }, func(c *EdgeMetrics) *atomic.Int64 { return &c.CreditStallTime }},
}

// lifeFamilies are the unlabeled totals: sessions, faults, scale, time.
var lifeFamilies = []family[lifecycle, Snapshot]{
	{"streamdag_sessions_opened_total", "Sessions opened.", counter,
		func(s *Snapshot) *int64 { return &s.Sessions.Opened }, func(l *lifecycle) *atomic.Int64 { return &l.sessions.Opened }},
	{"streamdag_sessions_active", "Sessions currently open.", gauge,
		func(s *Snapshot) *int64 { return &s.Sessions.Active }, func(l *lifecycle) *atomic.Int64 { return &l.sessions.Active }},
	{"streamdag_sessions_completed_total", "Sessions completed (EOF).", counter,
		func(s *Snapshot) *int64 { return &s.Sessions.Completed }, func(l *lifecycle) *atomic.Int64 { return &l.sessions.Completed }},
	{"streamdag_sessions_failed_total", "Sessions ended with an error.", counter,
		func(s *Snapshot) *int64 { return &s.Sessions.Failed }, func(l *lifecycle) *atomic.Int64 { return &l.sessions.Failed }},
	{"streamdag_sink_msgs_total", "Data-carrying sink deliveries.", counter,
		func(s *Snapshot) *int64 { return &s.Sessions.SinkMsgs }, func(l *lifecycle) *atomic.Int64 { return &l.sessions.SinkMsgs }},
	{"streamdag_ingest_wakes_total", "Ingest pumps woken by their source node from a full ingest window.", counter,
		func(s *Snapshot) *int64 { return &s.Sessions.IngestWakes }, func(l *lifecycle) *atomic.Int64 { return &l.sessions.IngestWakes }},
	{"streamdag_sink_wakes_total", "Wakes across the sink rim: sink pumps woken by their sink node and sink nodes woken by their pump.", counter,
		func(s *Snapshot) *int64 { return &s.Sessions.SinkWakes }, func(l *lifecycle) *atomic.Int64 { return &l.sessions.SinkWakes }},
	{"streamdag_fault_workers_down_total", "Workers whose links were dropped and re-dialed.", counter,
		func(s *Snapshot) *int64 { return &s.Faults.WorkersDown }, func(l *lifecycle) *atomic.Int64 { return &l.faults.WorkersDown }},
	{"streamdag_fault_session_retries_total", "Session re-open attempts by the retry layer.", counter,
		func(s *Snapshot) *int64 { return &s.Faults.SessionRetries }, func(l *lifecycle) *atomic.Int64 { return &l.faults.SessionRetries }},
	{"streamdag_fault_dead_lettered_total", "Payloads routed to the dead-letter sink.", counter,
		func(s *Snapshot) *int64 { return &s.Faults.DeadLettered }, func(l *lifecycle) *atomic.Int64 { return &l.faults.DeadLettered }},
	{"streamdag_fault_drains_total", "Completed engine drains.", counter,
		func(s *Snapshot) *int64 { return &s.Faults.Drains }, func(l *lifecycle) *atomic.Int64 { return &l.faults.Drains }},
	{"streamdag_fault_drain_%s_total", "Cumulative drain duration (%s).", counter,
		func(s *Snapshot) *int64 { return &s.Faults.DrainTime }, func(l *lifecycle) *atomic.Int64 { return &l.faults.DrainTime }},
	{"streamdag_scale_ups_total", "Committed rescales that raised a node's replica count.", counter,
		func(s *Snapshot) *int64 { return &s.Scale.ScaleUps }, func(l *lifecycle) *atomic.Int64 { return &l.scale.ScaleUps }},
	{"streamdag_scale_downs_total", "Committed rescales that lowered a node's replica count.", counter,
		func(s *Snapshot) *int64 { return &s.Scale.ScaleDowns }, func(l *lifecycle) *atomic.Int64 { return &l.scale.ScaleDowns }},
	{"streamdag_scale_rescale_%s_total", "Cumulative re-plan and swap time (%s).", counter,
		func(s *Snapshot) *int64 { return &s.Scale.RescaleTime }, func(l *lifecycle) *atomic.Int64 { return &l.scale.RescaleTime }},
	{"streamdag_scale_sessions_migrated_total", "Sessions migrated off a retiring topology via the retry path.", counter,
		func(s *Snapshot) *int64 { return &s.Scale.SessionsMigrated }, func(l *lifecycle) *atomic.Int64 { return &l.scale.SessionsMigrated }},
	{"streamdag_scale_sessions_evicted_total", "Sessions cancelled at the rescale drain deadline.", counter,
		func(s *Snapshot) *int64 { return &s.Scale.SessionsEvicted }, func(l *lifecycle) *atomic.Int64 { return &l.scale.SessionsEvicted }},
	{"streamdag_time_timer_ticks_total", "Timer-driven flushes delivered to time-aware kernels.", counter,
		func(s *Snapshot) *int64 { return &s.Time.TimerTicks }, func(l *lifecycle) *atomic.Int64 { return &l.timed.TimerTicks }},
	{"streamdag_time_timed_emissions_total", "Elements emitted by time-aware kernels.", counter,
		func(s *Snapshot) *int64 { return &s.Time.TimedEmissions }, func(l *lifecycle) *atomic.Int64 { return &l.timed.TimedEmissions }},
}

var linkFamilies = []family[LinkMetrics, LinkSnapshot]{
	{"streamdag_link_tx_frames_total", "Wire frames written per worker link.", counter,
		func(s *LinkSnapshot) *int64 { return &s.TxFrames }, func(c *LinkMetrics) *atomic.Int64 { return &c.TxFrames }},
	{"streamdag_link_tx_bodies_total", "Protocol bodies sent per worker link.", counter,
		func(s *LinkSnapshot) *int64 { return &s.TxBodies }, func(c *LinkMetrics) *atomic.Int64 { return &c.TxBodies }},
	{"streamdag_link_tx_bytes_total", "Bytes written per worker link.", counter,
		func(s *LinkSnapshot) *int64 { return &s.TxBytes }, func(c *LinkMetrics) *atomic.Int64 { return &c.TxBytes }},
	{"streamdag_link_rx_frames_total", "Wire frames read per worker link.", counter,
		func(s *LinkSnapshot) *int64 { return &s.RxFrames }, func(c *LinkMetrics) *atomic.Int64 { return &c.RxFrames }},
	{"streamdag_link_rx_bytes_total", "Bytes read per worker link.", counter,
		func(s *LinkSnapshot) *int64 { return &s.RxBytes }, func(c *LinkMetrics) *atomic.Int64 { return &c.RxBytes }},
}

// load copies each family's counter in c into its field of s.
func load[C, S any](fams []family[C, S], c *C, s *S) {
	for _, f := range fams {
		if f.src != nil {
			*f.field(s) = f.src(c).Load()
		}
	}
}

// sub subtracts prev's counters from s's; gauges keep s's value.
func sub[C, S any](fams []family[C, S], s, prev *S) {
	for _, f := range fams {
		if f.kind == counter {
			*f.field(s) -= *f.field(prev)
		}
	}
}

// writeFamilies writes each family's HELP and TYPE lines, then one
// sample per row, labeled label="name(row)", or bare when label is "".
func writeFamilies[C, S any](w io.Writer, unit string, fams []family[C, S], rows []S, label string, name func(*S) string) {
	var b []byte
	for _, f := range fams {
		metric := strings.ReplaceAll(f.name, "%s", unit)
		b = fmt.Appendf(b[:0], "# HELP %s %s\n# TYPE %s %s\n", metric, strings.ReplaceAll(f.help, "%s", unit), metric, f.kind)
		for i := range rows {
			b = append(b, metric...)
			if label != "" {
				b = append(append(append(b, '{'), label...), '=')
				b = append(strconv.AppendQuote(b, name(&rows[i])), '}')
			}
			b = append(strconv.AppendInt(append(b, ' '), *f.field(&rows[i]), 10), '\n')
		}
		w.Write(b)
	}
}

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() *Snapshot {
	s := &Snapshot{
		VirtualTime: m.virtual.Load(),
		Nodes:       make([]NodeSnapshot, len(m.nodes)),
		Edges:       make([]EdgeSnapshot, len(m.edges)),
	}
	for i := range m.nodes {
		s.Nodes[i].Name = m.nodeNames[i]
		load(nodeFamilies, &m.nodes[i], &s.Nodes[i])
	}
	for i := range m.edges {
		e := &m.edges[i]
		s.Edges[i].Name = m.edgeNames[i]
		s.Edges[i].Depth = e.Sent.Load() - e.Consumed.Load()
		load(edgeFamilies, e, &s.Edges[i])
	}
	load(lifeFamilies, m.life, s)
	s.Sessions.Latency = m.life.sessions.Latency.snapshot()
	m.life.linkMu.Lock()
	names := make([]string, 0, len(m.life.links))
	for name := range m.life.links {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Links = append(s.Links, LinkSnapshot{Name: name})
		load(linkFamilies, m.life.links[name], &s.Links[len(s.Links)-1])
	}
	m.life.linkMu.Unlock()
	return s
}

// Delta returns s - prev: every counter becomes its increase since
// prev, while point-in-time gauges (edge Depth, Active sessions) keep
// their current values.  Nodes, edges, and links are matched by name —
// entries absent from prev (a topology expanded by rescale) delta
// against zero, and entries that disappeared are dropped.  A nil prev
// returns s unchanged.  Two snapshots a known interval apart give
// rate = Delta / interval; the bench harness reads its per-run figures
// this way.  The autoscaler does not: it passes raw snapshots to
// internal/scale, which keeps its own windows.
func (s *Snapshot) Delta(prev *Snapshot) *Snapshot {
	if prev == nil {
		return s
	}
	d := *s
	d.Nodes = make([]NodeSnapshot, len(s.Nodes))
	copy(d.Nodes, s.Nodes)
	for i := range d.Nodes {
		if p := prev.NodeByName(d.Nodes[i].Name); p != nil {
			sub(nodeFamilies, &d.Nodes[i], p)
		}
	}
	d.Edges = make([]EdgeSnapshot, len(s.Edges))
	copy(d.Edges, s.Edges)
	for i := range d.Edges {
		if p := prev.EdgeByName(d.Edges[i].Name); p != nil {
			sub(edgeFamilies, &d.Edges[i], p)
		}
	}
	sub(lifeFamilies, &d, prev)
	d.Sessions.Latency = s.Sessions.Latency.delta(&prev.Sessions.Latency)
	d.Links = slices.Clone(s.Links)
	for i := range d.Links {
		for j := range prev.Links {
			if prev.Links[j].Name == d.Links[i].Name {
				sub(linkFamilies, &d.Links[i], &prev.Links[j])
				break
			}
		}
	}
	return &d
}

// delta subtracts prev bucket-wise (matched by upper bound).
func (h HistogramSnapshot) delta(prev *HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum}
	prevByLe := make(map[int64]int64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		prevByLe[b.Le] = b.Count
	}
	for _, b := range h.Buckets {
		if n := b.Count - prevByLe[b.Le]; n != 0 {
			d.Buckets = append(d.Buckets, BucketCount{Le: b.Le, Count: n})
		}
	}
	return d
}

// Exposition: one handler serves both formats.  Paths containing
// "vars" (the conventional /debug/vars mount) get expvar-style JSON;
// everything else (conventionally /metrics) gets Prometheus text.

// Handler returns an http.Handler exposing m.  Mount it at both
// /metrics and /debug/vars; the path selects the format.
func Handler(m *Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "vars") {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			WriteExpvar(w, m.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, m.Snapshot())
	})
}

// WriteExpvar writes the snapshot as expvar-style JSON: a single
// top-level "streamdag" var holding the typed snapshot.
func WriteExpvar(w io.Writer, s *Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]*Snapshot{"streamdag": s})
}

// timeUnit names the duration metrics' unit for the exposition format.
func (s *Snapshot) timeUnit() string {
	if s.VirtualTime {
		return "steps"
	}
	return "ns"
}

// WritePrometheus writes the snapshot in the Prometheus text
// exposition format (version 0.0.4).  Duration metrics carry the time
// unit in the metric name so virtual-time (simulator) snapshots are
// never mistaken for nanoseconds.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	u := s.timeUnit()
	bw := &errWriter{w: w}
	p := func(format string, args ...any) { fmt.Fprintf(bw, format, args...) }
	writeFamilies(bw, u, nodeFamilies, s.Nodes, "node", func(n *NodeSnapshot) string { return n.Name })
	writeFamilies(bw, u, edgeFamilies, s.Edges, "edge", func(e *EdgeSnapshot) string { return e.Name })
	writeFamilies(bw, u, lifeFamilies, []Snapshot{*s}, "", nil)

	p("# HELP streamdag_session_latency_%s Session open-to-EOF latency (%s).\n", u, u)
	p("# TYPE streamdag_session_latency_%s histogram\n", u)
	cum := int64(0)
	for _, b := range s.Sessions.Latency.Buckets {
		cum += b.Count
		p("streamdag_session_latency_%s_bucket{le=\"%d\"} %d\n", u, b.Le, cum)
	}
	p("streamdag_session_latency_%s_bucket{le=\"+Inf\"} %d\n", u, s.Sessions.Latency.Count)
	p("streamdag_session_latency_%s_sum %d\n", u, s.Sessions.Latency.Sum)
	p("streamdag_session_latency_%s_count %d\n", u, s.Sessions.Latency.Count)

	if len(s.Links) > 0 {
		writeFamilies(bw, u, linkFamilies, s.Links, "link", func(l *LinkSnapshot) string { return l.Name })
	}
	return bw.err
}

// errWriter latches the first write error so WritePrometheus's loops
// don't need per-line checks.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}
