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
	"sort"
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
	// Spans counts vectorized ProcessSpan invocations; SpanMsgs the
	// elements they carried.  SpanMsgs/Spans is the realized batch size.
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
	TxBodies atomic.Int64 // protocol units carried: a run frame's messages, a credit frame's credits
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
	return &Metrics{
		nodeNames: append([]string(nil), nodeNames...),
		edgeNames: append([]string(nil), edgeNames...),
		nodes:     make([]NodeMetrics, len(nodeNames)),
		edges:     make([]EdgeMetrics, len(edgeNames)),
		life:      &lifecycle{links: make(map[string]*LinkMetrics)},
	}
}

// Rebind builds a Metrics for a new topology that shares m's lifecycle
// counters (sessions, faults, scale, links).  Per-node and per-edge
// counters start at zero — a Prometheus counter reset, labeled by the
// new topology's names — while the shared totals carry over, and
// engines still draining against m keep feeding them.
func (m *Metrics) Rebind(nodeNames, edgeNames []string) *Metrics {
	nm := &Metrics{
		nodeNames: append([]string(nil), nodeNames...),
		edgeNames: append([]string(nil), edgeNames...),
		nodes:     make([]NodeMetrics, len(nodeNames)),
		edges:     make([]EdgeMetrics, len(edgeNames)),
		life:      m.life,
	}
	nm.virtual.Store(m.virtual.Load())
	return nm
}

// Matches reports whether m was built for exactly this topology — the
// attach-twice guard for observers reused across builds of one flow.
func (m *Metrics) Matches(nodeNames, edgeNames []string) bool {
	if len(nodeNames) != len(m.nodeNames) || len(edgeNames) != len(m.edgeNames) {
		return false
	}
	for i, n := range nodeNames {
		if m.nodeNames[i] != n {
			return false
		}
	}
	for i, e := range edgeNames {
		if m.edgeNames[i] != e {
			return false
		}
	}
	return true
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
	Opened    int64             `json:"opened"`
	Active    int64             `json:"active"`
	Completed int64             `json:"completed"`
	Failed    int64             `json:"failed"`
	SinkMsgs  int64             `json:"sink_msgs"`
	Latency   HistogramSnapshot `json:"latency"`
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

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() *Snapshot {
	s := &Snapshot{
		VirtualTime: m.virtual.Load(),
		Nodes:       make([]NodeSnapshot, len(m.nodes)),
		Edges:       make([]EdgeSnapshot, len(m.edges)),
	}
	for i := range m.nodes {
		n := &m.nodes[i]
		s.Nodes[i] = NodeSnapshot{
			Name:        m.nodeNames[i],
			Firings:     n.Firings.Load(),
			ServiceTime: n.ServiceTime.Load(),
			Spans:       n.Spans.Load(),
			SpanMsgs:    n.SpanMsgs.Load(),
		}
	}
	for i := range m.edges {
		e := &m.edges[i]
		s.Edges[i] = EdgeSnapshot{
			Name:            m.edgeNames[i],
			Data:            e.Data.Load(),
			Dummies:         e.Dummies.Load(),
			Depth:           e.Sent.Load() - e.Consumed.Load(),
			CreditStalls:    e.CreditStalls.Load(),
			CreditStallTime: e.CreditStallTime.Load(),
		}
	}
	ss := &m.life.sessions
	s.Sessions = SessionSnapshot{
		Opened:    ss.Opened.Load(),
		Active:    ss.Active.Load(),
		Completed: ss.Completed.Load(),
		Failed:    ss.Failed.Load(),
		SinkMsgs:  ss.SinkMsgs.Load(),
		Latency:   ss.Latency.snapshot(),
	}
	f := &m.life.faults
	s.Faults = FaultSnapshot{
		WorkersDown:    f.WorkersDown.Load(),
		SessionRetries: f.SessionRetries.Load(),
		DeadLettered:   f.DeadLettered.Load(),
		Drains:         f.Drains.Load(),
		DrainTime:      f.DrainTime.Load(),
	}
	sc := &m.life.scale
	s.Scale = ScaleSnapshot{
		ScaleUps:         sc.ScaleUps.Load(),
		ScaleDowns:       sc.ScaleDowns.Load(),
		RescaleTime:      sc.RescaleTime.Load(),
		SessionsMigrated: sc.SessionsMigrated.Load(),
		SessionsEvicted:  sc.SessionsEvicted.Load(),
	}
	tm := &m.life.timed
	s.Time = TimeSnapshot{
		TimerTicks:     tm.TimerTicks.Load(),
		TimedEmissions: tm.TimedEmissions.Load(),
	}
	m.life.linkMu.Lock()
	names := make([]string, 0, len(m.life.links))
	for name := range m.life.links {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l := m.life.links[name]
		s.Links = append(s.Links, LinkSnapshot{
			Name:     name,
			TxFrames: l.TxFrames.Load(),
			TxBodies: l.TxBodies.Load(),
			TxBytes:  l.TxBytes.Load(),
			RxFrames: l.RxFrames.Load(),
			RxBytes:  l.RxBytes.Load(),
		})
	}
	m.life.linkMu.Unlock()
	return s
}

// Delta returns s - prev: every counter becomes its increase since
// prev, while point-in-time gauges (edge Depth, Active sessions) keep
// their current values.  Nodes, edges, and links are matched by name —
// entries absent from prev (a topology expanded by rescale) delta
// against zero, and entries that disappeared are dropped.  A nil prev
// returns s unchanged.  This is the windowed-rate helper the
// bottleneck detector (and dashboards) build rates from: two snapshots
// a known interval apart give rate = Delta / interval with no
// re-derivation by hand.
func (s *Snapshot) Delta(prev *Snapshot) *Snapshot {
	if prev == nil {
		return s
	}
	d := &Snapshot{
		VirtualTime: s.VirtualTime,
		Nodes:       make([]NodeSnapshot, len(s.Nodes)),
		Edges:       make([]EdgeSnapshot, len(s.Edges)),
	}
	for i, n := range s.Nodes {
		if p := prev.NodeByName(n.Name); p != nil {
			n.Firings -= p.Firings
			n.ServiceTime -= p.ServiceTime
			n.Spans -= p.Spans
			n.SpanMsgs -= p.SpanMsgs
		}
		d.Nodes[i] = n
	}
	for i, e := range s.Edges {
		if p := prev.EdgeByName(e.Name); p != nil {
			e.Data -= p.Data
			e.Dummies -= p.Dummies
			e.CreditStalls -= p.CreditStalls
			e.CreditStallTime -= p.CreditStallTime
			// Depth is a gauge: keep the current value.
		}
		d.Edges[i] = e
	}
	d.Sessions = SessionSnapshot{
		Opened:    s.Sessions.Opened - prev.Sessions.Opened,
		Active:    s.Sessions.Active, // gauge
		Completed: s.Sessions.Completed - prev.Sessions.Completed,
		Failed:    s.Sessions.Failed - prev.Sessions.Failed,
		SinkMsgs:  s.Sessions.SinkMsgs - prev.Sessions.SinkMsgs,
		Latency:   s.Sessions.Latency.delta(&prev.Sessions.Latency),
	}
	d.Faults = FaultSnapshot{
		WorkersDown:    s.Faults.WorkersDown - prev.Faults.WorkersDown,
		SessionRetries: s.Faults.SessionRetries - prev.Faults.SessionRetries,
		DeadLettered:   s.Faults.DeadLettered - prev.Faults.DeadLettered,
		Drains:         s.Faults.Drains - prev.Faults.Drains,
		DrainTime:      s.Faults.DrainTime - prev.Faults.DrainTime,
	}
	d.Scale = ScaleSnapshot{
		ScaleUps:         s.Scale.ScaleUps - prev.Scale.ScaleUps,
		ScaleDowns:       s.Scale.ScaleDowns - prev.Scale.ScaleDowns,
		RescaleTime:      s.Scale.RescaleTime - prev.Scale.RescaleTime,
		SessionsMigrated: s.Scale.SessionsMigrated - prev.Scale.SessionsMigrated,
		SessionsEvicted:  s.Scale.SessionsEvicted - prev.Scale.SessionsEvicted,
	}
	d.Time = TimeSnapshot{
		TimerTicks:     s.Time.TimerTicks - prev.Time.TimerTicks,
		TimedEmissions: s.Time.TimedEmissions - prev.Time.TimedEmissions,
	}
	for _, l := range s.Links {
		for i := range prev.Links {
			if prev.Links[i].Name == l.Name {
				p := &prev.Links[i]
				l.TxFrames -= p.TxFrames
				l.TxBodies -= p.TxBodies
				l.TxBytes -= p.TxBytes
				l.RxFrames -= p.RxFrames
				l.RxBytes -= p.RxBytes
				break
			}
		}
		d.Links = append(d.Links, l)
	}
	return d
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

	p("# HELP streamdag_node_firings_total Data-carrying kernel firings per node.\n")
	p("# TYPE streamdag_node_firings_total counter\n")
	for _, n := range s.Nodes {
		p("streamdag_node_firings_total{node=%q} %d\n", n.Name, n.Firings)
	}
	p("# HELP streamdag_node_service_time_%s_total Cumulative node service time (%s).\n", u, u)
	p("# TYPE streamdag_node_service_time_%s_total counter\n", u)
	for _, n := range s.Nodes {
		p("streamdag_node_service_time_%s_total{node=%q} %d\n", u, n.Name, n.ServiceTime)
	}
	p("# HELP streamdag_node_spans_total Vectorized span invocations per node.\n")
	p("# TYPE streamdag_node_spans_total counter\n")
	for _, n := range s.Nodes {
		p("streamdag_node_spans_total{node=%q} %d\n", n.Name, n.Spans)
	}
	p("# HELP streamdag_node_span_msgs_total Elements carried by spans per node.\n")
	p("# TYPE streamdag_node_span_msgs_total counter\n")
	for _, n := range s.Nodes {
		p("streamdag_node_span_msgs_total{node=%q} %d\n", n.Name, n.SpanMsgs)
	}

	p("# HELP streamdag_edge_data_total Data messages sent per edge.\n")
	p("# TYPE streamdag_edge_data_total counter\n")
	for _, e := range s.Edges {
		p("streamdag_edge_data_total{edge=%q} %d\n", e.Name, e.Data)
	}
	p("# HELP streamdag_edge_dummies_total Protocol dummy messages sent per edge.\n")
	p("# TYPE streamdag_edge_dummies_total counter\n")
	for _, e := range s.Edges {
		p("streamdag_edge_dummies_total{edge=%q} %d\n", e.Name, e.Dummies)
	}
	p("# HELP streamdag_edge_queue_depth Messages currently queued per edge.\n")
	p("# TYPE streamdag_edge_queue_depth gauge\n")
	for _, e := range s.Edges {
		p("streamdag_edge_queue_depth{edge=%q} %d\n", e.Name, e.Depth)
	}
	p("# HELP streamdag_edge_credit_stalls_total Blocked-send episodes per edge.\n")
	p("# TYPE streamdag_edge_credit_stalls_total counter\n")
	for _, e := range s.Edges {
		p("streamdag_edge_credit_stalls_total{edge=%q} %d\n", e.Name, e.CreditStalls)
	}
	p("# HELP streamdag_edge_credit_stall_%s_total Cumulative blocked-send time per edge (%s).\n", u, u)
	p("# TYPE streamdag_edge_credit_stall_%s_total counter\n", u)
	for _, e := range s.Edges {
		p("streamdag_edge_credit_stall_%s_total{edge=%q} %d\n", u, e.Name, e.CreditStallTime)
	}

	p("# HELP streamdag_sessions_opened_total Sessions opened.\n")
	p("# TYPE streamdag_sessions_opened_total counter\n")
	p("streamdag_sessions_opened_total %d\n", s.Sessions.Opened)
	p("# HELP streamdag_sessions_active Sessions currently open.\n")
	p("# TYPE streamdag_sessions_active gauge\n")
	p("streamdag_sessions_active %d\n", s.Sessions.Active)
	p("# HELP streamdag_sessions_completed_total Sessions completed (EOF).\n")
	p("# TYPE streamdag_sessions_completed_total counter\n")
	p("streamdag_sessions_completed_total %d\n", s.Sessions.Completed)
	p("# HELP streamdag_sessions_failed_total Sessions ended with an error.\n")
	p("# TYPE streamdag_sessions_failed_total counter\n")
	p("streamdag_sessions_failed_total %d\n", s.Sessions.Failed)
	p("# HELP streamdag_sink_msgs_total Data-carrying sink deliveries.\n")
	p("# TYPE streamdag_sink_msgs_total counter\n")
	p("streamdag_sink_msgs_total %d\n", s.Sessions.SinkMsgs)

	p("# HELP streamdag_fault_workers_down_total Workers whose links were dropped and re-dialed.\n")
	p("# TYPE streamdag_fault_workers_down_total counter\n")
	p("streamdag_fault_workers_down_total %d\n", s.Faults.WorkersDown)
	p("# HELP streamdag_fault_session_retries_total Session re-open attempts by the retry layer.\n")
	p("# TYPE streamdag_fault_session_retries_total counter\n")
	p("streamdag_fault_session_retries_total %d\n", s.Faults.SessionRetries)
	p("# HELP streamdag_fault_dead_lettered_total Payloads routed to the dead-letter sink.\n")
	p("# TYPE streamdag_fault_dead_lettered_total counter\n")
	p("streamdag_fault_dead_lettered_total %d\n", s.Faults.DeadLettered)
	p("# HELP streamdag_fault_drains_total Completed engine drains.\n")
	p("# TYPE streamdag_fault_drains_total counter\n")
	p("streamdag_fault_drains_total %d\n", s.Faults.Drains)
	p("# HELP streamdag_fault_drain_%s_total Cumulative drain duration (%s).\n", u, u)
	p("# TYPE streamdag_fault_drain_%s_total counter\n", u)
	p("streamdag_fault_drain_%s_total %d\n", u, s.Faults.DrainTime)

	p("# HELP streamdag_scale_ups_total Committed rescales that raised a node's replica count.\n")
	p("# TYPE streamdag_scale_ups_total counter\n")
	p("streamdag_scale_ups_total %d\n", s.Scale.ScaleUps)
	p("# HELP streamdag_scale_downs_total Committed rescales that lowered a node's replica count.\n")
	p("# TYPE streamdag_scale_downs_total counter\n")
	p("streamdag_scale_downs_total %d\n", s.Scale.ScaleDowns)
	p("# HELP streamdag_scale_rescale_%s_total Cumulative re-plan and swap time (%s).\n", u, u)
	p("# TYPE streamdag_scale_rescale_%s_total counter\n", u)
	p("streamdag_scale_rescale_%s_total %d\n", u, s.Scale.RescaleTime)
	p("# HELP streamdag_scale_sessions_migrated_total Sessions migrated off a retiring topology via the retry path.\n")
	p("# TYPE streamdag_scale_sessions_migrated_total counter\n")
	p("streamdag_scale_sessions_migrated_total %d\n", s.Scale.SessionsMigrated)
	p("# HELP streamdag_scale_sessions_evicted_total Sessions cancelled at the rescale drain deadline.\n")
	p("# TYPE streamdag_scale_sessions_evicted_total counter\n")
	p("streamdag_scale_sessions_evicted_total %d\n", s.Scale.SessionsEvicted)

	p("# HELP streamdag_time_timer_ticks_total Timer-driven flushes delivered to time-aware kernels.\n")
	p("# TYPE streamdag_time_timer_ticks_total counter\n")
	p("streamdag_time_timer_ticks_total %d\n", s.Time.TimerTicks)
	p("# HELP streamdag_time_timed_emissions_total Elements emitted by time-aware kernels.\n")
	p("# TYPE streamdag_time_timed_emissions_total counter\n")
	p("streamdag_time_timed_emissions_total %d\n", s.Time.TimedEmissions)

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
		p("# HELP streamdag_link_tx_frames_total Wire frames written per worker link.\n")
		p("# TYPE streamdag_link_tx_frames_total counter\n")
		for _, l := range s.Links {
			p("streamdag_link_tx_frames_total{link=%q} %d\n", l.Name, l.TxFrames)
		}
		p("# HELP streamdag_link_tx_bodies_total Protocol bodies sent per worker link.\n")
		p("# TYPE streamdag_link_tx_bodies_total counter\n")
		for _, l := range s.Links {
			p("streamdag_link_tx_bodies_total{link=%q} %d\n", l.Name, l.TxBodies)
		}
		p("# HELP streamdag_link_tx_bytes_total Bytes written per worker link.\n")
		p("# TYPE streamdag_link_tx_bytes_total counter\n")
		for _, l := range s.Links {
			p("streamdag_link_tx_bytes_total{link=%q} %d\n", l.Name, l.TxBytes)
		}
		p("# HELP streamdag_link_rx_frames_total Wire frames read per worker link.\n")
		p("# TYPE streamdag_link_rx_frames_total counter\n")
		for _, l := range s.Links {
			p("streamdag_link_rx_frames_total{link=%q} %d\n", l.Name, l.RxFrames)
		}
		p("# HELP streamdag_link_rx_bytes_total Bytes read per worker link.\n")
		p("# TYPE streamdag_link_rx_bytes_total counter\n")
		for _, l := range s.Links {
			p("streamdag_link_rx_bytes_total{link=%q} %d\n", l.Name, l.RxBytes)
		}
	}
	return bw.err
}

// errWriter latches the first write error so the long fprintf chain in
// WritePrometheus doesn't need per-line checks.
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
