package streamdag

// This file is the public observability surface: an Observer owns one
// obs.Metrics for a compiled pipeline's executed topology, and every
// backend threads it through its hot paths when attached.  Attachment is
// opt-in and nil-cheap: a pipeline built without WithObserver (or with
// WithObserver(nil)) compiles the instrumentation out — the backends see
// a nil *obs.Metrics and pay at most a pointer check — so the batch-64
// hot path stays inside its existing allocation gate.
//
// Counter taxonomy (see DESIGN.md, "Observability"):
//
//   - per node: firings, service time, vectorized spans and the elements
//     they carried;
//   - per edge: data and dummy deliveries, current queue depth, and
//     credit-stall episodes with their cumulative stall time;
//   - per session: opened/active/completed/failed, sink deliveries, and
//     an open→EOF latency histogram;
//   - per link (distributed backend): frames, the messages and credits
//     they carried, and bytes in each direction, keyed
//     "sender→receiver".
//
// Time unit: wall-clock nanoseconds on the concurrent backends; virtual
// scheduler steps on the simulator, which makes simulator snapshots
// byte-identical across runs of the same configuration.

import (
	"fmt"
	"net/http"
	"sync"

	"streamdag/internal/obs"
)

// Snapshot is a point-in-time copy of an observed pipeline's telemetry,
// as returned by Engine.Metrics and Observer.Snapshot.
type Snapshot = obs.Snapshot

// NodeSnapshot is one node's counters within a Snapshot.
type NodeSnapshot = obs.NodeSnapshot

// EdgeSnapshot is one edge's counters within a Snapshot.
type EdgeSnapshot = obs.EdgeSnapshot

// SessionSnapshot is the session-lifecycle counters within a Snapshot.
type SessionSnapshot = obs.SessionSnapshot

// LinkSnapshot is one distributed link's wire counters within a Snapshot.
type LinkSnapshot = obs.LinkSnapshot

// HistogramSnapshot is a latency distribution within a Snapshot.
type HistogramSnapshot = obs.HistogramSnapshot

// TimeSnapshot is the time-aware stage counters within a Snapshot:
// timer-driven flushes delivered to timed kernels and the elements they
// emitted (see TumblingWindow and friends).
type TimeSnapshot = obs.TimeSnapshot

// Observer collects telemetry for one compiled topology.  Create it with
// NewObserver, attach it with WithObserver at Build/Compile, and read it
// with Snapshot or Handler at any time — including while streams are
// running.  One Observer may be re-attached across rebuilds of the
// identical topology (counters keep accumulating); attaching it to a
// different topology is an error.
type Observer struct {
	mu sync.Mutex
	m  *obs.Metrics
}

// NewObserver returns an empty, unattached Observer.
func NewObserver() *Observer { return &Observer{} }

// metrics returns the attached collector, nil before the first attach.
func (o *Observer) metrics() *obs.Metrics {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.m
}

// topoNames lists the executed topology's node and edge names in ID
// order — the slot layout the backends instrument against.
func topoNames(p *Pipeline) (nodeNames, edgeNames []string) {
	g := p.topo.g
	nodeNames = make([]string, g.NumNodes())
	for i := range nodeNames {
		nodeNames[i] = g.Name(NodeID(i))
	}
	edgeNames = make([]string, g.NumEdges())
	for _, ed := range g.Edges() {
		edgeNames[ed.ID] = g.Name(ed.From) + "→" + g.Name(ed.To)
	}
	return nodeNames, edgeNames
}

// attach binds the observer to p's executed topology, allocating the
// per-node/per-edge slots on first use.
func (o *Observer) attach(p *Pipeline) error {
	nodeNames, edgeNames := topoNames(p)
	o.mu.Lock()
	if o.m == nil {
		o.m = obs.New(nodeNames, edgeNames)
	} else if !o.m.Matches(nodeNames, edgeNames) {
		o.mu.Unlock()
		return fmt.Errorf("streamdag: observer is already attached to a different topology")
	}
	o.mu.Unlock()
	p.obs = o
	return nil
}

// Snapshot returns a point-in-time copy of the collected telemetry; an
// unattached observer returns an empty snapshot.  Safe to call while
// streams are running — counters are read atomically, though a snapshot
// taken mid-stream is not a consistent cut across counters.
func (o *Observer) Snapshot() *Snapshot {
	m := o.metrics()
	if m == nil {
		return &Snapshot{}
	}
	return m.Snapshot()
}

// Handler returns an HTTP handler serving the observer's telemetry: paths
// containing "vars" (mount it at /debug/vars) serve expvar-style JSON,
// everything else (mount at /metrics) serves Prometheus text format.  The
// handler reads the observer at request time, so it may be mounted before
// the pipeline is built.
func (o *Observer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := o.metrics()
		if m == nil {
			m = obs.New(nil, nil)
		}
		obs.Handler(m).ServeHTTP(w, r)
	})
}

// WithObserver attaches o to the pipeline being built, so every backend
// records telemetry into it.  A nil o is the default: no observer, zero
// instrumentation cost on the hot paths.
func WithObserver(o *Observer) Option {
	return func(c *buildConfig) { c.observer = o }
}

// obsMetrics resolves the pipeline's telemetry collector for the
// backends; nil (the default) compiles instrumentation out.
func (p *Pipeline) obsMetrics() *obs.Metrics {
	return p.obs.metrics()
}

// Metrics returns a point-in-time snapshot of the engine's telemetry:
// per-node service time and firings, per-edge queue depth, data/dummy
// counts and credit stalls, and per-session latency, on every backend.
// Without an attached Observer the snapshot is empty.
func (e *Engine) Metrics() *Snapshot {
	return e.p.obs.Snapshot()
}
