// Streamserve is the Engine API's service pattern: compile a topology
// once, start one resident engine, and serve every client request as its
// own session — its own sequence space, payloads, and completion — over
// the shared deadlock-safe topology.
//
// The demo serves a log-scrubbing flow (parse → drop debug noise →
// annotate) to concurrent clients on both in-process execution tiers:
//
//   - the typed Flow engine on the goroutine backend, with each request a
//     typed SessionOf (Push lines in, range annotated lines out);
//   - the same topology hand-wired on the distributed backend: two TCP
//     workers stay resident, and the requests multiplex over the shared
//     links as session-tagged frames with per-session credit windows.
//
// Both tiers attach a streamdag.Observer.  The typed tier additionally
// serves it over HTTP — Prometheus text at /metrics, expvar JSON at
// /debug/vars — on an ephemeral loopback port, scrapes itself, and fails
// (exit 1) unless the scrape shows non-zero node firings; the distributed
// tier asserts its snapshot programmatically, including per-link wire
// counters.  That makes the example double as the CI metrics smoke test.
//
// Run with:
//
//	go run ./examples/streamserve
//
// With -chaos the example instead runs the fault-tolerance smoke test:
// the scrub topology spread across THREE loopback TCP workers serving
// concurrent client sessions with session retry armed.  Mid-load it kills
// the middle worker's links, which the engine re-dials in place, and fails
// (exit 1) unless every session still completes with its full,
// exactly-once output — zero lost sessions:
//
//	go run ./examples/streamserve -chaos
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamdag"
)

const (
	clients  = 4
	requests = 2 // per client, served back to back
	lines    = 120
)

// requestLines fabricates one client request: a batch of log lines, a
// third of which are debug noise the service filters out.
func requestLines(client, request int) []string {
	out := make([]string, lines)
	for i := range out {
		sev := "INFO"
		switch i % 3 {
		case 1:
			sev = "DEBUG"
		case 2:
			sev = "WARN"
		}
		out[i] = fmt.Sprintf("%s c%d/r%d line-%03d", sev, client, request, i)
	}
	return out
}

func main() {
	chaos := flag.Bool("chaos", false, "run the chaos tier instead: three TCP workers under concurrent load, one killed mid-stream; fails unless every session survives with exactly-once delivery")
	flag.Parse()
	if *chaos {
		chaosTier()
		return
	}
	typedTier()
	distributedTier()
}

// typedTier serves the requests through a typed Flow engine: one
// CompileEngine, then a SessionOf per request — with an Observer exposed
// over HTTP and self-scraped at the end.
func typedTier() {
	obs := streamdag.NewObserver()
	eng, err := streamdag.NewFlow[string, string]().
		Then(
			streamdag.FilterStage("scrub", func(line string) bool {
				return !strings.HasPrefix(line, "DEBUG ")
			}),
			streamdag.Map("annotate", func(line string) string {
				return "[ok] " + line
			}),
		).
		CompileEngine(streamdag.WithObserver(obs), streamdag.WithWatchdog(10*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Exposition endpoints on an ephemeral loopback port: Prometheus text
	// at /metrics, expvar JSON at /debug/vars, both views of the same
	// Observer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler())
	mux.Handle("/debug/vars", obs.Handler())
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()

	type result struct {
		client, request, kept int
		first                 string
	}
	results := make([]result, 0, clients*requests)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				ses, err := eng.Open(context.Background())
				if err != nil {
					log.Fatal(err)
				}
				go func(batch []string) {
					for _, line := range batch {
						if err := ses.Push(context.Background(), line); err != nil {
							return
						}
					}
					ses.CloseSend()
				}(requestLines(c, r))
				kept, first := 0, ""
				for em := range ses.Out() {
					if kept == 0 {
						first = em.Value
					}
					kept++
				}
				if _, err := ses.Wait(); err != nil {
					log.Fatalf("session %d: %v", ses.ID(), err)
				}
				mu.Lock()
				results = append(results, result{c, r, kept, first})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	sort.Slice(results, func(i, j int) bool {
		if results[i].client != results[j].client {
			return results[i].client < results[j].client
		}
		return results[i].request < results[j].request
	})
	fmt.Printf("typed engine (goroutines): %d requests over one engine\n", len(results))
	for _, res := range results {
		fmt.Printf("  c%d/r%d: kept %d/%d, first %q\n",
			res.client, res.request, res.kept, lines, res.first)
	}
	scrapeMetrics(ln.Addr().String())
}

// scrapeMetrics curls the example's own /metrics and /debug/vars and
// fails the run unless the scrape shows the pipeline actually fired —
// the assertion CI's metrics smoke job relies on.
func scrapeMetrics(addr string) {
	prom := mustGet("http://" + addr + "/metrics")
	firings := int64(0)
	for _, line := range strings.Split(prom, "\n") {
		if !strings.HasPrefix(line, "streamdag_node_firings_total{") {
			continue
		}
		fields := strings.Fields(line)
		n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			log.Fatalf("streamserve: bad /metrics line %q: %v", line, err)
		}
		firings += n
	}
	if firings == 0 {
		log.Fatal("streamserve: /metrics scrape shows zero node firings")
	}
	vars := mustGet("http://" + addr + "/debug/vars")
	var decoded map[string]any
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		log.Fatalf("streamserve: /debug/vars is not valid JSON: %v", err)
	}
	if _, ok := decoded["streamdag"]; !ok {
		log.Fatal("streamserve: /debug/vars has no streamdag var")
	}
	fmt.Printf("  scraped %s: %d node firings via /metrics, /debug/vars ok\n", addr, firings)
}

// mustGet fetches url and returns the body, failing the run on any error.
func mustGet(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("streamserve: GET %s: %s", url, resp.Status)
	}
	return string(body)
}

// distributedTier serves concurrent requests over one resident pair of
// TCP workers: the same scrub/annotate topology, hand-wired kernels,
// sessions multiplexed over the shared links.
func distributedTier() {
	obs := streamdag.NewObserver()
	topo := streamdag.NewTopology()
	topo.Channel("ingest", "scrub", 16)
	topo.Channel("scrub", "deliver", 16)
	p, err := streamdag.Build(topo,
		streamdag.WithObserver(obs),
		streamdag.WithKernel("scrub", streamdag.KernelFunc(
			func(_ uint64, in []streamdag.Input) map[int]any {
				if !in[0].Present {
					return nil
				}
				line := in[0].Payload.(string)
				if strings.HasPrefix(line, "DEBUG ") {
					return nil // filtered; the dummy protocol keeps this safe
				}
				return map[int]any{0: "[ok] " + line}
			})),
		streamdag.WithBackend(streamdag.Distributed(map[string]string{
			"ingest": "edge", "scrub": "core", "deliver": "core",
		})),
		streamdag.WithWatchdog(10*time.Second),
	)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := p.Engine()
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	type result struct {
		client int
		kept   int64
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ses, err := eng.Open(context.Background(), streamdag.SliceSource(requestLines(c, 0)...), nil)
			if err != nil {
				log.Fatal(err)
			}
			stats, err := ses.Wait()
			if err != nil {
				log.Fatalf("session %d: %v", ses.ID(), err)
			}
			results[c] = result{c, stats.SinkData}
		}(c)
	}
	wg.Wait()

	fmt.Printf("distributed engine (2 TCP workers): %d concurrent sessions\n", clients)
	for _, res := range results {
		fmt.Printf("  c%d: delivered %d/%d\n", res.client, res.kept, lines)
	}

	// The distributed tier asserts its telemetry programmatically: every
	// session completed, the kernels fired, and the edge↔core links
	// actually carried frames.
	snap := obs.Snapshot()
	if snap.Sessions.Completed != clients {
		log.Fatalf("streamserve: snapshot shows %d completed sessions, want %d",
			snap.Sessions.Completed, clients)
	}
	var firings int64
	for _, n := range snap.Nodes {
		firings += n.Firings
	}
	if firings == 0 {
		log.Fatal("streamserve: distributed snapshot shows zero node firings")
	}
	var frames int64
	for _, l := range snap.Links {
		frames += l.TxFrames
	}
	if frames == 0 {
		log.Fatal("streamserve: distributed snapshot shows no wire frames")
	}
	fmt.Printf("  metrics: %d sessions completed, %d node firings, %d wire frames on %d links\n",
		snap.Sessions.Completed, firings, frames, len(snap.Links))
}

// chaosLines is the per-request batch size for the chaos tier — large
// enough (with the sink's per-delivery pacing) that every session is
// still mid-stream when the worker dies.
const chaosLines = 400

// chaosSink collects one session's deliveries, paces them so the kill
// lands mid-stream, and verifies exactly-once delivery: sequence numbers
// must stay strictly ascending across the transparent retry.
type chaosSink struct {
	total *atomic.Int64
	gate  func()

	mu      sync.Mutex
	count   int64
	lastSeq int64
	dup     bool
}

func (s *chaosSink) Emit(_ context.Context, seq uint64, _ any) error {
	time.Sleep(300 * time.Microsecond)
	s.mu.Lock()
	if int64(seq) <= s.lastSeq {
		s.dup = true
	}
	s.lastSeq = int64(seq)
	s.count++
	s.mu.Unlock()
	s.total.Add(1)
	s.gate()
	return nil
}

// chaosTier is the CI chaos smoke test: concurrent sessions over three
// TCP workers, the middle worker killed mid-load, zero lost sessions
// required.  The recovery stack — the engine re-linking the killed
// worker in place, session retry over a rewound source with sink
// de-duplication — must make the kill invisible to every client except
// as latency.
func chaosTier() {
	obs := streamdag.NewObserver()
	topo := streamdag.NewTopology()
	topo.Channel("ingest", "scrub", 16)
	topo.Channel("scrub", "deliver", 16)
	p, err := streamdag.Build(topo,
		streamdag.WithObserver(obs),
		streamdag.WithKernel("scrub", streamdag.KernelFunc(
			func(_ uint64, in []streamdag.Input) map[int]any {
				if !in[0].Present {
					return nil
				}
				line := in[0].Payload.(string)
				if strings.HasPrefix(line, "DEBUG ") {
					return nil
				}
				return map[int]any{0: "[ok] " + line}
			})),
		streamdag.WithBackend(streamdag.Distributed(map[string]string{
			"ingest": "edge", "scrub": "core", "deliver": "relay",
		})),
		streamdag.WithWatchdog(30*time.Second),
		streamdag.WithRetry(streamdag.RetryPolicy{MaxAttempts: 5, Backoff: 10 * time.Millisecond}),
	)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := p.Engine()
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Every request keeps the non-DEBUG lines: i%3 != 1.
	wantKept := int64(0)
	for i := 0; i < chaosLines; i++ {
		if i%3 != 1 {
			wantKept++
		}
	}

	// The kill fires once the fleet has collectively delivered enough to
	// prove every session is mid-stream.
	var total atomic.Int64
	killAt := int64(clients) * 20
	killGate := make(chan struct{})
	var once sync.Once
	gate := func() {
		if total.Load() >= killAt {
			once.Do(func() { close(killGate) })
		}
	}

	sinks := make([]*chaosSink, clients)
	sessions := make([]*streamdag.Session, clients)
	for c := 0; c < clients; c++ {
		// The severity follows the line index, so the kept count matches
		// wantKept exactly.
		payloads := make([]string, chaosLines)
		for i := range payloads {
			sev := "INFO"
			switch i % 3 {
			case 1:
				sev = "DEBUG"
			case 2:
				sev = "WARN"
			}
			payloads[i] = fmt.Sprintf("%s c%d line-%04d", sev, c, i)
		}
		sinks[c] = &chaosSink{total: &total, gate: gate, lastSeq: -1}
		ses, err := eng.Open(context.Background(), streamdag.SliceSource(payloads...), sinks[c])
		if err != nil {
			log.Fatal(err)
		}
		sessions[c] = ses
	}

	<-killGate
	tKill := time.Now()
	if err := eng.KillWorker("core"); err != nil {
		log.Fatalf("streamserve: KillWorker: %v", err)
	}
	fmt.Printf("chaos tier (3 TCP workers): killed worker \"core\" after %d fleet deliveries\n", total.Load())

	lost := 0
	for c, ses := range sessions {
		stats, err := ses.Wait()
		if err != nil {
			log.Printf("streamserve: session c%d (id %d) lost: %v", c, ses.ID(), err)
			lost++
			continue
		}
		s := sinks[c]
		s.mu.Lock()
		count, dup := s.count, s.dup
		s.mu.Unlock()
		if dup {
			log.Printf("streamserve: session c%d delivered a duplicate sequence number", c)
			lost++
			continue
		}
		if count != wantKept || stats.SinkData != wantKept {
			log.Printf("streamserve: session c%d delivered %d (stats %d), want %d", c, count, stats.SinkData, wantKept)
			lost++
		}
	}
	if lost > 0 {
		log.Fatalf("streamserve: %d of %d sessions lost to the kill", lost, clients)
	}

	snap := obs.Snapshot()
	if snap.Faults.WorkersDown < 1 || snap.Faults.SessionRetries < 1 {
		log.Fatalf("streamserve: fault counters unconvincing: %+v", snap.Faults)
	}
	fmt.Printf("  zero lost sessions: %d/%d completed exactly-once (%d lines each) %.0fms after the kill\n",
		clients, clients, wantKept, time.Since(tKill).Seconds()*1000)
	fmt.Printf("  fault metrics: workers_down=%d session_retries=%d\n",
		snap.Faults.WorkersDown, snap.Faults.SessionRetries)
}
