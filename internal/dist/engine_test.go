package dist

import (
	"context"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/sim"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

func engineKernels(g *graph.Graph, f workload.FilterFunc) map[graph.NodeID]stream.Kernel {
	ks := make(map[graph.NodeID]stream.Kernel, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		out := g.Out(id)
		ks[id] = stream.KernelFunc(func(seq uint64, in []stream.Input) map[int]any {
			var payload any = seq
			for _, i := range in {
				if i.Present {
					payload = i.Payload
					break
				}
			}
			outs := make(map[int]any, len(out))
			for i, e := range out {
				if f(id, seq, e) {
					outs[i] = payload
				}
			}
			return outs
		})
	}
	return ks
}

// TestEngineSessionsMatchSoloRuns streams several concurrent sessions
// over one resident two-worker engine: per-session counts must equal the
// simulator's for a solo stream, and each session must receive exactly
// its own payloads in order.
func TestEngineSessionsMatchSoloRuns(t *testing.T) {
	g := workload.Fig2Triangle(2)
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := d.Intervals(cs4.Propagation)
	if err != nil {
		t.Fatal(err)
	}
	var ac graph.EdgeID
	for _, e := range g.Edges() {
		if g.Name(e.From) == "A" && g.Name(e.To) == "C" {
			ac = e.ID
		}
	}
	drop := workload.DropEdge(ac)
	part := Partition{}
	for n := 0; n < g.NumNodes(); n++ {
		if n%2 == 0 {
			part[graph.NodeID(n)] = "alpha"
		} else {
			part[graph.NodeID(n)] = "beta"
		}
	}
	cfg := Config{Algorithm: cs4.Propagation, Intervals: iv, WatchdogTimeout: 5 * time.Second}

	// Solo reference: the deterministic simulator.
	const inputs = 120
	solo := sim.Run(g, sim.Filter(drop), sim.Config{
		Inputs: inputs, Algorithm: cs4.Propagation, Intervals: iv,
	})
	if !solo.Completed {
		t.Fatalf("solo run deadlocked: %v", solo.Blocked)
	}

	eng, err := NewEngine(g, part, engineKernels(g, drop), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const sessions = 4
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			i := 0
			source := func(context.Context) (any, bool, error) {
				if i >= inputs {
					return nil, false, nil
				}
				v := fmt.Sprintf("s%d-%d", s, i)
				i++
				return v, true, nil
			}
			var mu sync.Mutex
			var seen []string
			ses, err := eng.Open(SessionIO{
				ID:     proto.SessionID(s + 1),
				Source: source,
				Sink: func(_ context.Context, seq uint64, payload any) error {
					mu.Lock()
					seen = append(seen, payload.(string))
					mu.Unlock()
					return nil
				},
			})
			if err != nil {
				errs[s] = err
				return
			}
			stats, err := ses.Wait()
			if err != nil {
				errs[s] = err
				return
			}
			if stats.SinkData != solo.SinkData {
				errs[s] = fmt.Errorf("session %d SinkData = %d, solo %d", s, stats.SinkData, solo.SinkData)
				return
			}
			for e, want := range solo.DataMsgs {
				if stats.Data[e] != want {
					errs[s] = fmt.Errorf("session %d edge %d data = %d, solo %d", s, e, stats.Data[e], want)
					return
				}
			}
			for e, want := range solo.DummyMsgs {
				if stats.Dummies[e] != want {
					errs[s] = fmt.Errorf("session %d edge %d dummies = %d, solo %d", s, e, stats.Dummies[e], want)
					return
				}
			}
			prefix := fmt.Sprintf("s%d-", s)
			last := -1
			for _, p := range seen {
				var idx int
				if _, err := fmt.Sscanf(p, prefix+"%d", &idx); err != nil {
					errs[s] = fmt.Errorf("session %d saw foreign payload %q", s, p)
					return
				}
				if idx <= last {
					errs[s] = fmt.Errorf("session %d emissions out of order", s)
					return
				}
				last = idx
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseLeavesNoTimeWait pins that a link closes with a reset, not the
// orderly shutdown: after a session, a KillWorker that replaces both
// links, and Close, the kernel's TCP tables hold no TIME_WAIT socket
// (state 06) on any connection between a link's dialed end and the
// listener it reached.  Each such socket would hold a loopback port for a
// minute.  Skips where /proc/net/tcp cannot be read.
func TestCloseLeavesNoTimeWait(t *testing.T) {
	if _, err := os.ReadFile("/proc/net/tcp"); err != nil {
		t.Skipf("no TCP table to read: %v", err)
	}
	g := workload.Pipeline(3, 64)
	eng, err := NewEngine(g, Partition{0: "w0", 1: "w1", 2: "w0"}, nil, Config{WatchdogTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// links are the port pairs, dialed end and listener, of every link
	// the engine has used.
	links := map[[2]int]bool{}
	note := func() {
		for _, c := range eng.carriers {
			local, err := net.ResolveTCPAddr("tcp", c.link.Load().local)
			if err != nil {
				t.Fatal(err)
			}
			ln := eng.listeners[c.to].Addr().(*net.TCPAddr)
			links[[2]int{local.Port, ln.Port}] = true
		}
	}
	run := func() {
		ses, err := eng.Open(SessionIO{ID: proto.SessionID(len(links) + 1), Source: stream.SyntheticSource(2000)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ses.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	note()
	run()
	if err := eng.KillWorker("w1"); err != nil {
		t.Fatal(err)
	}
	note()
	run()
	eng.Close()
	if len(links) != 4 {
		t.Fatalf("noted %d links, want the 2 dialed at NewEngine and the 2 KillWorker re-dialed", len(links))
	}
	for _, table := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		b, err := os.ReadFile(table)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n")[1:] {
			f := strings.Fields(line)
			if len(f) < 4 || f[3] != "06" {
				continue
			}
			local, remote := hexPort(f[1]), hexPort(f[2])
			if links[[2]int{local, remote}] || links[[2]int{remote, local}] {
				t.Errorf("%s: a link's socket %s → %s is in TIME_WAIT after Close", table, f[1], f[2])
			}
		}
	}
}

// hexPort is the port of a /proc/net/tcp address, "IP:PORT" in hex.
func hexPort(addr string) int {
	i := strings.LastIndexByte(addr, ':')
	p, err := strconv.ParseUint(addr[i+1:], 16, 16)
	if err != nil {
		return -1
	}
	return int(p)
}
