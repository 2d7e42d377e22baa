package dist

// Wire-input hardening (ROADMAP 4c): what a frame reader is handed comes
// from outside the program.  A frame that does not parse, or that names
// an edge or a count the topology rules out, must fail the engine's
// sessions with an error naming the frame — never panic a reader or a
// node loop, never hang, never let a credit pass what was sent.  A frame
// that parses and fits the topology on a connection the link does not use
// is dropped.

import (
	"context"
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/sim"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

const wireBuf = 8

// wireEngine is a three-node chain s0→s1→s2 with s1 alone on worker
// "w1": edge 0 runs w0→w1 and edge 1 runs w1→w0, both of capacity
// wireBuf.  Its observer counts the frames each worker reads.
func wireEngine(t testing.TB) *Engine {
	t.Helper()
	g := workload.Pipeline(3, wireBuf)
	eng, err := NewEngine(g, Partition{0: "w0", 1: "w1", 2: "w0"}, nil, Config{WatchdogTimeout: time.Hour, Obs: graphMetrics(g)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// openIdle opens a session whose source never yields, so it stays open —
// with nothing in flight on any edge — until the test ends it.
func openIdle(t testing.TB, eng *Engine, id proto.SessionID) (*EngineSession, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ses, err := eng.Open(SessionIO{ID: id, Ctx: ctx, Source: func(ctx context.Context) (any, bool, error) {
		<-ctx.Done()
		return nil, false, ctx.Err()
	}})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	return ses, cancel
}

// runBody hand-assembles a run frame body, so counts and elements can
// disagree.
func runBody(sid uint64, edge, count uint32, elems ...byte) []byte {
	b := binary.BigEndian.AppendUint64([]byte{frameRun}, sid)
	b = binary.BigEndian.AppendUint32(b, edge)
	return append(binary.BigEndian.AppendUint32(b, count), elems...)
}

func frame(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// wireInputs is how many payloads openGated's sessions stream.
const wireInputs = 200

// openGated opens a session of wireInputs payloads whose source yields
// nothing until release is called, so the session is open with nothing
// on any link until then.  seen collects the sink's payloads.
func openGated(t *testing.T, eng *Engine, id proto.SessionID) (ses *EngineSession, release func(), seen *[]any) {
	t.Helper()
	gate := make(chan struct{})
	n := uint64(0)
	seen = new([]any)
	ses, err := eng.Open(SessionIO{ID: id,
		Source: func(ctx context.Context) (any, bool, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if n == wireInputs {
				return nil, false, nil
			}
			n++
			return n, true, nil
		},
		Sink: func(_ context.Context, _ uint64, p any) error {
			*seen = append(*seen, p)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ses, sync.OnceFunc(func() { close(gate) }), seen
}

// requireMatchesSim waits for a session of openGated's on wireEngine and
// checks that it completed as the simulator says.
func requireMatchesSim(t *testing.T, eng *Engine, ses *EngineSession) {
	t.Helper()
	stats, err := ses.Wait()
	if err != nil {
		t.Fatalf("session failed: %v", err)
	}
	assertMatchesSim(t, eng.g, stats, sim.Run(eng.g, sim.Filter(workload.PassAll), sim.Config{Inputs: wireInputs}))
}

// sendFrames writes the frames with the given bodies to worker w1 from
// "w0" — on the w0→w1 link's own connection, or with stray on a second
// connection that says hello as w0 — and returns once w1 has read them:
// w1 counts every frame it reads from w0, and the link itself carries
// none while the test's sessions wait.
func sendFrames(t *testing.T, eng *Engine, stray bool, bodies ...[]byte) {
	t.Helper()
	rx := &eng.cfg.Obs.Link("w0→w1").RxFrames
	before := rx.Load()
	c, wire := eng.carriers[[2]string{"w0", "w1"}].link.Load().conn, []byte(nil)
	if stray {
		var err error
		if c, err = net.Dial("tcp", eng.listeners["w1"].Addr().String()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		wire = appendHello(nil, "w0")
	}
	for _, body := range bodies {
		wire = append(wire, frame(body)...)
	}
	if _, err := c.Write(wire); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); rx.Load() < before+int64(len(bodies)); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("w1 read %d of the %d frames", rx.Load()-before, len(bodies))
		}
	}
}

func TestHostileFramesFailTheEngine(t *testing.T) {
	dummy := []byte{1, byte(stream.Dummy)} // seq delta 1, no payload
	datum := append([]byte{1, byte(stream.Data), pUint64}, 0, 0, 0, 0, 0, 0, 0, 7)
	cases := []struct {
		name string
		body []byte // arrives at w1 on a connection that said hello as w0
		// link sends the frame on the w0→w1 link's own connection: a
		// stray one drops well-formed frames, and only malformed ones fail
		// the engine from there.
		link bool
		// want is what the session's error says; nil for a legal frame,
		// after which the session completes as the simulator says.
		want []string
	}{
		{"run of zero", runBody(1, 0, 0), false, []string{"run frame", "edge 0", "count 0"}},
		{"run longer than the edge's capacity", runBody(1, 0, wireBuf+1, dummy...), false, []string{"run frame", "count 9", "capacity 1..8"}},
		{"run on an edge that leaves this worker", runBody(1, 1, 1, dummy...), false, []string{"run frame", "edge 1", `the edge runs "w1"→"w0"`}},
		{"run on an edge that does not exist", runBody(1, 99, 1, dummy...), false, []string{"run frame", "edge 99", "no such edge"}},
		{"run with a truncated element", runBody(1, 0, 2, append(append([]byte(nil), datum...), datum[:6]...)...), false, []string{"run frame", "edge 0", "element 1 of 2"}},
		{"run shorter than its count", runBody(1, 0, 3, dummy...), false, []string{"run frame", "truncated at element 1 of 3"}},
		{"credit of zero", appendCredit(nil, 1, 1, 0)[4:], true, nil},
		{"credit larger than the edge's capacity", appendCredit(nil, 1, 1, wireBuf+1)[4:], true, []string{"credit for 9 messages", "s1→s2", "of 0 sent"}},
		{"credit on an edge this worker consumes", appendCredit(nil, 1, 0, 1)[4:], false, []string{"credit frame", "edge 0", `the edge runs "w0"→"w1"`}},
		{"credit larger than what is in flight", appendCredit(nil, 1, 1, 3)[4:], true, []string{"credit for 3 messages", "s1→s2", "of 0 sent"}},
		{"short credit frame", appendCredit(nil, 1, 1, 1)[4:12], false, []string{"bad credit frame"}},
		{"unknown frame type", []byte{'?', 1, 2, 3}, false, []string{`unknown frame type '?'`, `from "w0"`}},
		{"retired beat frame", []byte{'b'}, false, []string{`unknown frame type 'b'`, `from "w0"`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := wireEngine(t)
			if tc.want == nil {
				ses, release, _ := openGated(t, eng, 1)
				sendFrames(t, eng, !tc.link, tc.body)
				release()
				requireMatchesSim(t, eng, ses)
				return
			}
			ses, cancel := openIdle(t, eng, 1)
			defer cancel()
			sendFrames(t, eng, !tc.link, tc.body)
			select {
			case <-ses.Done():
			case <-time.After(10 * time.Second):
				t.Fatal("the frame did not fail the session")
			}
			_, err := ses.Wait()
			for _, want := range tc.want {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("session error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// FuzzFrameBody feeds arbitrary frame bodies to a worker's dispatcher
// with a session open on the engine (the body's session field is pointed
// at it, so well-formed frames reach the node loops): every body is
// accepted or rejected with an error, the dispatcher returns, and the
// session still resolves when cancelled.  The seed corpus — valid frames
// and each malformed shape — runs under plain `go test`.
func FuzzFrameBody(f *testing.F) {
	run, _, _ := appendRun(nil, 1, 0, []stream.Message{
		{Seq: 3, Kind: stream.Data, Payload: "seed"},
		{Seq: 4, Kind: stream.Dummy},
		{Seq: 9, Kind: stream.Data, Payload: uint64(5)},
	})
	eos, _, _ := appendRun(nil, 1, 0, []stream.Message{{Seq: proto.EOSSeq, Kind: stream.EOS}})
	// Mixed runs: one the edge's capacity admits, so it is decoded and
	// delivered, and a 64-run the worker must reject by its count.
	mixed, _, _ := appendRun(nil, 1, 0, mixedRun(wireBuf))
	mixed64, _, _ := appendRun(nil, 1, 0, mixedRun(64))
	f.Add(run[4:])
	f.Add(eos[4:])
	f.Add(mixed[4:])
	f.Add(mixed64[4:])
	f.Add(appendCredit(nil, 1, 1, 2)[4:])
	f.Add(appendHello(nil, "w0")[4:])
	f.Add(runBody(1, 0, 0))
	f.Add(runBody(1, 0, 2, 1, byte(stream.Data), pString, 200))
	f.Add(runBody(1, 7, 1, 1, byte(stream.Dummy)))
	f.Add(runBody(1, 0, 1, 1, byte(stream.Data), pGob, 3, 1, 2, 3))
	f.Add(runBody(1, 0, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, byte(stream.EOS), 1, byte(stream.Dummy)))
	f.Add([]byte{frameCredit, 0, 0})
	f.Add([]byte{'B', 0, 0, 0, 1})
	f.Add(appendCredit(nil, 1, 1, 1<<40)[4:])

	eng := wireEngine(f)
	var id uint64
	var scratch []stream.Message
	words := boxUint64.Arena()
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 || len(body) > maxFrame {
			return // readFrame never hands these on
		}
		id++
		ses, cancel := openIdle(t, eng, proto.SessionID(id))
		if len(body) >= 9 {
			body = append([]byte(nil), body...)
			binary.BigEndian.PutUint64(body[1:], id)
		}
		_ = eng.handleBody("w0", "w1", true, body, &scratch, &words)
		cancel()
		select {
		case <-ses.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("session did not resolve after the frame")
		}
	})
}

// TestCreditNeverDrivesInflightNegative acknowledges more messages than a
// live stream has sent, mid-stream: the session fails with the credit
// error rather than running on with a widened window.
func TestCreditNeverDrivesInflightNegative(t *testing.T) {
	eng := wireEngine(t)
	release := make(chan struct{})
	n := 0
	ses, err := eng.Open(SessionIO{ID: 1, Source: func(ctx context.Context) (any, bool, error) {
		if n == 3 {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		n++
		return uint64(n), true, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)
	// Edge 0 (s0→s1) has had at most three messages sent; a credit frame
	// from w1 acknowledging wireBuf of them must fail the session.
	var scratch []stream.Message
	if err := eng.handleBody("w1", "w0", true, appendCredit(nil, 1, graph.EdgeID(0), wireBuf)[4:], &scratch, nil); err != nil {
		t.Fatalf("dispatcher rejected a credit within the edge's capacity: %v", err)
	}
	select {
	case <-ses.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the credit did not fail the session")
	}
	if _, err := ses.Wait(); err == nil || !strings.Contains(err.Error(), "credit for 8 messages") {
		t.Fatalf("session error %v, want the credit overflow", err)
	}
}

// TestStrayConnectionRunDropped sends a valid run for an open session —
// the first datum on edge 0 — and a well-formed credit on edge 1 on a
// second connection that says hello as "w0".  Only the link's own
// connection hands frames on, so the run never reaches s1: the sink never
// sees its payload, and the session completes as the simulator says,
// which a second copy of sequence number 0 at s1 would break, as would
// the credit, far above anything s1 sends.
func TestStrayConnectionRunDropped(t *testing.T) {
	eng := wireEngine(t)
	ses, release, seen := openGated(t, eng, 1)
	run, _, err := appendRun(nil, 1, 0, []stream.Message{{Seq: 0, Kind: stream.Data, Payload: "stray"}})
	if err != nil {
		t.Fatal(err)
	}
	sendFrames(t, eng, true, run[4:], appendCredit(nil, 1, 1, 1<<40)[4:])
	release()
	requireMatchesSim(t, eng, ses)
	for _, p := range *seen {
		if p == "stray" {
			t.Fatal("the stray connection's run reached the sink")
		}
	}
	if len(*seen) != wireInputs {
		t.Errorf("sink saw %d payloads, want %d", len(*seen), wireInputs)
	}
}

// TestCrossProducerWokenByCredit drives a chain whose first edge crosses
// the wire into a consumer that spins at every firing, with windows of
// one or two messages, so the producer stalls on the cross edge's full
// window over and over, its ingest window full behind it.  Nothing but
// an arriving credit — Credit's store, and the wake it posts to a
// producer that raised the edge's stalled flag — can restart it: a lost
// wake wedges the session, which the watchdog then reports.  Counts must
// equal the simulator's, and the producer must have stalled.
func TestCrossProducerWokenByCredit(t *testing.T) {
	const inputs = 300
	for _, buf := range []int{1, 2} {
		g := workload.Pipeline(3, buf)
		slow := g.MustNode("s1")
		ks := map[graph.NodeID]stream.Kernel{slow: stream.KernelFunc(func(_ uint64, in []stream.Input) map[int]any {
			for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
			}
			return map[int]any{0: in[0].Payload}
		})}
		oracle := sim.Run(g, sim.Filter(workload.PassAll), sim.Config{Inputs: inputs})
		m := graphMetrics(g)
		eng, err := NewEngine(g, Partition{0: "w0", 1: "w1", 2: "w1"}, ks,
			Config{WatchdogTimeout: 2 * time.Second, Obs: m})
		if err != nil {
			t.Fatal(err)
		}
		ses, err := eng.Open(SessionIO{ID: 1, Source: stream.SyntheticSource(inputs)})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := ses.Wait()
		eng.Close()
		if err != nil {
			t.Fatalf("buf %d: %v", buf, err)
		}
		assertMatchesSim(t, g, stats, oracle)
		if m.Edge(0).CreditStalls.Load() == 0 {
			t.Errorf("buf %d: the producer never stalled on the cross edge; the test would not notice a lost wake", buf)
		}
	}
}
