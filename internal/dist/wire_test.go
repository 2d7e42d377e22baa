package dist

// Wire-input hardening (ROADMAP 4c): what a frame reader is handed comes
// from outside the program.  A frame that does not parse, or that names
// an edge or a count the topology rules out, must fail the engine's
// sessions with an error naming the frame — never panic a reader or a
// node loop, never hang, never push a window's in-flight count negative.

import (
	"context"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

const wireBuf = 8

// wireEngine is a three-node chain s0→s1→s2 with s1 alone on worker
// "w1": edge 0 runs w0→w1 and edge 1 runs w1→w0, both of capacity
// wireBuf.
func wireEngine(t testing.TB) *Engine {
	t.Helper()
	g := workload.Pipeline(3, wireBuf)
	eng, err := NewEngine(g, Partition{0: "w0", 1: "w1", 2: "w0"}, nil, Config{WatchdogTimeout: time.Hour})
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

func TestHostileFramesFailTheEngine(t *testing.T) {
	dummy := []byte{1, byte(stream.Dummy)} // seq delta 1, no payload
	datum := append([]byte{1, byte(stream.Data), pUint64}, 0, 0, 0, 0, 0, 0, 0, 7)
	cases := []struct {
		name string
		body []byte // arrives at w1 on a connection that said hello as w0
		want []string
	}{
		{"run of zero", runBody(1, 0, 0), []string{"run frame", "edge 0", "count 0"}},
		{"run longer than the edge's capacity", runBody(1, 0, wireBuf+1, dummy...), []string{"run frame", "count 9", "capacity 1..8"}},
		{"run on an edge that leaves this worker", runBody(1, 1, 1, dummy...), []string{"run frame", "edge 1", `the edge runs "w1"→"w0"`}},
		{"run on an edge that does not exist", runBody(1, 99, 1, dummy...), []string{"run frame", "edge 99", "no such edge"}},
		{"run with a truncated element", runBody(1, 0, 2, append(append([]byte(nil), datum...), datum[:6]...)...), []string{"run frame", "edge 0", "element 1 of 2"}},
		{"run shorter than its count", runBody(1, 0, 3, dummy...), []string{"run frame", "truncated at element 1 of 3"}},
		{"credit of zero", appendCredit(nil, 1, 1, 0)[4:], []string{"credit frame", "edge 1", "count 0"}},
		{"credit larger than the edge's capacity", appendCredit(nil, 1, 1, wireBuf+1)[4:], []string{"credit frame", "count 9"}},
		{"credit on an edge this worker consumes", appendCredit(nil, 1, 0, 1)[4:], []string{"credit frame", "edge 0", `the edge runs "w0"→"w1"`}},
		{"credit larger than what is in flight", appendCredit(nil, 1, 1, 3)[4:], []string{"credit for 3 messages", "s1→s2", "0 in flight"}},
		{"short credit frame", appendCredit(nil, 1, 1, 1)[4:12], []string{"bad credit frame"}},
		{"unknown frame type", []byte{'?', 1, 2, 3}, []string{`unknown frame type '?'`, `from "w0"`}},
		{"retired beat frame", []byte{'b'}, []string{`unknown frame type 'b'`, `from "w0"`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := wireEngine(t)
			ses, cancel := openIdle(t, eng, 1)
			defer cancel()
			c, err := net.Dial("tcp", eng.listeners["w1"].Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(append(appendHello(nil, "w0"), frame(tc.body)...)); err != nil {
				t.Fatal(err)
			}
			select {
			case <-ses.Done():
			case <-time.After(10 * time.Second):
				t.Fatal("the frame did not fail the session")
			}
			_, err = ses.Wait()
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
		_ = eng.handleBody("w0", "w1", body, &scratch, &words)
		cancel()
		select {
		case <-ses.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("session did not resolve after the frame")
		}
	})
}

// TestCreditNeverDrivesInflightNegative returns more credits than a live
// stream has in flight, mid-stream: the session fails with the credit
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
	// Edge 0 (s0→s1) has at most three messages in flight; a credit frame
	// from w1 returning wireBuf of them passes the capacity check and must
	// be caught by the node that owns the count.
	var scratch []stream.Message
	if err := eng.handleBody("w1", "w0", appendCredit(nil, 1, graph.EdgeID(0), wireBuf)[4:], &scratch, nil); err != nil {
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
