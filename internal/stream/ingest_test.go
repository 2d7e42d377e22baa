package stream

import (
	"context"
	"fmt"
	"testing"
	"time"

	"streamdag/internal/obs"
	"streamdag/internal/proto"
	"streamdag/internal/workload"
)

// TestSpanFillsWrapTheIngestRing: the ingest pump hands a SpanSource the
// ingest ring's free segment in place, so a fill is cut at the ring's end
// and the next resumes at slot 0.  The source's fills cycle through 1 to
// batch payloads, so that fills of 7 and of 40 land on the ring's end at
// every phase.  Each buf must lie in the ring at the tail, stay within the
// window's room and not cross the ring's end, and the sink must see every
// payload once and in order.
func TestSpanFillsWrapTheIngestRing(t *testing.T) {
	const inputs = 3000
	for _, batch := range []int{1, 7, 40} {
		t.Run(fmt.Sprintf("batch %d", batch), func(t *testing.T) {
			e, err := NewEngine(workload.Pipeline(3, 4), nil, Config{WatchdogTimeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			const id = proto.SessionID(1)
			var next, calls, resumed int
			src := func(_ context.Context, buf []any) (int, bool, error) {
				// The pump calls from its own goroutine, which is also the
				// ring's one producer: sent is its own count.
				e.mu.Lock()
				ses := e.sessions[id]
				e.mu.Unlock()
				ring, c := ses.ring, ses.ingest
				t0 := c.sent.Load()
				j := int(t0) & (len(ring) - 1)
				room := int64(rimWindow) - (t0 - c.consumed.Load())
				var bad error
				switch {
				case len(buf) == 0:
					bad = fmt.Errorf("fill %d: an empty buf", calls)
				case &buf[0] != &ring[j]:
					bad = fmt.Errorf("fill %d: buf is not the ring at the tail (slot %d)", calls, j)
				case j+len(buf) > len(ring):
					bad = fmt.Errorf("fill %d: buf of %d from slot %d crosses the end of a %d-slot ring", calls, len(buf), j, len(ring))
				case int64(len(buf)) > room:
					bad = fmt.Errorf("fill %d: buf of %d with %d of the window's room", calls, len(buf), room)
				}
				if bad != nil {
					return 0, false, bad
				}
				if j == 0 && t0 > 0 {
					resumed++
				}
				k := min(calls%batch+1, len(buf), inputs-next)
				calls++
				for i := range buf[:k] {
					buf[i] = next
					next++
				}
				return k, next == inputs, nil
			}
			var got []any
			last := int64(-1)
			sink := func(_ context.Context, seq uint64, payload any) error {
				if int64(seq) <= last {
					return fmt.Errorf("seq %d after %d", seq, last)
				}
				last = int64(seq)
				got = append(got, payload)
				return nil
			}
			ses, err := e.Open(SessionConfig{ID: id, SpanSource: src, Sink: sink})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ses.Wait(); err != nil {
				t.Fatal(err)
			}
			if len(got) != inputs {
				t.Fatalf("the sink saw %d payloads, want %d", len(got), inputs)
			}
			for i, p := range got {
				if p != i {
					t.Fatalf("payload %d is %v", i, p)
				}
			}
			if resumed == 0 {
				t.Fatalf("no fill of %d resumed at slot 0 of a %d-slot ring", calls, len(ses.ring))
			}
		})
	}
}

// TestRimWakesCounted: the observer counts a wake across each rim.  The
// sink is held until both rims' windows are full — the sink node stalled
// on the sink ring, the ingest pump parked on the ingest ring — so its
// release owes the sink node a wake, and the source node's next firing
// owes the pump one.
func TestRimWakesCounted(t *testing.T) {
	g := workload.Pipeline(3, 4)
	m := obs.New(make([]string, g.NumNodes()), make([]string, g.NumEdges()))
	e, err := NewEngine(g, nil, Config{Obs: m, WatchdogTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	release := make(chan struct{})
	ses, err := e.Open(SessionConfig{
		ID:     1,
		Source: SyntheticSource(1000),
		Sink: func(context.Context, uint64, any) error {
			<-release
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); !ses.emit.stalled.Load() || !ses.ingest.stalled.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after 5 s: %d of %d emissions and %d of %d payloads queued, not both rims full",
				ses.emit.occupancy(), rimWindow, ses.ingest.occupancy(), rimWindow)
		}
	}
	close(release)
	if _, err := ses.Wait(); err != nil {
		t.Fatal(err)
	}
	if s := m.Snapshot().Sessions; s.IngestWakes == 0 || s.SinkWakes == 0 {
		t.Fatalf("%d ingest and %d sink wakes counted; want both rims' wakes", s.IngestWakes, s.SinkWakes)
	}
}

// TestRimWindowByNumber pins the rims' one window by number: under a
// blocked sink both rims fill to exactly 128 payloads, two passes, and
// never past it.  The occupancies are read from outside, as the pumps' and
// nodes' counts.
func TestRimWindowByNumber(t *testing.T) {
	const want = 128
	e, err := NewEngine(workload.Pipeline(3, 16), nil, Config{WatchdogTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	release := make(chan struct{})
	ses, err := e.Open(SessionConfig{
		ID:     1,
		Source: SyntheticSource(4000),
		Sink: func(context.Context, uint64, any) error {
			<-release
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		sink, ingest := ses.emit.occupancy(), ses.ingest.occupancy()
		if sink > want || ingest > want {
			t.Fatalf("%d emissions and %d payloads queued, past the window of %d", sink, ingest, want)
		}
		if sink == want && ingest == want && ses.emit.stalled.Load() && ses.ingest.stalled.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 5 s: %d emissions and %d payloads queued, want both rims full at %d", sink, ingest, want)
		}
	}
	close(release)
	if _, err := ses.Wait(); err != nil {
		t.Fatal(err)
	}
}
