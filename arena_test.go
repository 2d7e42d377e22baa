package streamdag

import (
	"context"
	"encoding/binary"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// A Map node boxes its outputs into chunks its own arena keeps across
// spans and sessions (internal/box), so one chunk may hold values of
// several concurrent sessions.  This test pins that sharing as invisible:
// every value a session's Maps made, retained past the end of every
// session and a collection, reads back as what that session's Maps made.

// tagged is a Map output that holds a pointer (its string), whose chunk
// lasts one span.
type tagged struct {
	Name string
	N    uint64
}

func arenaWord(v uint64) uint64 { return 3*v + 1000 }

func arenaTag(v uint64) tagged { return tagged{Name: "n" + strconv.FormatUint(v, 10), N: v} }

func arenaBytes(v uint64) [64]byte {
	var b [64]byte
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], v^uint64(i))
	}
	return b
}

// TestArenaValuesSurviveSessions runs, on one resident engine per row, a
// wave of eight concurrent sessions whose Collectors keep every payload,
// then a wave whose payloads are dropped, then collects with churn in
// between.  Each session splits its inputs into a Map to uint64, a Map to
// a struct holding a string and a Map to [64]byte, and the join forwards
// the three boxes the Maps made, untouched, to the sink.  The rows cover
// channels 4 and 256 deep (named for the batch widths the engine had,
// 1 and 64), replicated Maps (whose replicas box as Go does) and tapped
// ones (whose taps keep the boxes too).
func TestArenaValuesSurviveSessions(t *testing.T) {
	const sessions, inputs = 8, 500
	for _, depth := range []struct {
		name string
		buf  int
	}{{"batch1", 4}, {"batch64", 256}} {
		for _, variant := range []string{"plain", "replicated", "tapped"} {
			t.Run(depth.name+"/"+variant, func(t *testing.T) {
				var mu sync.Mutex
				var tapped []any
				stages := []Stage{
					Map("word", arenaWord),
					Map("tag", arenaTag),
					Map("bytes", arenaBytes),
				}
				for i, s := range stages {
					switch variant {
					case "replicated":
						stages[i] = s.Replicate(2)
					case "tapped":
						stages[i] = s.Tap(func(v any) {
							mu.Lock()
							tapped = append(tapped, v)
							mu.Unlock()
						})
					}
				}
				join := Merge("join", func(parts []Maybe[any]) ([]any, bool) {
					out := make([]any, len(parts))
					for i, p := range parts {
						out[i] = p.Value
					}
					return out, true
				})
				pipe, err := NewFlow[uint64, []any]().Buffer(depth.buf).
					Then(Split(join, stages...)).Compile(WithWatchdog(10 * time.Second))
				if err != nil {
					t.Fatal(err)
				}
				eng, err := pipe.Engine()
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				wave := func(w int) []*Collector {
					cols := make([]*Collector, sessions)
					var open []*Session
					for s := range cols {
						base := uint64(w*sessions+s+1) << 32
						in := make([]any, inputs)
						for i := range in {
							in[i] = base + uint64(i)
						}
						cols[s] = &Collector{}
						ses, err := eng.Open(context.Background(), SliceSource(in...), cols[s])
						if err != nil {
							t.Fatal(err)
						}
						open = append(open, ses)
					}
					for _, ses := range open {
						if _, err := ses.Wait(); err != nil {
							t.Fatal(err)
						}
					}
					return cols
				}
				kept := wave(0)
				wave(1)
				var churn [][]*tagged
				for i := 0; i < 3; i++ {
					runtime.GC()
					churn = churn[:0]
					for j := 0; j < 2000; j++ {
						churn = append(churn, []*tagged{{Name: strconv.Itoa(-j)}, {N: uint64(j)}})
					}
				}
				runtime.KeepAlive(churn)
				for s, col := range kept {
					base := uint64(s+1) << 32
					ems := col.Emissions()
					if len(ems) != inputs {
						t.Fatalf("session %d delivered %d of %d", s, len(ems), inputs)
					}
					for _, em := range ems {
						v := base + em.Seq
						got := em.Payload.([]any)
						if got[0] != arenaWord(v) || got[1] != arenaTag(v) || got[2] != arenaBytes(v) {
							t.Fatalf("session %d seq %d read back as %v / %+v / %x", s, em.Seq, got[0], got[1], got[2])
						}
					}
				}
				if variant == "tapped" {
					if len(tapped) != 2*sessions*inputs*3 {
						t.Fatalf("taps saw %d values, want %d", len(tapped), 2*sessions*inputs*3)
					}
					for _, x := range tapped {
						var v uint64
						switch x := x.(type) {
						case uint64:
							v = (x - 1000) / 3
						case tagged:
							v = x.N
						case [64]byte:
							v = binary.LittleEndian.Uint64(x[:])
						}
						if x != arenaWord(v) && x != arenaTag(v) && x != arenaBytes(v) {
							t.Fatalf("a tapped value read back as %v", x)
						}
					}
				}
			})
		}
	}
}
