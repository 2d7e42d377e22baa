package dist

// Layer microbenchmarks for what a message crosses between two workers
// (ROADMAP 1a, dist slice): the run and credit codecs, and one loopback
// link — encode, write, read, deliver.  Every benchmark reports ns/msg and
// allocs/msg.
//
//	go test -run '^$' -bench 'Run|Credit|Link' ./internal/dist

import (
	"bufio"
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

// perMsg runs body b.N times and reports its cost per message, each
// iteration moving msgs of them.
func perMsg(b *testing.B, msgs int, body func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(b.N) * float64(msgs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/msg")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/msg")
}

func uint64Run(k int) []stream.Message {
	run := make([]stream.Message, k)
	for i := range run {
		// Payloads past the runtime's preallocated small integers, so a
		// decoded one costs its box.
		run[i] = stream.Message{Seq: uint64(1000 + i), Kind: stream.Data, Payload: uint64(1000 + i)}
	}
	return run
}

func benchEncodeRun(b *testing.B, k int) {
	run := uint64Run(k)
	var buf []byte
	perMsg(b, k, func() {
		var err error
		if buf, _, err = appendRun(buf[:0], 7, 3, run); err != nil {
			b.Fatal(err)
		}
	})
}

func benchDecodeRun(b *testing.B, k int) {
	wire, _, err := appendRun(nil, 7, 3, uint64Run(k))
	if err != nil {
		b.Fatal(err)
	}
	var scratch []stream.Message
	words := boxUint64.Arena()
	perMsg(b, k, func() {
		_, _, count, elems, err := parseRunHeader(wire[4:])
		if err == nil {
			scratch, err = decodeRun(elems, count, scratch, &words)
		}
		if err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkEncodeRun1(b *testing.B)  { benchEncodeRun(b, 1) }
func BenchmarkEncodeRun64(b *testing.B) { benchEncodeRun(b, 64) }
func BenchmarkDecodeRun1(b *testing.B)  { benchDecodeRun(b, 1) }
func BenchmarkDecodeRun64(b *testing.B) { benchDecodeRun(b, 64) }

func BenchmarkCreditFrame(b *testing.B) {
	var buf []byte
	perMsg(b, 1, func() {
		buf = appendCredit(buf[:0], 7, 3, 64)
		if _, _, n, err := parseCredit(buf[4:]); err != nil || n != 64 {
			b.Fatal(n, err)
		}
	})
}

// benchLink streams b.N sequence numbers from a source on one worker to
// a sink on another: one cross edge, so a message's whole cost beyond the
// two node loops is one link round trip (encode, write, read, decode,
// deliver into the receive ring) plus its share of a credit frame coming
// back.
func benchLink(b *testing.B, batch int) {
	g := workload.Pipeline(2, 256)
	part := Partition{0: "w0", 1: "w1"}
	eng, err := NewEngine(g, part, nil, Config{MaxBatch: batch, WatchdogTimeout: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	var next uint64
	n := uint64(b.N)
	io := SessionIO{ID: 1, Source: stream.SyntheticSource(n)}
	if batch > 1 {
		io.SpanSource = func(_ context.Context, buf []any) (int, bool, error) {
			k := 0
			for ; k < len(buf) && next < n; k++ {
				buf[k] = next
				next++
			}
			return k, next >= n, nil
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	ses, err := eng.Open(io)
	if err != nil {
		b.Fatal(err)
	}
	stats, err := ses.Wait()
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if err != nil || stats.SinkData != int64(n) {
		b.Fatalf("sink consumed %d of %d: %v", stats.SinkData, n, err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/msg")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(n), "allocs/msg")
}

func BenchmarkLinkRoundTripBatch1(b *testing.B)  { benchLink(b, 1) }
func BenchmarkLinkRoundTripBatch64(b *testing.B) { benchLink(b, 64) }

// TestRunCodecAllocations pins the codec's steady-state allocation
// budget: encoding into a warmed buffer allocates nothing, reading frames
// from a link's buffered reader into a warmed frame buffer allocates
// nothing, and decoding a run of 8-byte scalars carves all their boxes
// from the link's word arena — at most one chunk per run, an eighth of
// one once the chunks reach their cap.
func TestRunCodecAllocations(t *testing.T) {
	run := uint64Run(64)
	buf, _, err := appendRun(nil, proto.SessionID(7), graph.EdgeID(3), run)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf, _, _ = appendRun(buf[:0], 7, 3, run)
		buf = appendCredit(buf, 7, 3, 64)
	}); n != 0 {
		t.Errorf("encoding a 64-run and a credit into a warmed buffer: %v allocs, want 0", n)
	}
	wire, _, _ := appendRun(nil, 7, 3, run)
	pair := appendCredit(append([]byte(nil), wire...), 7, 3, 64)
	r := bufio.NewReaderSize(bytes.NewReader(bytes.Repeat(pair, 101)), readBuffer)
	var frame []byte
	if n := testing.AllocsPerRun(100, func() {
		for range 2 {
			if _, err := readFrame(r, &frame); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("reading a run frame and a credit frame: %v allocs, want 0", n)
	}
	scratch := make([]stream.Message, 0, 64)
	words := boxUint64.Arena()
	if n := testing.AllocsPerRun(100, func() {
		_, _, count, elems, _ := parseRunHeader(wire[4:])
		scratch, _ = decodeRun(elems, count, scratch, &words)
	}); n > 1 {
		t.Errorf("decoding a 64-run: %v allocs, want at most one per run", n)
	}
}
