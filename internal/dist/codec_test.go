package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"streamdag/internal/box"
	"streamdag/internal/stream"
)

func TestPayloadRoundTrip(t *testing.T) {
	type custom struct{ X, Y int }
	gob.Register(custom{})
	payloads := []any{
		nil,
		uint64(42),
		int64(-7),
		int(13),
		3.25,
		"hello",
		"",
		[]byte{1, 2, 3},
		true,
		false,
		custom{X: 1, Y: 2}, // gob fallback
	}
	// Payloads follow one another in a run, so each must consume exactly
	// its own bytes: encode them all back to back, decode them in order.
	var b []byte
	for _, p := range payloads {
		var err error
		if b, err = appendPayload(b, p); err != nil {
			t.Fatalf("%#v: encode: %v", p, err)
		}
	}
	words := box.For[uint64]().Arena()
	c := words.Load(len(payloads))
	for _, p := range payloads {
		got, rest, err := decodePayload(b, &words, &c)
		if err != nil {
			t.Fatalf("%#v: decode: %v", p, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("round trip %#v (%T) → %#v (%T)", p, p, got, got)
		}
		b = rest
	}
	if len(b) != 0 {
		t.Errorf("%d bytes left over", len(b))
	}
}

func TestPayloadUnencodable(t *testing.T) {
	if _, err := appendPayload(nil, make(chan int)); err == nil {
		t.Error("channel payload encoded")
	}
	// A failed run leaves the writer's buffer as it was.
	prefix := appendCredit(nil, 1, 2, 3)
	got, frames, err := appendRun(prefix, 1, 2, []stream.Message{
		{Seq: 1, Kind: stream.Data, Payload: uint64(1)},
		{Seq: 2, Kind: stream.Data, Payload: make(chan int)},
	})
	if err == nil || frames != 0 || !bytes.Equal(got, prefix) {
		t.Errorf("unencodable run: %d frames, %d bytes (want the %d it started with), err %v", frames, len(got), len(prefix), err)
	}
}

// readRun reads one frame off the wire into buf and decodes it as a run
// frame, boxing its scalars from words.
func readRun(t *testing.T, wire *bytes.Reader, buf *[]byte, words *box.Arena[uint64]) (uint64, uint32, []stream.Message) {
	t.Helper()
	body, err := readFrame(wire, buf)
	if err != nil {
		t.Fatal(err)
	}
	if body[0] != frameRun {
		t.Fatalf("frame type %q, want a run", body[0])
	}
	sid, e, count, elems, err := parseRunHeader(body)
	if err != nil {
		t.Fatal(err)
	}
	run, err := decodeRun(elems, count, nil, words)
	if err != nil {
		t.Fatal(err)
	}
	return uint64(sid), uint32(e), run
}

func TestRunFrameRoundTrip(t *testing.T) {
	runs := [][]stream.Message{
		{{Seq: 7, Kind: stream.Data, Payload: uint64(99)}},
		{{Seq: 8, Kind: stream.Dummy}},
		{{Seq: ^uint64(0), Kind: stream.EOS}},
		{
			{Seq: 1, Kind: stream.Data, Payload: uint64(7)},
			{Seq: 2, Kind: stream.Data, Payload: "a string payload"},
			{Seq: 5, Kind: stream.Data, Payload: []byte{9, 8, 7}},
			{Seq: 1 << 40, Kind: stream.Dummy},
			{Seq: ^uint64(0), Kind: stream.EOS},
		},
	}
	var wire []byte
	for _, run := range runs {
		var frames int
		var err error
		if wire, frames, err = appendRun(wire, 42, 3, run); err != nil || frames != 1 {
			t.Fatalf("appendRun: %d frames, %v", frames, err)
		}
	}
	wire = appendCredit(wire, 42, 5, 17)
	r := bytes.NewReader(wire)
	var buf []byte
	words := boxUint64.Arena()
	for _, want := range runs {
		sid, e, got := readRun(t, r, &buf, &words)
		if sid != 42 || e != 3 || !reflect.DeepEqual(got, want) {
			t.Errorf("round trip (42, 3, %+v) → (%d, %d, %+v)", want, sid, e, got)
		}
	}
	body, err := readFrame(r, &buf)
	if err != nil {
		t.Fatal(err)
	}
	sid, e, n, err := parseCredit(body)
	if err != nil || sid != 42 || e != 5 || n != 17 {
		t.Errorf("credit round trip = (%d, %d, %d, %v), want (42, 5, 17, nil)", sid, e, n, err)
	}
	if r.Len() != 0 {
		t.Errorf("%d bytes left on the wire", r.Len())
	}
}

// TestRunFrameLarge sends a run of megabyte payloads: it splits into
// several frames, each under maxFrame, that decode back to the run.
func TestRunFrameLarge(t *testing.T) {
	big := bytes.Repeat([]byte{0xAB}, 1<<20)
	run := []stream.Message{
		{Seq: 9, Kind: stream.Data, Payload: big},
		{Seq: 10, Kind: stream.Data, Payload: uint64(1)},
		{Seq: 11, Kind: stream.Data, Payload: big},
	}
	wire, frames, err := appendRun(nil, 1, 0, run)
	if err != nil {
		t.Fatal(err)
	}
	if frames < 2 {
		t.Fatalf("%d frames for %d bytes of payload; want the run split", frames, 2<<20)
	}
	r := bytes.NewReader(wire)
	var buf []byte
	words := boxUint64.Arena()
	var got []stream.Message
	for i := 0; i < frames; i++ {
		_, _, part := readRun(t, r, &buf, &words)
		got = append(got, part...)
	}
	if !reflect.DeepEqual(got, run) {
		t.Error("megabyte payloads corrupted through split run frames")
	}
}

func TestRunFrameRejectsMalformed(t *testing.T) {
	elem := func(delta uint64, kind stream.Kind, payload ...byte) []byte {
		return append(append(binary.AppendUvarint(nil, delta), byte(kind)), payload...)
	}
	u64 := append([]byte{pUint64}, 0, 0, 0, 0, 0, 0, 0, 9)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []struct {
		name  string
		count int
		elems []byte
		want  string
	}{
		{"no elements", 1, nil, "truncated at element 0"},
		{"missing kind", 1, []byte{5}, "truncated at element 0"},
		{"unterminated varint", 1, []byte{0x80, 0x80}, "truncated at element 0"},
		{"truncated payload", 2, cat(elem(1, stream.Data, u64...), elem(1, stream.Data, u64[:5]...)), "element 1 of 2"},
		{"string past the end", 1, elem(1, stream.Data, pString, 200, 1, 'x'), "announces"},
		{"fewer elements than count", 3, cat(elem(1, stream.Dummy), elem(1, stream.Dummy)), "truncated at element 2"},
		{"trailing bytes", 1, cat(elem(1, stream.Dummy), []byte{0xFF}), "trailing"},
		{"unknown kind", 1, elem(1, stream.Kind(9)), "unknown kind"},
		{"unknown payload type", 1, elem(1, stream.Data, 0x7F), "unknown payload type"},
		{"repeated sequence number", 2, cat(elem(4, stream.Dummy), elem(0, stream.Dummy)), "does not ascend"},
		{"sequence overflow", 2, cat(elem(^uint64(0), stream.EOS), elem(1, stream.Dummy)), "does not ascend"},
	}
	for _, tc := range cases {
		words := boxUint64.Arena()
		_, err := decodeRun(tc.elems, tc.count, nil, &words)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if _, _, _, _, err := parseRunHeader([]byte{frameRun, 0, 0}); err == nil {
		t.Error("short run header accepted")
	}
	if _, _, _, err := parseCredit(appendCredit(nil, 1, 2, 3)[4:20]); err == nil {
		t.Error("short credit frame accepted")
	}
}

// mixedRun is a run of k elements mixing every shape a run frame
// carries: 8-byte scalars of each type past the runtime's small integers
// (boxed in the link's word arena), a small one, dummies, strings and gob
// payloads.
func mixedRun(k int) []stream.Message {
	run := make([]stream.Message, k)
	for i := range run {
		m := stream.Message{Seq: uint64(10 + 3*i), Kind: stream.Data}
		switch i % 8 {
		case 0:
			m.Payload = uint64(1000 + i)
		case 1:
			m.Payload = int64(-1000 - i)
		case 2:
			m.Payload = 1000 + i
		case 3:
			m.Payload = 1000.5 + float64(i)
		case 4:
			m.Kind = stream.Dummy
		case 5:
			m.Payload = "string " + strconv.Itoa(i)
		case 6:
			m.Payload = []int{i, -i} // gob
		case 7:
			m.Payload = uint64(i % 256)
		}
		run[i] = m
	}
	return run
}

// TestRunDecodedPayloadsSurviveBufferReuse pins the aliasing contract the
// reused read buffer relies on: everything decodeRun returns must be a
// copy, so clobbering the frame bytes afterwards — or decoding the next
// frame into them — cannot corrupt a decoded payload.
func TestRunDecodedPayloadsSurviveBufferReuse(t *testing.T) {
	wire, _, err := appendRun(nil, 7, 1, []stream.Message{
		{Seq: 1, Kind: stream.Data, Payload: "retained string"},
		{Seq: 2, Kind: stream.Data, Payload: []byte("retained bytes")},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	words := boxUint64.Arena()
	_, _, msgs := readRun(t, bytes.NewReader(wire), &buf, &words)
	// Simulate the transport reusing every buffer involved.
	for i := range buf {
		buf[i] = 0xEE
	}
	for i := range wire {
		wire[i] = 0xDD
	}
	if got := msgs[0].Payload.(string); got != "retained string" {
		t.Errorf("string payload corrupted by buffer reuse: %q", got)
	}
	if got := msgs[1].Payload.([]byte); !bytes.Equal(got, []byte("retained bytes")) {
		t.Errorf("bytes payload corrupted by buffer reuse: %q", got)
	}

	mixed := mixedRun(64)
	if wire, _, err = appendRun(nil, 7, 1, mixed); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(wire)
	_, _, first := readRun(t, r, &buf, &words)
	next, _, err := appendRun(nil, 7, 1, uint64Run(64))
	if err != nil {
		t.Fatal(err)
	}
	r.Reset(next)
	readRun(t, r, &buf, &words)
	for i := range buf {
		buf[i] = 0xEE
	}
	for i := range wire {
		wire[i] = 0xDD
	}
	if !reflect.DeepEqual(first, mixed) {
		t.Errorf("mixed 64-run corrupted by buffer reuse:\n got %v\nwant %v", first, mixed)
	}
}

func TestHelloFrame(t *testing.T) {
	var buf []byte
	body, err := readFrame(bytes.NewReader(appendHello(nil, "backend")), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if name, err := parseHello(body); err != nil || name != "backend" {
		t.Errorf("hello round trip = %q, %v", name, err)
	}
	if _, err := parseHello([]byte("XBAD!junk")); err == nil {
		t.Error("bad hello accepted")
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf []byte
	if _, err := readFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}), &buf); err == nil {
		t.Error("oversize frame accepted")
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0}), &buf); err == nil {
		t.Error("empty frame accepted")
	}
}
