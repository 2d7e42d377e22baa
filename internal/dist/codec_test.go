package dist

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

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
		[]byte{1, 2, 3},
		true,
		false,
		custom{X: 1, Y: 2}, // gob fallback
	}
	for _, p := range payloads {
		b, err := appendPayload(nil, p)
		if err != nil {
			t.Fatalf("%#v: encode: %v", p, err)
		}
		got, err := decodePayload(b)
		if err != nil {
			t.Fatalf("%#v: decode: %v", p, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("round trip %#v (%T) → %#v (%T)", p, p, got, got)
		}
	}
}

func TestPayloadUnencodable(t *testing.T) {
	if _, err := appendPayload(nil, make(chan int)); err == nil {
		t.Error("channel payload encoded")
	}
}

func TestMsgFrameRoundTrip(t *testing.T) {
	msgs := []stream.Message{
		{Seq: 7, Kind: stream.Data, Payload: uint64(99)},
		{Seq: 8, Kind: stream.Dummy},
		{Seq: ^uint64(0), Kind: stream.EOS},
	}
	for _, m := range msgs {
		body, err := appendSessMsg(nil, 42, 3, m)
		if err != nil {
			t.Fatal(err)
		}
		// Through the wire: frame, then parse.
		var wire bytes.Buffer
		wire.Write(frameFor(body))
		read, err := readFrame(&wire)
		if err != nil {
			t.Fatal(err)
		}
		sid, e, got, err := parseSessMsg(read)
		if err != nil {
			t.Fatal(err)
		}
		if sid != 42 || e != 3 || !reflect.DeepEqual(got, m) {
			t.Errorf("round trip (42, 3, %+v) → (%d, %d, %+v)", m, sid, e, got)
		}
	}
}

func TestHelloAndCreditFrames(t *testing.T) {
	name, err := parseHello(helloBody("backend"))
	if err != nil || name != "backend" {
		t.Errorf("hello round trip = %q, %v", name, err)
	}
	if _, err := parseHello([]byte("XBAD!junk")); err == nil {
		t.Error("bad hello accepted")
	}
	sid, e, err := parseSessCredit(appendSessCredit(nil, 42, 12))
	if err != nil || sid != 42 || e != 12 {
		t.Errorf("credit round trip = %d, %d, %v", sid, e, err)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var wire bytes.Buffer
	wire.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&wire); err == nil {
		t.Error("oversize frame accepted")
	}
}
