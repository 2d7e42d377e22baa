package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"streamdag/internal/box"
	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/stream"
)

// Wire format: every frame is a 4-byte big-endian length followed by a
// body.  The first body byte is the frame type:
//
//	'H' hello  — magic "SDG2" + sender worker name; first frame on every
//	             connection.
//	'S' run    — session uint64, edge uint32, count uint32, then count
//	             elements in send order, each a uvarint sequence delta
//	             (from the previous element; the first from zero, and
//	             every later one ≥ 1), a kind byte and — Data only — an
//	             encoded payload.  It is one span of the stream engine on
//	             a cross edge: a run of 1 is a dummy, an EOS or a lone
//	             datum.  The sender's window had room for the run, so it
//	             never holds the receive ring past the edge's capacity.
//	'c' credit — session uint64, edge uint32, consumed uint64: how many
//	             of the session's messages the consumer of a cross edge
//	             has consumed in all, the producer's window's consumed
//	             count; a repeated one changes nothing.  The per-session
//	             windows carry the paper's finite buffer capacities — and
//	             with them the deadlock-freedom guarantee — stream by
//	             stream over a shared wire.
//
// Edge IDs are global (both sides build them from the same topology), so
// frames need no further addressing.  A link writer writes the frames
// encoded since its last write in one write; there is no aggregate frame.
const (
	frameHello  byte = 'H'
	frameRun    byte = 'S'
	frameCredit byte = 'c'
)

const helloMagic = "SDG2"

// maxFrame bounds a frame body; larger announcements indicate a corrupt
// or hostile stream.
const maxFrame = 1 << 26

// runSplit is the body size at which appendRun closes a frame and opens
// the next, so a run of large payloads does not add up to one frame past
// maxFrame.
const runSplit = 1 << 16

// runHeader is a run frame's body up to its first element.
const runHeader = 1 + 8 + 4 + 4

// readFrame reads one frame into *buf, growing it only when a frame
// outsizes every previous one; the returned body aliases *buf and is
// valid until the next call.  Safe on the read path because every parser
// copies the bytes it retains (decodePayload copies strings, byte slices
// and gob values).  The length header is read into *buf too: a local
// array would escape through r and cost an allocation per frame.
func readFrame(r io.Reader, buf *[]byte) ([]byte, error) {
	if cap(*buf) < 4 {
		*buf = make([]byte, 4)
	}
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("dist: bad frame length %d", n)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// beginFrame appends a frame's length placeholder and type byte and
// returns where the frame starts; endFrame patches the length in.
func beginFrame(dst []byte, kind byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0, kind), len(dst)
}

func endFrame(dst []byte, start int) {
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
}

func appendHello(dst []byte, name string) []byte {
	dst, start := beginFrame(dst, frameHello)
	dst = append(append(dst, helloMagic...), name...)
	endFrame(dst, start)
	return dst
}

func parseHello(body []byte) (string, error) {
	if len(body) < 1+len(helloMagic) || body[0] != frameHello ||
		string(body[1:1+len(helloMagic)]) != helloMagic {
		return "", fmt.Errorf("dist: bad hello frame")
	}
	return string(body[1+len(helloMagic):]), nil
}

// appendRun appends run as run frames (length headers included) and
// returns how many: one, or several when the payloads are large
// (runSplit).  On error — an unencodable payload, or one too large for
// any frame — dst comes back as it went in.
func appendRun(dst []byte, sid proto.SessionID, e graph.EdgeID, run []stream.Message) (_ []byte, frames int, err error) {
	origin := len(dst)
	for len(run) > 0 {
		var start int
		dst, start = beginFrame(dst, frameRun)
		dst = binary.BigEndian.AppendUint64(dst, uint64(sid))
		dst = binary.BigEndian.AppendUint32(dst, uint32(e))
		countAt := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		n, prev := 0, uint64(0)
		for n < len(run) && (n == 0 || len(dst)-start < runSplit) {
			m := &run[n]
			dst = binary.AppendUvarint(dst, m.Seq-prev)
			dst = append(dst, byte(m.Kind))
			if m.Kind == stream.Data {
				if dst, err = appendPayload(dst, m.Payload); err != nil {
					return dst[:origin], 0, err
				}
			}
			prev = m.Seq
			n++
		}
		if size := len(dst) - start - 4; size > maxFrame {
			return dst[:origin], 0, fmt.Errorf("dist: run frame of %d bytes on edge %d exceeds the %d-byte limit (payload too large)",
				size, e, maxFrame)
		}
		binary.BigEndian.PutUint32(dst[countAt:], uint32(n))
		endFrame(dst, start)
		run = run[n:]
		frames++
	}
	return dst, frames, nil
}

// parseRunHeader splits a run frame body into its addressing and its
// elements; the caller checks edge and count against the topology before
// decoding (decodeRun).
func parseRunHeader(body []byte) (sid proto.SessionID, e graph.EdgeID, count int, elems []byte, err error) {
	if len(body) < runHeader {
		return 0, 0, 0, nil, fmt.Errorf("dist: short run frame (%d bytes)", len(body))
	}
	sid = proto.SessionID(binary.BigEndian.Uint64(body[1:]))
	e = graph.EdgeID(binary.BigEndian.Uint32(body[9:]))
	count = int(binary.BigEndian.Uint32(body[13:]))
	return sid, e, count, body[runHeader:], nil
}

// decodeRun decodes count elements into run[:0] (reusing its backing
// array) and returns the run; words, the link reader's, boxes its 8-byte
// scalar payloads (an error drops the chunk with the frame).  Sequence
// numbers must ascend, kinds must be known, and the elements must fill b
// exactly.
func decodeRun(b []byte, count int, run []stream.Message, words *box.Arena[uint64]) ([]stream.Message, error) {
	run = run[:0]
	var seq uint64
	c := words.Load(count)
	for i := 0; i < count; i++ {
		delta, n := binary.Uvarint(b)
		if n <= 0 || len(b) < n+1 {
			return nil, fmt.Errorf("dist: run frame truncated at element %d of %d", i, count)
		}
		if i > 0 && (delta == 0 || seq+delta < seq) {
			return nil, fmt.Errorf("dist: run frame element %d of %d does not ascend (seq %d, delta %d)", i, count, seq, delta)
		}
		seq += delta
		m := stream.Message{Seq: seq, Kind: stream.Kind(b[n])}
		b = b[n+1:]
		switch m.Kind {
		case stream.Data:
			var err error
			if m.Payload, b, err = decodePayload(b, words, &c); err != nil {
				return nil, fmt.Errorf("dist: run frame element %d of %d: %w", i, count, err)
			}
		case stream.Dummy, stream.EOS:
		default:
			return nil, fmt.Errorf("dist: run frame element %d of %d has unknown kind %d", i, count, m.Kind)
		}
		run = append(run, m)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("dist: %d trailing bytes in run frame", len(b))
	}
	words.Store(c)
	return run, nil
}

// appendCredit appends a credit frame carrying the consumed count.
func appendCredit(dst []byte, sid proto.SessionID, e graph.EdgeID, consumed uint64) []byte {
	dst, start := beginFrame(dst, frameCredit)
	dst = binary.BigEndian.AppendUint64(dst, uint64(sid))
	dst = binary.BigEndian.AppendUint32(dst, uint32(e))
	dst = binary.BigEndian.AppendUint64(dst, consumed)
	endFrame(dst, start)
	return dst
}

func parseCredit(body []byte) (proto.SessionID, graph.EdgeID, uint64, error) {
	if len(body) != 21 {
		return 0, 0, 0, fmt.Errorf("dist: bad credit frame (%d bytes)", len(body))
	}
	return proto.SessionID(binary.BigEndian.Uint64(body[1:])),
		graph.EdgeID(binary.BigEndian.Uint32(body[9:])),
		binary.BigEndian.Uint64(body[13:]), nil
}

// Payload encoding: one type byte plus a fixed or length-prefixed value
// (uvarint length), so payloads can follow one another in a run.  The
// common scalar payloads round-trip to the same concrete Go type;
// everything else falls back to gob, which requires the concrete type to
// be registered with gob.Register by the application.
const (
	pNil byte = iota
	pUint64
	pInt64
	pInt
	pFloat64
	pString
	pBytes
	pBool
	pGob
)

func appendPayload(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, pNil), nil
	case uint64:
		return binary.BigEndian.AppendUint64(append(b, pUint64), x), nil
	case int64:
		return binary.BigEndian.AppendUint64(append(b, pInt64), uint64(x)), nil
	case int:
		return binary.BigEndian.AppendUint64(append(b, pInt), uint64(x)), nil
	case float64:
		return binary.BigEndian.AppendUint64(append(b, pFloat64), math.Float64bits(x)), nil
	case string:
		return append(binary.AppendUvarint(append(b, pString), uint64(len(x))), x...), nil
	case []byte:
		return append(binary.AppendUvarint(append(b, pBytes), uint64(len(x))), x...), nil
	case bool:
		n := byte(0)
		if x {
			n = 1
		}
		return append(b, pBool, n), nil
	default:
		var buf bytes.Buffer
		boxed := v // gob wants a pointer; taking v's would heap-allocate it on every call
		if err := gob.NewEncoder(&buf).Encode(&boxed); err != nil {
			return b, fmt.Errorf("dist: payload %T not encodable (register it with gob.Register): %w", v, err)
		}
		return append(binary.AppendUvarint(append(b, pGob), uint64(buf.Len())), buf.Bytes()...), nil
	}
}

// The Boxers of the 8-byte scalar payloads.
var (
	boxUint64  = box.For[uint64]()
	boxInt64   = box.For[int64]()
	boxInt     = box.For[int]()
	boxFloat64 = box.For[float64]()
)

// decodePayload decodes the payload at the head of b and returns what
// follows it.  An 8-byte scalar is boxed into c, the chunk of the words
// arena its four types share (box.Word).  Nothing it returns aliases b.
func decodePayload(b []byte, words *box.Arena[uint64], c *[]uint64) (v any, rest []byte, err error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("dist: empty payload")
	}
	t, b := b[0], b[1:]
	switch t {
	case pNil:
		return nil, b, nil
	case pUint64, pInt64, pInt, pFloat64:
		if len(b) < 8 {
			return nil, nil, fmt.Errorf("dist: payload type %d wants 8 bytes, got %d", t, len(b))
		}
		u, rest := binary.BigEndian.Uint64(b), b[8:]
		switch t {
		case pUint64:
			return boxUint64.Word(u, words, c), rest, nil
		case pInt64:
			return boxInt64.Word(int64(u), words, c), rest, nil
		case pInt:
			return boxInt.Word(int(u), words, c), rest, nil
		default:
			return boxFloat64.Word(math.Float64frombits(u), words, c), rest, nil
		}
	case pBool:
		if len(b) < 1 {
			return nil, nil, fmt.Errorf("dist: payload type %d wants 1 byte, got 0", t)
		}
		return b[0] == 1, b[1:], nil
	case pString, pBytes, pGob:
		size, n := binary.Uvarint(b)
		if n <= 0 || size > uint64(len(b)-n) {
			return nil, nil, fmt.Errorf("dist: payload type %d announces %d bytes, %d left", t, size, len(b)-max(n, 0))
		}
		val, rest := b[n:n+int(size)], b[n+int(size):]
		switch t {
		case pString:
			return string(val), rest, nil
		case pBytes:
			return append([]byte(nil), val...), rest, nil
		}
		var boxed any // not &v: a result whose address is taken is heap-allocated on every call
		if err := gob.NewDecoder(bytes.NewReader(val)).Decode(&boxed); err != nil {
			return nil, nil, fmt.Errorf("dist: payload not decodable (register its type with gob.Register): %w", err)
		}
		return boxed, rest, nil
	default:
		return nil, nil, fmt.Errorf("dist: unknown payload type %d", t)
	}
}
