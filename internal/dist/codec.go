package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sync"

	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/stream"
)

// Wire format: every frame is a 4-byte big-endian length followed by a
// body.  The first body byte is the frame type:
//
//	'H' hello  — magic "SDG1" + sender worker name; first frame on every
//	             connection.
//	'S' smsg   — session uint64, edge uint32, seq uint64, kind byte, then
//	             (Data only) an encoded payload.  One per protocol
//	             message on a cross edge: the session id routes it to
//	             that session's per-edge buffer, and the sender holds one
//	             of that session's credits for it.
//	'c' scred  — session uint64, edge uint32: a per-session credit,
//	             returned by the consumer of a cross edge when a message
//	             leaves the edge's buffer, releasing one slot of that
//	             session's window for the edge.  Per-session windows are
//	             what carry the paper's finite buffer capacities — and
//	             with them the deadlock-freedom guarantee —
//	             stream-by-stream over a shared wire.
//	'B' batch  — uint32 count, then count × (uint32 len + sub-body).  A
//	             transport-level aggregate: the coalescing writer packs
//	             the frames queued for one peer into a single wire frame
//	             (one syscall for the lot), and the receiver dispatches
//	             each sub-body exactly as if it had arrived alone.
//	             Batches never nest and never arrive empty.
//	'b' beat   — no body beyond the type: a liveness heartbeat on an
//	             otherwise idle link.  The sender is identified by the
//	             connection's hello; receivers treat ANY arriving frame
//	             as a beat, so heartbeats only flow when the link is
//	             quiet and cost nothing under load.
//
// Edge IDs are global (both sides build them from the same topology), so
// frames need no further addressing.
const (
	frameHello      byte = 'H'
	frameSessMsg    byte = 'S'
	frameSessCredit byte = 'c'
	frameBatch      byte = 'B'
	frameBeat       byte = 'b'
)

// appendBeat encodes a heartbeat frame body.
func appendBeat(b []byte) []byte { return append(b, frameBeat) }

const helloMagic = "SDG1"

// maxFrame bounds a frame body; larger announcements indicate a corrupt
// or hostile stream.
const maxFrame = 1 << 26

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("dist: bad frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

func frameFor(body []byte) []byte {
	f := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(f, uint32(len(body)))
	copy(f[4:], body)
	return f
}

// readFrameReuse reads one frame into *buf, growing it only when a frame
// outsizes every previous one; the returned slice aliases *buf and is
// valid until the next call.  Safe on the read path because every parser copies the bytes it retains past dispatch
// (decodePayload copies strings, byte slices, and gob values).
func readFrameReuse(r io.Reader, buf *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
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

// bodyPool recycles frame-body encode buffers on the batched hot path:
// the session ports draw from it to encode messages and credits, and the
// coalescing writer returns each body once its bytes are on the wire.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

func getBody() []byte { return (*bodyPool.Get().(*[]byte))[:0] }

func putBody(b []byte) {
	// Don't pin oversized buffers (a one-off huge payload) in the pool.
	if cap(b) == 0 || cap(b) > 1<<16 {
		return
	}
	b = b[:0]
	bodyPool.Put(&b)
}

// appendBatchFrame appends one complete batch wire frame — outer length
// header included — packing bodies in order.
func appendBatchFrame(dst []byte, bodies [][]byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, frameBatch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(bodies)))
	for _, b := range bodies {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
		dst = append(dst, b...)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// forEachBatchBody walks a batch frame body, invoking fn on every
// sub-body in order.  Sub-bodies alias body, which is safe because every
// parser copies the data it retains.  Empty batches, nested batches,
// zero-length or truncated sub-bodies, and trailing garbage are all
// rejected; fn's error aborts the walk.
func forEachBatchBody(body []byte, fn func([]byte) error) error {
	if len(body) < 5 || body[0] != frameBatch {
		return fmt.Errorf("dist: bad batch frame (%d bytes)", len(body))
	}
	count := binary.BigEndian.Uint32(body[1:])
	if count == 0 {
		return fmt.Errorf("dist: empty batch frame")
	}
	rest := body[5:]
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return fmt.Errorf("dist: truncated batch frame (sub %d of %d)", i, count)
		}
		n := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if n == 0 || uint64(n) > uint64(len(rest)) {
			return fmt.Errorf("dist: bad sub-frame length %d in batch", n)
		}
		if rest[0] == frameBatch {
			return fmt.Errorf("dist: nested batch frame")
		}
		if err := fn(rest[:n]); err != nil {
			return err
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("dist: %d trailing bytes in batch frame", len(rest))
	}
	return nil
}

func helloBody(name string) []byte {
	b := make([]byte, 0, 1+len(helloMagic)+len(name))
	b = append(b, frameHello)
	b = append(b, helloMagic...)
	return append(b, name...)
}

func parseHello(body []byte) (string, error) {
	if len(body) < 1+len(helloMagic) || body[0] != frameHello ||
		string(body[1:1+len(helloMagic)]) != helloMagic {
		return "", fmt.Errorf("dist: bad hello frame")
	}
	return string(body[1+len(helloMagic):]), nil
}

// appendSessMsg encodes a session message body into a caller-supplied
// (typically pooled) buffer.
func appendSessMsg(b []byte, sid proto.SessionID, e graph.EdgeID, m stream.Message) ([]byte, error) {
	b = append(b, frameSessMsg)
	b = binary.BigEndian.AppendUint64(b, uint64(sid))
	b = binary.BigEndian.AppendUint32(b, uint32(e))
	b = binary.BigEndian.AppendUint64(b, m.Seq)
	b = append(b, byte(m.Kind))
	if m.Kind == stream.Data {
		var err error
		b, err = appendPayload(b, m.Payload)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

func parseSessMsg(body []byte) (proto.SessionID, graph.EdgeID, stream.Message, error) {
	if len(body) < 22 {
		return 0, 0, stream.Message{}, fmt.Errorf("dist: short session msg frame (%d bytes)", len(body))
	}
	sid := proto.SessionID(binary.BigEndian.Uint64(body[1:]))
	e := graph.EdgeID(binary.BigEndian.Uint32(body[9:]))
	m := stream.Message{
		Seq:  binary.BigEndian.Uint64(body[13:]),
		Kind: stream.Kind(body[21]),
	}
	if m.Kind == stream.Data {
		var err error
		m.Payload, err = decodePayload(body[22:])
		if err != nil {
			return 0, 0, stream.Message{}, err
		}
	}
	return sid, e, m, nil
}

// appendSessCredit encodes a session credit body into a caller-supplied
// (typically pooled) buffer.
func appendSessCredit(b []byte, sid proto.SessionID, e graph.EdgeID) []byte {
	b = append(b, frameSessCredit)
	b = binary.BigEndian.AppendUint64(b, uint64(sid))
	return binary.BigEndian.AppendUint32(b, uint32(e))
}

func parseSessCredit(body []byte) (proto.SessionID, graph.EdgeID, error) {
	if len(body) != 13 {
		return 0, 0, fmt.Errorf("dist: bad session credit frame (%d bytes)", len(body))
	}
	return proto.SessionID(binary.BigEndian.Uint64(body[1:])),
		graph.EdgeID(binary.BigEndian.Uint32(body[9:])), nil
}

// Payload encoding: one type byte plus a fixed or length-delimited value.
// The common scalar payloads round-trip to the same concrete Go type;
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
		return append(append(b, pString), x...), nil
	case []byte:
		return append(append(b, pBytes), x...), nil
	case bool:
		n := byte(0)
		if x {
			n = 1
		}
		return append(b, pBool, n), nil
	default:
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
			return nil, fmt.Errorf("dist: payload %T not encodable (register it with gob.Register): %w", v, err)
		}
		return append(append(b, pGob), buf.Bytes()...), nil
	}
}

func decodePayload(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("dist: empty payload")
	}
	t, rest := b[0], b[1:]
	fixed := func(n int) error {
		if len(rest) != n {
			return fmt.Errorf("dist: payload type %d wants %d bytes, got %d", t, n, len(rest))
		}
		return nil
	}
	switch t {
	case pNil:
		return nil, fixed(0)
	case pUint64:
		if err := fixed(8); err != nil {
			return nil, err
		}
		return binary.BigEndian.Uint64(rest), nil
	case pInt64:
		if err := fixed(8); err != nil {
			return nil, err
		}
		return int64(binary.BigEndian.Uint64(rest)), nil
	case pInt:
		if err := fixed(8); err != nil {
			return nil, err
		}
		return int(binary.BigEndian.Uint64(rest)), nil
	case pFloat64:
		if err := fixed(8); err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.BigEndian.Uint64(rest)), nil
	case pString:
		return string(rest), nil
	case pBytes:
		return append([]byte(nil), rest...), nil
	case pBool:
		if err := fixed(1); err != nil {
			return nil, err
		}
		return rest[0] == 1, nil
	case pGob:
		var v any
		if err := gob.NewDecoder(bytes.NewReader(rest)).Decode(&v); err != nil {
			return nil, fmt.Errorf("dist: payload not decodable (register its type with gob.Register): %w", err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("dist: unknown payload type %d", t)
	}
}
