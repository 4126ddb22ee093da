// Package ingest moves netgen.Packet streams across process boundaries:
// a length-prefixed, checksummed wire protocol over TCP or unix sockets, a
// Listener that feeds a gsql run, and a Dialer that replays traces into it.
//
// The paper's evaluation runs inside Gigascope on a live packet tap; this
// package is the equivalent boundary for the reproduction, and robustness
// is its whole point. The protocol is built so that every failure mode a
// real feed has — disconnects, corruption, duplicated delivery, partial
// writes, silence — degrades into either a retried frame or a quarantined
// frame, never a crash and never silent data loss:
//
//   - Every frame carries a 64-bit checksum over its body; corruption is
//     detected before a single field is interpreted.
//   - Data frames carry a per-session sequence number. The server applies
//     them in order, acknowledges cumulatively after applying, and drops
//     duplicates; the client retains unacknowledged frames and resends them
//     after reconnecting, so a frame lost to corruption or a dropped
//     connection is redelivered, exactly once in application order.
//   - Malformed frames are quarantined (counted and logged) as typed
//     *FrameError values and the offending connection is closed (stream
//     framing cannot be trusted after a bad frame); the client's resend
//     path turns that into a retry.
//
// Wire layout (little-endian), one frame:
//
//	u32 body length (bounded by the reader's MaxFrame)
//	u64 checksum of body (internal/core.HashBytes)
//	body:
//	  u8 frame type
//	  payload (type-specific, fixed layout below)
package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"forwarddecay/internal/core"
	"forwarddecay/netgen"
)

// FrameType identifies a wire frame.
type FrameType uint8

const (
	// FrameHello opens (or resumes) a session: u8 protocol version,
	// u64 session id. The server replies with a FrameAck carrying the last
	// sequence number it has applied for that session, so a reconnecting
	// client can prune its resend buffer.
	FrameHello FrameType = 1
	// FrameData carries packets: u64 sequence number, u32 packet count,
	// then count fixed-size packet records (netgen.PacketRecordSize each).
	FrameData FrameType = 2
	// FrameHeartbeat advances stream time without data: f64 timestamp in
	// stream seconds. Heartbeats are idempotent and carry no sequence
	// number; they are neither acknowledged nor retransmitted.
	FrameHeartbeat FrameType = 3
	// FrameAck (server→client) acknowledges application: u64 cumulative
	// sequence number — every data frame up to and including it is durably
	// applied.
	FrameAck FrameType = 4
	// FrameBye announces a clean end of session; no payload.
	FrameBye FrameType = 5
)

// ProtocolVersion is the version byte sent in FrameHello.
const ProtocolVersion = 1

// DefaultMaxFrame bounds the body length a reader accepts; a corrupt
// length prefix can therefore never trigger a giant allocation.
const DefaultMaxFrame = 1 << 20

// frameHeaderSize is the length prefix plus the checksum.
const frameHeaderSize = 4 + 8

// FrameErrorKind classifies what was wrong with a malformed frame.
type FrameErrorKind uint8

const (
	// FrameTooLarge: the length prefix exceeds the reader's MaxFrame.
	FrameTooLarge FrameErrorKind = iota
	// FrameBadChecksum: the body does not hash to the header checksum.
	FrameBadChecksum
	// FrameTruncated: the stream ended inside a frame.
	FrameTruncated
	// FrameBadType: unknown frame type byte.
	FrameBadType
	// FrameBadPayload: the body is structurally wrong for its type (short
	// payload, packet count not matching the body length, non-finite
	// timestamp, bad protocol version).
	FrameBadPayload
	// FrameBadSequence: a data frame's sequence number is ahead of the
	// session (a gap the resend protocol should have made impossible).
	FrameBadSequence
	// FrameNoSession: a data frame arrived before any FrameHello.
	FrameNoSession
)

func (k FrameErrorKind) String() string {
	switch k {
	case FrameTooLarge:
		return "frame too large"
	case FrameBadChecksum:
		return "bad checksum"
	case FrameTruncated:
		return "truncated frame"
	case FrameBadType:
		return "unknown frame type"
	case FrameBadPayload:
		return "malformed payload"
	case FrameBadSequence:
		return "sequence gap"
	case FrameNoSession:
		return "data before hello"
	default:
		return "frame error"
	}
}

// FrameError reports one malformed wire frame. It is the only error type
// the decoder produces for bad input — malformed bytes never panic and
// never partially apply.
type FrameError struct {
	// Kind classifies the defect.
	Kind FrameErrorKind
	// Detail elaborates (lengths, counts, offending values).
	Detail string
}

func (e *FrameError) Error() string {
	if e.Detail == "" {
		return "ingest: " + e.Kind.String()
	}
	return "ingest: " + e.Kind.String() + ": " + e.Detail
}

func frameErrf(kind FrameErrorKind, format string, args ...any) *FrameError {
	return &FrameError{Kind: kind, Detail: fmt.Sprintf(format, args...)}
}

// Frame is one decoded wire frame.
type Frame struct {
	// Type selects which of the remaining fields are meaningful.
	Type FrameType
	// Version is the protocol version (FrameHello).
	Version uint8
	// Session is the client's session id (FrameHello).
	Session uint64
	// Seq is the data sequence number (FrameData) or the cumulative
	// acknowledged sequence number (FrameAck).
	Seq uint64
	// TS is the stream timestamp in seconds (FrameHeartbeat).
	TS float64
	// Packets is the data payload (FrameData).
	Packets []netgen.Packet
	// Sorted reports that Packets is non-decreasing in timestamp, detected
	// during decode at no extra pass. Sorted frames let the engine's batch
	// path run its distinct-timestamp fast paths (epoch scan run-skipping,
	// per-timestamp decay-weight memoization) at full effect.
	Sorted bool
}

// --- encoding ----------------------------------------------------------

// sealFrame wraps an encoded body in the length/checksum header.
func sealFrame(dst, body []byte) []byte {
	at := len(dst)
	dst = append(ReserveSealed(dst), body...)
	SealInPlace(dst, at)
	return dst
}

// AppendSealed wraps an arbitrary body in the protocol's length+checksum
// header — the same integrity envelope every wire frame travels in. It is
// exported so other durable byte streams (the distrib write-ahead log's
// segment records) reuse this codec instead of inventing a second framing.
func AppendSealed(dst, body []byte) []byte { return sealFrame(dst, body) }

// SealedHeaderSize is the size of the header AppendSealed prepends.
const SealedHeaderSize = frameHeaderSize

// ReserveSealed appends SealedHeaderSize placeholder bytes to dst. A caller
// that encodes a body straight after them and then calls SealInPlace gets the
// record AppendSealed would have built, without a second buffer for the body.
func ReserveSealed(dst []byte) []byte {
	var hdr [frameHeaderSize]byte
	return append(dst, hdr[:]...)
}

// SealInPlace fills the header reserved at b[at:] for the body b holds after
// it (everything from at+SealedHeaderSize to the end of b).
func SealInPlace(b []byte, at int) {
	body := b[at+frameHeaderSize:]
	binary.LittleEndian.PutUint32(b[at:], uint32(len(body)))
	binary.LittleEndian.PutUint64(b[at+4:], core.HashBytes(body))
}

// DecodeSealed splits the first sealed record off b, verifying its checksum,
// and returns the body along with the total bytes consumed. A record whose
// length prefix exceeds maxLen yields a *FrameError (FrameTooLarge); a
// checksum mismatch yields FrameBadChecksum; a buffer ending mid-record
// yields ErrIncomplete. The returned body aliases b. maxLen <= 0 selects
// DefaultMaxFrame.
func DecodeSealed(b []byte, maxLen int) (body []byte, n int, err error) {
	if maxLen <= 0 {
		maxLen = DefaultMaxFrame
	}
	if len(b) < frameHeaderSize {
		return nil, 0, ErrIncomplete
	}
	ln := binary.LittleEndian.Uint32(b)
	if ln > uint32(maxLen) {
		return nil, 0, frameErrf(FrameTooLarge, "body of %d bytes exceeds limit %d", ln, maxLen)
	}
	if uint64(len(b)) < frameHeaderSize+uint64(ln) {
		return nil, 0, ErrIncomplete
	}
	body = b[frameHeaderSize : frameHeaderSize+int(ln)]
	if core.HashBytes(body) != binary.LittleEndian.Uint64(b[4:]) {
		return nil, 0, frameErrf(FrameBadChecksum, "body of %d bytes", ln)
	}
	return body, frameHeaderSize + int(ln), nil
}

// AppendHello appends an encoded FrameHello to dst.
func AppendHello(dst []byte, session uint64) []byte {
	body := make([]byte, 0, 2+8)
	body = append(body, byte(FrameHello), ProtocolVersion)
	body = binary.LittleEndian.AppendUint64(body, session)
	return sealFrame(dst, body)
}

// AppendData appends an encoded FrameData carrying pkts under seq to dst.
// The frame is built in place, so a dst with room for it makes the call
// allocation-free.
func AppendData(dst []byte, seq uint64, pkts []netgen.Packet) []byte {
	at := len(dst)
	dst = slices.Grow(dst, frameHeaderSize+1+8+4+len(pkts)*netgen.PacketRecordSize)
	dst = ReserveSealed(dst)
	dst = append(dst, byte(FrameData))
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pkts)))
	for _, p := range pkts {
		dst = netgen.AppendPacketRecord(dst, p)
	}
	SealInPlace(dst, at)
	return dst
}

// AppendHeartbeat appends an encoded FrameHeartbeat at stream time ts.
func AppendHeartbeat(dst []byte, ts float64) []byte {
	body := make([]byte, 0, 1+8)
	body = append(body, byte(FrameHeartbeat))
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(ts))
	return sealFrame(dst, body)
}

// AppendAck appends an encoded FrameAck for the cumulative sequence seq.
func AppendAck(dst []byte, seq uint64) []byte {
	body := make([]byte, 0, 1+8)
	body = append(body, byte(FrameAck))
	body = binary.LittleEndian.AppendUint64(body, seq)
	return sealFrame(dst, body)
}

// AppendBye appends an encoded FrameBye to dst.
func AppendBye(dst []byte) []byte {
	return sealFrame(dst, []byte{byte(FrameBye)})
}

// AppendFrame re-encodes a decoded frame (the inverse of DecodeFrame).
func AppendFrame(dst []byte, f Frame) []byte {
	switch f.Type {
	case FrameHello:
		return AppendHello(dst, f.Session)
	case FrameData:
		return AppendData(dst, f.Seq, f.Packets)
	case FrameHeartbeat:
		return AppendHeartbeat(dst, f.TS)
	case FrameAck:
		return AppendAck(dst, f.Seq)
	default:
		return AppendBye(dst)
	}
}

// RecycleFrame returns a data frame's packet buffer to the decode pool.
// Call it once the frame's packets have been fully consumed; the slice must
// not be referenced afterwards. Recycling is optional — an unrecycled frame
// is simply garbage-collected — and safe only once per decoded frame.
func RecycleFrame(f Frame) { recyclePackets(f.Packets) }

// --- decoding ----------------------------------------------------------

// packetPool recycles the packet slices materialized by data-frame decoding;
// wrapperPool recycles the *[]Packet boxes so Put itself does not allocate.
// Together they make steady-state decode+recycle cycles allocation-free:
// the slice storage and its box circulate between the two pools.
var (
	packetPool  sync.Pool // holds *[]netgen.Packet with usable capacity
	wrapperPool sync.Pool // holds empty *[]netgen.Packet boxes
)

// getPacketBuf returns a packet slice of length n, reusing pooled storage
// when its capacity suffices.
func getPacketBuf(n int) []netgen.Packet {
	v := packetPool.Get()
	if v == nil {
		return make([]netgen.Packet, n)
	}
	p := v.(*[]netgen.Packet)
	buf := *p
	*p = nil
	wrapperPool.Put(p)
	if cap(buf) < n {
		return make([]netgen.Packet, n)
	}
	return buf[:n]
}

// recyclePackets is the pool return path behind RecycleFrame (no-op for
// slices without capacity).
func recyclePackets(pkts []netgen.Packet) {
	if cap(pkts) == 0 {
		return
	}
	var p *[]netgen.Packet
	if v := wrapperPool.Get(); v != nil {
		p = v.(*[]netgen.Packet)
	} else {
		p = new([]netgen.Packet)
	}
	*p = pkts[:0]
	packetPool.Put(p)
}

// parseBody decodes a checksum-verified frame body.
func parseBody(body []byte) (Frame, error) {
	if len(body) < 1 {
		return Frame{}, frameErrf(FrameBadPayload, "empty body")
	}
	t, payload := FrameType(body[0]), body[1:]
	switch t {
	case FrameHello:
		if len(payload) != 1+8 {
			return Frame{}, frameErrf(FrameBadPayload, "hello payload is %d bytes, want 9", len(payload))
		}
		if payload[0] != ProtocolVersion {
			return Frame{}, frameErrf(FrameBadPayload, "protocol version %d, want %d", payload[0], ProtocolVersion)
		}
		return Frame{Type: t, Version: payload[0], Session: binary.LittleEndian.Uint64(payload[1:])}, nil
	case FrameData:
		if len(payload) < 8+4 {
			return Frame{}, frameErrf(FrameBadPayload, "data payload is %d bytes, want >= 12", len(payload))
		}
		seq := binary.LittleEndian.Uint64(payload)
		n := binary.LittleEndian.Uint32(payload[8:])
		recs := payload[12:]
		if uint64(len(recs)) != uint64(n)*netgen.PacketRecordSize {
			return Frame{}, frameErrf(FrameBadPayload, "data frame claims %d packets but carries %d record bytes", n, len(recs))
		}
		if seq == 0 {
			return Frame{}, frameErrf(FrameBadPayload, "data frame with sequence 0")
		}
		pkts := getPacketBuf(int(n))
		sorted := true
		for i := range pkts {
			pkts[i] = netgen.DecodePacketRecord(recs[i*netgen.PacketRecordSize:])
			if ts := pkts[i].Time; math.IsNaN(ts) || math.IsInf(ts, 0) {
				recyclePackets(pkts)
				return Frame{}, frameErrf(FrameBadPayload, "packet %d has non-finite timestamp %v", i, ts)
			}
			if i > 0 && pkts[i-1].Time > pkts[i].Time {
				sorted = false
			}
		}
		return Frame{Type: t, Seq: seq, Packets: pkts, Sorted: sorted}, nil
	case FrameHeartbeat:
		if len(payload) != 8 {
			return Frame{}, frameErrf(FrameBadPayload, "heartbeat payload is %d bytes, want 8", len(payload))
		}
		ts := math.Float64frombits(binary.LittleEndian.Uint64(payload))
		if math.IsNaN(ts) || math.IsInf(ts, 0) {
			return Frame{}, frameErrf(FrameBadPayload, "heartbeat with non-finite timestamp %v", ts)
		}
		return Frame{Type: t, TS: ts}, nil
	case FrameAck:
		if len(payload) != 8 {
			return Frame{}, frameErrf(FrameBadPayload, "ack payload is %d bytes, want 8", len(payload))
		}
		return Frame{Type: t, Seq: binary.LittleEndian.Uint64(payload)}, nil
	case FrameBye:
		if len(payload) != 0 {
			return Frame{}, frameErrf(FrameBadPayload, "bye payload is %d bytes, want 0", len(payload))
		}
		return Frame{Type: t}, nil
	default:
		return Frame{}, frameErrf(FrameBadType, "type 0x%02x", byte(t))
	}
}

// ErrIncomplete reports that a buffer ends mid-frame: more bytes are
// needed before DecodeFrame can make progress. It is not a FrameError —
// a stream reader treats it as "read more", not as corruption.
var ErrIncomplete = errors.New("ingest: incomplete frame")

// DecodeFrame decodes the first frame in b, returning the frame and the
// number of bytes it consumed. Malformed input yields a *FrameError (never
// a panic, never an allocation beyond the bounded body); a buffer that
// ends mid-frame yields ErrIncomplete. maxFrame <= 0 selects
// DefaultMaxFrame.
func DecodeFrame(b []byte, maxFrame int) (Frame, int, error) {
	body, n, err := DecodeSealed(b, maxFrame)
	if err != nil {
		return Frame{}, 0, err
	}
	f, err := parseBody(body)
	if err != nil {
		return Frame{}, 0, err
	}
	return f, n, nil
}

// FrameReader decodes frames from a byte stream.
type FrameReader struct {
	br       *bufio.Reader
	maxFrame int
	hdr      [frameHeaderSize]byte // a local would escape through io.ReadFull
	body     []byte                // reusable body buffer
}

// NewFrameReader returns a reader over r. maxFrame <= 0 selects
// DefaultMaxFrame.
func NewFrameReader(r io.Reader, maxFrame int) *FrameReader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &FrameReader{br: bufio.NewReaderSize(r, 64<<10), maxFrame: maxFrame}
}

// ReadFrame reads and decodes the next frame. A clean end of stream at a
// frame boundary returns io.EOF; a stream that ends mid-frame returns a
// *FrameError with Kind FrameTruncated; malformed frames return their
// *FrameError. After any non-nil error the stream position is unreliable
// and the caller should close the connection — framing cannot be
// re-synchronized past a corrupt length prefix.
func (fr *FrameReader) ReadFrame() (Frame, error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.br, hdr); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, frameErrf(FrameTruncated, "stream ended inside the frame header")
		}
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > uint32(fr.maxFrame) {
		return Frame{}, frameErrf(FrameTooLarge, "body of %d bytes exceeds limit %d", n, fr.maxFrame)
	}
	if cap(fr.body) < int(n) {
		fr.body = make([]byte, n)
	}
	body := fr.body[:n]
	if _, err := io.ReadFull(fr.br, body); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, frameErrf(FrameTruncated, "stream ended inside a %d-byte body", n)
		}
		return Frame{}, err
	}
	if core.HashBytes(body) != binary.LittleEndian.Uint64(hdr[4:]) {
		return Frame{}, frameErrf(FrameBadChecksum, "body of %d bytes", n)
	}
	return parseBody(body)
}
