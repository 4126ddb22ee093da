// Package server turns the repository's query runtime into a supervised,
// degradation-aware long-lived service: clients connect over TCP or unix
// sockets with a framed, checksummed control protocol (the same sealed
// envelope the ingest wire uses), authenticate with a session token, submit
// GSQL against a named-stream catalog, and subscribe to window results
// through per-subscriber bounded output queues with explicit slow-consumer
// policies. A watchdog supervisor restarts a panicked or wedged runtime
// from the latest checkpoint with capped exponential backoff, and a circuit
// breaker degrades to ingest-only mode (the write-ahead log keeps accepting
// frames; queries return a typed Degraded status) when restarts do not
// stick. Reconnecting subscribers resume from their last-delivered result
// cursor bit-exactly. See DESIGN.md §12 for the architecture.
package server

import (
	"encoding/binary"
	"fmt"
	"math"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
)

// Control frame types. Client→server types are small, server→client types
// start at 64 — a decoder can tell at a glance which side of the protocol a
// captured frame belongs to.
const (
	// CtHello opens a control session: token + client-chosen session id.
	CtHello uint8 = 1
	// CtAttach submits a GSQL query for registration in the catalog.
	CtAttach uint8 = 2
	// CtDetach removes a query (and drops its subscribers).
	CtDetach uint8 = 3
	// CtSubscribe streams a query's result rows from a cursor.
	CtSubscribe uint8 = 4
	// CtUnsubscribe stops a subscription on this connection.
	CtUnsubscribe uint8 = 5
	// CtStats requests a JSON snapshot of service counters.
	CtStats uint8 = 6
	// CtBye closes the control session cleanly.
	CtBye uint8 = 7
	// CtRevive lifts a quarantined query back into the running catalog.
	CtRevive uint8 = 8

	// StOK acknowledges a request that carries no payload back.
	StOK uint8 = 64
	// StErr reports a typed failure for a request.
	StErr uint8 = 65
	// StAttached returns the catalog id assigned to an attached query.
	StAttached uint8 = 66
	// StRow delivers a batch of consecutive result rows on a subscription.
	StRow uint8 = 67
	// StGap tells a drop-oldest subscriber that rows were shed.
	StGap uint8 = 68
	// StStats returns the JSON stats snapshot.
	StStats uint8 = 69
	// StBye acknowledges CtBye; the server closes after sending it.
	StBye uint8 = 70
)

// Typed error codes carried by StErr.
const (
	// CodeAuth: bad or missing session token.
	CodeAuth uint16 = 1
	// CodeParse: the query text failed to prepare.
	CodeParse uint16 = 2
	// CodeUnknownQuery: no catalog entry with that id.
	CodeUnknownQuery uint16 = 3
	// CodeCursorGap: the requested cursor predates the retained result log.
	CodeCursorGap uint16 = 4
	// CodeDegraded: the runtime is in ingest-only degraded mode; the WAL is
	// still accepting frames but queries cannot be served.
	CodeDegraded uint16 = 5
	// CodeSlowConsumer: the subscription was terminated by its
	// slow-consumer policy.
	CodeSlowConsumer uint16 = 6
	// CodeBadRequest: a structurally valid frame with nonsensical contents
	// (unknown policy, empty query text, duplicate subscription).
	CodeBadRequest uint16 = 7
	// CodeShutdown: the service is draining; reconnect to the successor.
	CodeShutdown uint16 = 8
	// CodeAdmission: the query was rejected by admission control — its
	// estimated private per-tuple cost would push the catalog past its
	// configured budget. The running catalog is unperturbed.
	CodeAdmission uint16 = 9
)

// Policy selects what the server does with a subscriber that cannot keep up
// with the result stream.
type Policy uint8

const (
	// PolicyDropOldest sheds the oldest undelivered rows and tells the
	// subscriber about the gap (StGap). The emit path never blocks on this
	// subscriber. The default.
	PolicyDropOldest Policy = iota
	// PolicyBlock holds rows until the subscriber drains them, applying
	// backpressure to the emit path. Explicit opt-in: one PolicyBlock
	// dashboard can stall every query sharing the runtime.
	PolicyBlock
	// PolicyDisconnect holds rows like PolicyBlock but only up to the
	// subscription deadline; a subscriber that stays stalled past it is
	// disconnected (StErr CodeSlowConsumer) and the rows flow on.
	PolicyDisconnect
)

func (p Policy) valid() bool { return p <= PolicyDisconnect }

func (p Policy) String() string {
	switch p {
	case PolicyDropOldest:
		return "drop-oldest"
	case PolicyBlock:
		return "block"
	case PolicyDisconnect:
		return "disconnect"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Msg is one decoded control frame. Fields are a union over the frame
// types; Type selects which are meaningful.
type Msg struct {
	Type  uint8
	Req   uint32 // request id, echoed in the response (client→server types and responses)
	Code  uint16 // StErr
	Text  string // CtHello token, CtAttach query text, StErr message, StStats JSON
	Sess  uint64 // CtHello client session id
	Query uint32 // query id (CtDetach/CtSubscribe/CtUnsubscribe/CtRevive/StAttached/StRow/StGap)
	// Cursor is the 1-based absolute result cursor: the subscribe start
	// position, the position of a batch's first row, or a gap's resume
	// position.
	Cursor uint64
	// GapFrom is the first shed cursor of an StGap (the gap is
	// [GapFrom, Cursor)).
	GapFrom  uint64
	Policy   Policy // CtSubscribe
	Deadline uint32 // CtSubscribe: PolicyDisconnect stall budget, milliseconds
	// Rows is an StRow batch: at least one row, all of one width, at cursors
	// Cursor, Cursor+1, … Decoded rows are cut from one allocation that
	// nothing else refers to.
	Rows []gsql.Tuple
}

// MaxControlFrame bounds control frame bodies. A row batch is cut to fit
// (one row always goes, however large).
const MaxControlFrame = 1 << 16

// MsgError reports a structurally invalid control frame body.
type MsgError struct {
	Type uint8 // frame type, when it could be read
	Off  int
	Why  string
}

func (e *MsgError) Error() string {
	return fmt.Sprintf("server: control frame type %d: offset %d: %s", e.Type, e.Off, e.Why)
}

// AppendMsg seals a control message onto dst using the ingest envelope
// (u32 length + u64 checksum), ready to write to a control connection. The
// frame is built in place: a dst with room for it makes the call
// allocation-free.
func AppendMsg(dst []byte, m *Msg) []byte {
	at := len(dst)
	dst = appendMsgBody(ingest.ReserveSealed(dst), m)
	ingest.SealInPlace(dst, at)
	return dst
}

func appendMsgBody(b []byte, m *Msg) []byte {
	b = append(b, m.Type)
	b = binary.LittleEndian.AppendUint32(b, m.Req)
	switch m.Type {
	case CtHello:
		b = binary.LittleEndian.AppendUint64(b, m.Sess)
		b = appendString(b, m.Text)
	case CtAttach:
		b = appendString(b, m.Text)
	case CtDetach, CtUnsubscribe, CtRevive:
		b = binary.LittleEndian.AppendUint32(b, m.Query)
	case CtSubscribe:
		b = binary.LittleEndian.AppendUint32(b, m.Query)
		b = binary.LittleEndian.AppendUint64(b, m.Cursor)
		b = append(b, uint8(m.Policy))
		b = binary.LittleEndian.AppendUint32(b, m.Deadline)
	case CtStats, CtBye, StOK, StBye:
		// header only
	case StErr:
		b = binary.LittleEndian.AppendUint16(b, m.Code)
		b = appendString(b, m.Text)
	case StAttached:
		b = binary.LittleEndian.AppendUint32(b, m.Query)
	case StRow:
		if len(m.Rows) == 0 {
			panic("server: encoding an empty row batch")
		}
		b = appendRowBatchHeader(b, m.Query, m.Cursor, len(m.Rows[0]), len(m.Rows))
		for _, row := range m.Rows {
			if len(row) != len(m.Rows[0]) {
				panic("server: encoding a row batch of mixed widths")
			}
			for _, v := range row {
				b = appendValue(b, v)
			}
		}
	case StGap:
		b = binary.LittleEndian.AppendUint32(b, m.Query)
		b = binary.LittleEndian.AppendUint64(b, m.GapFrom)
		b = binary.LittleEndian.AppendUint64(b, m.Cursor)
	case StStats:
		b = appendString(b, m.Text)
	default:
		panic(fmt.Sprintf("server: encoding unknown control frame type %d", m.Type))
	}
	return b
}

// DecodeMsg decodes one checksum-verified control frame body (the bytes
// DecodeSealed returned). It never panics on hostile input; structural
// problems come back as *MsgError.
func DecodeMsg(body []byte) (*Msg, error) {
	m := &Msg{}
	if err := decodeMsgInto(m, body); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeMsgInto is DecodeMsg over a Msg the caller reuses from frame to
// frame: every field is overwritten, and m.Rows keeps its capacity — the
// rows themselves are always cut from a new allocation, so a row taken from
// one frame's Msg survives the next decode. On error m is unspecified.
func decodeMsgInto(m *Msg, body []byte) error {
	d := decoder{b: body}
	*m = Msg{Rows: m.Rows[:0]}
	m.Type = d.u8()
	m.Req = d.u32()
	switch m.Type {
	case CtHello:
		m.Sess = d.u64()
		m.Text = d.str()
	case CtAttach:
		m.Text = d.str()
	case CtDetach, CtUnsubscribe, CtRevive:
		m.Query = d.u32()
	case CtSubscribe:
		m.Query = d.u32()
		m.Cursor = d.u64()
		m.Policy = Policy(d.u8())
		m.Deadline = d.u32()
		if d.err == "" && !m.Policy.valid() {
			return &MsgError{Type: m.Type, Off: d.off, Why: fmt.Sprintf("unknown policy %d", uint8(m.Policy))}
		}
	case CtStats, CtBye, StOK, StBye:
	case StErr:
		m.Code = d.u16()
		m.Text = d.str()
	case StAttached:
		m.Query = d.u32()
	case StRow:
		m.Query = d.u32()
		m.Cursor = d.u64()
		m.Rows = d.rowBatch(m.Rows)
	case StGap:
		m.Query = d.u32()
		m.GapFrom = d.u64()
		m.Cursor = d.u64()
	case StStats:
		m.Text = d.str()
	default:
		return &MsgError{Type: m.Type, Off: 0, Why: "unknown frame type"}
	}
	if d.err != "" {
		return &MsgError{Type: m.Type, Off: d.off, Why: d.err}
	}
	if d.off != len(d.b) {
		return &MsgError{Type: m.Type, Off: d.off, Why: fmt.Sprintf("%d trailing bytes", len(d.b)-d.off)}
	}
	return nil
}

// maxRowCols bounds decoded row width; no query in this engine produces
// anything near it, and it keeps a forged count from allocating wildly.
const maxRowCols = 1 << 10

// appendString writes a u32-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// appendRow writes u16 column count then each value (the state file's row
// layout).
func appendRow(b []byte, row gsql.Tuple) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(row)))
	for _, v := range row {
		b = appendValue(b, v)
	}
	return b
}

// appendValue writes a type tag and the value's payload.
func appendValue(b []byte, v gsql.Value) []byte {
	b = append(b, uint8(v.T))
	switch v.T {
	case gsql.TNull:
	case gsql.TInt, gsql.TBool:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.I))
	case gsql.TFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
	case gsql.TString:
		b = appendString(b, v.S)
	default:
		panic(fmt.Sprintf("server: encoding unknown value type %d", v.T))
	}
	return b
}

// appendRowBatchHeader writes what an StRow body carries between the frame
// header and the values: query · cursor of the first row · u16 row width ·
// u32 row count. The n×width values follow, row after row; a writer that
// does not know n yet patches the last four bytes.
func appendRowBatchHeader(b []byte, query uint32, cursor uint64, width, n int) []byte {
	b = binary.LittleEndian.AppendUint32(b, query)
	b = binary.LittleEndian.AppendUint64(b, cursor)
	b = binary.LittleEndian.AppendUint16(b, uint16(width))
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}

// decoder is a bounds-checked little-endian reader; the first failure
// sticks and every later read returns zero.
type decoder struct {
	b   []byte
	off int
	err string
}

func (d *decoder) fail(why string) {
	if d.err == "" {
		d.err = why
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != "" {
		return nil
	}
	if len(d.b)-d.off < n {
		d.fail(fmt.Sprintf("truncated: need %d bytes, have %d", n, len(d.b)-d.off))
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) u8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *decoder) u16() uint16 {
	s := d.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (d *decoder) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (d *decoder) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (d *decoder) str() string {
	n := d.u32()
	if d.err != "" {
		return ""
	}
	if int64(n) > int64(len(d.b)-d.off) {
		d.fail(fmt.Sprintf("string length %d exceeds remaining %d bytes", n, len(d.b)-d.off))
		return ""
	}
	return string(d.take(int(n)))
}

func (d *decoder) row() gsql.Tuple {
	n := d.u16()
	if d.err != "" {
		return nil
	}
	if int(n) > maxRowCols {
		d.fail(fmt.Sprintf("row claims %d columns (max %d)", n, maxRowCols))
		return nil
	}
	row := make(gsql.Tuple, n)
	if !d.values(row) {
		return nil
	}
	return row
}

// values decodes len(dst) values into dst, reporting whether all were there.
func (d *decoder) values(dst []gsql.Value) bool {
	for i := range dst {
		t := gsql.Type(d.u8())
		switch t {
		case gsql.TNull:
			dst[i] = gsql.Value{}
		case gsql.TInt, gsql.TBool:
			dst[i] = gsql.Value{T: t, I: int64(d.u64())}
		case gsql.TFloat:
			dst[i] = gsql.Value{T: t, F: math.Float64frombits(d.u64())}
		case gsql.TString:
			dst[i] = gsql.Value{T: t, S: d.str()}
		default:
			d.fail(fmt.Sprintf("unknown value type %d in value %d", uint8(t), i))
		}
		if d.err != "" {
			return false
		}
	}
	return true
}

// rowBatch decodes an StRow batch (see appendRowBatchHeader) into rows cut
// from one new value slab, appended to the caller's recycled rows[:0].
func (d *decoder) rowBatch(rows []gsql.Tuple) []gsql.Tuple {
	width, n := int(d.u16()), int(d.u32())
	if d.err != "" {
		return rows
	}
	// Every value is at least its type tag, so the remaining bytes bound the
	// slab; an empty batch or zero-width rows are never sent and would not
	// re-encode to the same bytes.
	if width == 0 || n == 0 || width > maxRowCols || n > (len(d.b)-d.off)/width {
		d.fail(fmt.Sprintf("row batch claims %d rows of %d columns in %d bytes", n, width, len(d.b)-d.off))
		return rows
	}
	slab := make([]gsql.Value, n*width)
	if !d.values(slab) {
		return rows
	}
	for ; len(slab) > 0; slab = slab[width:] {
		rows = append(rows, slab[:width:width])
	}
	return rows
}
