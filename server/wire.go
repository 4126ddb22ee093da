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
	"fmt"
	"slices"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/codec"
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
	b = codec.AppendU32(append(b, m.Type), m.Req)
	switch m.Type {
	case CtHello:
		b = codec.AppendBytes32(codec.AppendU64(b, m.Sess), m.Text)
	case CtAttach, StStats:
		b = codec.AppendBytes32(b, m.Text)
	case CtDetach, CtUnsubscribe, CtRevive, StAttached:
		b = codec.AppendU32(b, m.Query)
	case CtSubscribe:
		b = codec.AppendU64(codec.AppendU32(b, m.Query), m.Cursor)
		b = codec.AppendU32(append(b, uint8(m.Policy)), m.Deadline)
	case CtStats, CtBye, StOK, StBye:
		// header only
	case StErr:
		b = codec.AppendBytes32(codec.AppendU16(b, m.Code), m.Text)
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
		b = codec.AppendU64(codec.AppendU64(codec.AppendU32(b, m.Query), m.GapFrom), m.Cursor)
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
	d := codec.NewDec(body, "")
	*m = Msg{Rows: m.Rows[:0]}
	m.Type, m.Req = d.U8(), d.U32()
	switch m.Type {
	case CtHello:
		m.Sess, m.Text = d.U64(), string(d.Bytes32())
	case CtAttach, StStats:
		m.Text = string(d.Bytes32())
	case CtDetach, CtUnsubscribe, CtRevive, StAttached:
		m.Query = d.U32()
	case CtSubscribe:
		m.Query, m.Cursor, m.Policy, m.Deadline = d.U32(), d.U64(), Policy(d.U8()), d.U32()
		if !m.Policy.valid() {
			d.Failf("unknown policy %d", uint8(m.Policy))
		}
	case CtStats, CtBye, StOK, StBye:
	case StErr:
		m.Code, m.Text = d.U16(), string(d.Bytes32())
	case StRow:
		m.Query, m.Cursor = d.U32(), d.U64()
		m.Rows = readRowBatch(&d, m.Rows)
	case StGap:
		m.Query, m.GapFrom, m.Cursor = d.U32(), d.U64(), d.U64()
	default:
		return &MsgError{Type: m.Type, Off: 0, Why: "unknown frame type"}
	}
	if e, ok := d.Done().(*codec.Error); ok {
		return &MsgError{Type: m.Type, Off: e.Off, Why: e.Err.Error()}
	}
	return nil
}

// maxRowCols bounds decoded row width; no query in this engine produces
// anything near it, and it keeps a forged count from allocating wildly.
const maxRowCols = 1 << 10

// appendValue writes a type tag and the value's payload; a string is
// u32-length-prefixed.
func appendValue(b []byte, v gsql.Value) []byte {
	b = append(b, uint8(v.T))
	switch v.T {
	case gsql.TNull:
	case gsql.TInt, gsql.TBool:
		b = codec.AppendU64(b, uint64(v.I))
	case gsql.TFloat:
		b = codec.AppendF64(b, v.F)
	case gsql.TString:
		b = codec.AppendBytes32(b, v.S)
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
	b = codec.AppendU64(codec.AppendU32(b, query), cursor)
	return codec.AppendU32(codec.AppendU16(b, uint16(width)), uint32(n))
}

// readRingRows reads a state file's ring rows — a u32 count, then per row
// its u16 width and its values — into rows without building tuples: each
// value's tag is checked and its bytes kept as they are. A ring's rows are
// all of one width.
func readRingRows(d *codec.Dec, rows *rowBuf) {
	for range d.Count(uint64(d.U32()), 3) {
		width := d.U16()
		if width == 0 || width > maxRowCols || (rows.width != 0 && int(width) != rows.width) {
			d.Failf("ring row of %d columns (ring of %d, max %d)", width, rows.width, maxRowCols)
			return
		}
		rows.width = int(width)
		for i := range d.Count(uint64(width), 1) {
			switch t := gsql.Type(d.U8()); t {
			case gsql.TNull:
				rows.data = append(rows.data, uint8(t))
			case gsql.TInt, gsql.TBool, gsql.TFloat:
				rows.data = codec.AppendU64(append(rows.data, uint8(t)), d.U64())
			case gsql.TString:
				rows.data = codec.AppendBytes32(append(rows.data, uint8(t)), d.Bytes32())
			default:
				d.Failf("unknown value type %d in value %d", uint8(t), i)
				return
			}
		}
		rows.n++
	}
}

// readValues fills dst with values appendValue appended.
func readValues(d *codec.Dec, dst []gsql.Value) {
	for i := range dst {
		switch t := gsql.Type(d.U8()); t {
		case gsql.TNull:
			dst[i] = gsql.Value{}
		case gsql.TInt, gsql.TBool:
			dst[i] = gsql.Value{T: t, I: int64(d.U64())}
		case gsql.TFloat:
			dst[i] = gsql.Value{T: t, F: d.F64()}
		case gsql.TString:
			dst[i] = gsql.Value{T: t, S: string(d.Bytes32())}
		default:
			d.Failf("unknown value type %d in value %d", uint8(t), i)
		}
	}
}

// readRowBatch reads an StRow batch (see appendRowBatchHeader) into rows cut
// from one new value slab, appended to the caller's recycled rows[:0].
func readRowBatch(d *codec.Dec, rows []gsql.Tuple) []gsql.Tuple {
	width, n := int(d.U16()), d.U32()
	// An empty batch or zero-width rows are never sent and would not
	// re-encode to the same bytes.
	if width == 0 || n == 0 || width > maxRowCols {
		d.Failf("row batch claims %d rows of %d columns", n, width)
		return rows
	}
	// Every value is at least its type tag.
	slab := make([]gsql.Value, d.Count(uint64(n)*uint64(width), 1))
	readValues(d, slab)
	rows = slices.Grow(rows, len(slab)/width)
	for ; len(slab) > 0; slab = slab[width:] {
		rows = append(rows, slab[:width:width])
	}
	return rows
}
