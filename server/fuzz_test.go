package server

// Fuzzing for the control-protocol codec, the server WAL record decoder
// (ingest and catalog records) and the state file: arbitrary bytes must never panic
// or allocate past the codectest bound, and anything that decodes must
// re-encode canonically (round-trip stability is what the resume contract
// leans on).

import (
	"bytes"
	"testing"

	"forwarddecay/gsql"
	"forwarddecay/internal/codec"
	"forwarddecay/internal/codec/codectest"
	"forwarddecay/netgen"
)

func FuzzControlFrameDecode(f *testing.F) {
	row := gsql.Tuple{
		{T: gsql.TInt, I: -7},
		{T: gsql.TFloat, F: 0.25},
		{T: gsql.TBool, I: 0},
		{T: gsql.TString, S: "fuzz"},
		{T: gsql.TNull},
	}
	seeds := []*Msg{
		{Type: CtHello, Req: 1, Sess: 9, Text: "token"},
		{Type: CtAttach, Req: 2, Text: "select count(*) from TCP group by time as tb"},
		{Type: CtDetach, Req: 3, Query: 1},
		{Type: CtSubscribe, Req: 4, Query: 1, Cursor: 10, Policy: PolicyDisconnect, Deadline: 500},
		{Type: CtUnsubscribe, Req: 5, Query: 1},
		{Type: CtStats, Req: 6},
		{Type: CtBye, Req: 7},
		{Type: CtRevive, Req: 13, Query: 2},
		{Type: StOK, Req: 8},
		{Type: StErr, Req: 9, Code: CodeSlowConsumer, Text: "too slow"},
		{Type: StErr, Req: 14, Code: CodeAdmission, Text: "admission: estimated cost 48 exceeds budget"},
		{Type: StAttached, Req: 10, Query: 3},
		{Type: StRow, Query: 3, Cursor: 77, Rows: []gsql.Tuple{row}},
		{Type: StRow, Query: 4, Cursor: 1 << 40, Rows: []gsql.Tuple{row[:2], {row[3], row[4]}, row[1:3]}},
		{Type: StGap, Query: 3, GapFrom: 5, Cursor: 9},
		{Type: StStats, Req: 11, Text: "{}"},
		{Type: StBye, Req: 12},
	}
	for _, m := range seeds {
		f.Add(appendMsgBody(nil, m))
	}
	f.Add([]byte{})
	f.Add([]byte{255, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m *Msg
		var err error
		codectest.Allocs(t, len(data), func() { m, err = DecodeMsg(data) })
		if err != nil {
			return
		}
		// Whatever decodes must be canonical: re-encoding it yields the
		// exact input bytes.
		if out := appendMsgBody(nil, m); !bytes.Equal(out, data) {
			t.Fatalf("non-canonical frame: decode(%x) re-encodes to %x", data, out)
		}
	})
}

// FuzzWALRecordDecode covers the log's frame and heartbeat records:
// arbitrary bytes never panic, and any record that decodes re-encodes to the
// exact input (the rebuild path trusts that).
func FuzzWALRecordDecode(f *testing.F) {
	f.Add([]byte{recFrame, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{recHeartbeat, hbInt, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{recHeartbeat, hbFloat, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	frame := walRecord{kind: recFrame, sess: 7, seq: 3,
		pkts: []netgen.Packet{{Time: 1.5, DstIP: 9, Len: 40}, {Time: 2, SrcPort: 80, Proto: 6}}}
	f.Add(frame.appendBody(nil))
	f.Add([]byte{recHeartbeat, hbFloat, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f}) // NaN: refused
	f.Fuzz(checkWALRecord)
}

// FuzzJournalEntryDecode covers the catalog's change journal — the attach,
// detach, quarantine and revive records the log carries — the same way.
func FuzzJournalEntryDecode(f *testing.F) {
	seeds := []walRecord{
		{kind: recAttach, id: 1, text: "select count(*) from TCP group by time as tb"},
		{kind: recDetach, id: 1},
		{kind: recQuarantine, id: 2, text: "breaker", ckpt: []byte{1, 2, 3, 4}},
		{kind: recQuarantine, id: 3, text: "panic"},
		{kind: recRevive, id: 2},
	}
	for _, r := range seeds {
		f.Add(r.appendBody(nil))
	}
	// An attach with a byte past its text: refused, and the refusal stays
	// fuzzed.
	f.Add(append(seeds[0].appendBody(nil), 0))
	f.Add([]byte{})
	f.Add([]byte{99, 0, 0, 0, 0})
	f.Fuzz(checkWALRecord)
}

func checkWALRecord(t *testing.T, data []byte) {
	var r walRecord
	var err error
	codectest.Allocs(t, len(data), func() { r, err = decodeWALRecord(data) })
	if err != nil {
		return
	}
	if out := r.appendBody(nil); !bytes.Equal(out, data) {
		t.Fatalf("non-canonical record: decode(%x) re-encodes to %x", data, out)
	}
}

// FuzzStateDecode covers the state file the same way. Almost every mutation
// of a sealed image fails its checksum, so each input is also decoded
// re-sealed: the mutator then reaches the parser behind it.
func FuzzStateDecode(f *testing.F) {
	ring := newResultLog(8)
	ring.restore(4, []gsql.Tuple{{gsql.Int(10), gsql.Float(2.5)}, {{T: gsql.TNull}, gsql.Str("x")}})
	b := beginState(nil, 3, 17, 9, 2)
	b = appendQueryState(b, &queryState{id: 1, text: testQuery, ckpt: []byte{1, 2, 3, 4}}, ring)
	b = appendQueryState(b, &queryState{id: 2, text: "select count(*) from TCP group by time as tb",
		quarantined: true, qreason: "breaker"}, newResultLog(8))
	body := finishState(b, map[uint64]uint64{7: 42})
	f.Add(body)
	f.Add(codec.Seal(bytes.Clone(body)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, codec.Seal(bytes.Clone(data))} {
			codectest.Allocs(t, len(in), func() { _, _ = decodeState(in) })
		}
	})
}
