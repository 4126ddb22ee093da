package server

// Service-level tests: control wire codec, result-ring slow-consumer
// policies, WAL/state persistence, and the end-to-end serve path
// (attach → stream → subscribe → bit-exact rows vs a closeless in-process
// oracle). Crash/fault drills live in fault_test.go.

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	goruntime "runtime" // the package has a type named runtime
	"strings"
	"testing"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/codec"
	"forwarddecay/internal/codec/codectest"
	"forwarddecay/internal/core"
	"forwarddecay/internal/durable"
	"forwarddecay/internal/faultinject"
	"forwarddecay/metrics"
	"forwarddecay/netgen"
)

// testQuery exercises grouped integer and float aggregation over 10-second
// buckets — enough state that a lost, duplicated, or reordered frame shows
// up in the rows.
const testQuery = `select tb, dstIP, count(*), sum(len), avg(float(len))
	from TCP group by time/10 as tb, dstIP`

const testToken = "sesame"

// genPackets synthesizes a deterministic trace. rate sets packets/second:
// lower rates spread the same packet count over more time buckets, which is
// how tests dial up the emitted-row volume.
func genPackets(t *testing.T, n int, rate float64, seed uint64) []netgen.Packet {
	t.Helper()
	cfg := netgen.DefaultConfig(rate, seed)
	cfg.Hosts = 50
	g := netgen.New(cfg)
	return g.Take(make([]netgen.Packet, 0, n), n)
}

// oracleRows is the reference output: the same packets pushed through an
// in-process serial run WITHOUT closing it. The service never closes live
// runs, so the open bucket's rows are not part of the observable stream —
// the oracle must not flush them either. Sharded service runs are compared
// against this same serial oracle: parallel emission is contractually
// bit-identical to serial.
func oracleRows(t *testing.T, pkts []netgen.Packet) []gsql.Tuple {
	t.Helper()
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		t.Fatal(err)
	}
	st, err := e.Prepare(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	var rows []gsql.Tuple
	done := false
	run := st.Start(func(row gsql.Tuple) error {
		if !done {
			rows = append(rows, append(gsql.Tuple(nil), row...))
		}
		return nil
	}, gsql.Options{})
	for _, p := range pkts {
		if err := run.Push(netgen.Tuple(p)); err != nil {
			t.Fatal(err)
		}
	}
	done = true // ignore Close's open-bucket flush; Close only to free the run
	run.Close()
	return rows
}

// requireIdentical asserts two result sets match bit-for-bit.
func requireIdentical(t *testing.T, want, got []gsql.Tuple, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: want %d rows, got %d", label, len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s row %d: width %d vs %d", label, i, len(want[i]), len(got[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("%s row %d col %d: want %v, got %v", label, i, j, want[i][j], got[i][j])
			}
		}
	}
}

// startService boots a service on dynamic ports with test-friendly timings.
func startService(t *testing.T, dir string, mut func(*Config)) *Service {
	t.Helper()
	cfg := Config{
		Dir:         dir,
		ControlAddr: "127.0.0.1:0",
		IngestAddr:  "127.0.0.1:0",
		Tokens:      []string{testToken},
		Backoff:     core.Backoff{Min: 2 * time.Millisecond, Max: 20 * time.Millisecond},
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown() })
	return s
}

// controlAddr renders the service's control address in the scheme-qualified
// form DialClient expects ("host:port" or "unix:/path").
func controlAddr(s *Service) string {
	a := s.ControlAddr()
	if a.Network() == "unix" {
		return "unix:" + a.String()
	}
	return a.String()
}

func dialControl(t *testing.T, s *Service) *Client {
	t.Helper()
	cl, err := DialClient(controlAddr(s), testToken, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func dialIngest(t *testing.T, s *Service, session uint64) *ingest.Dialer {
	t.Helper()
	network, address := ingest.SplitAddr(s.IngestAddr())
	return ingest.Dial(network, address, ingest.DialerConfig{
		Session:    session,
		BatchSize:  64,
		MinBackoff: 2 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
		AckTimeout: 500 * time.Millisecond,
		Seed:       session,
	})
}

// streamAll sends every packet and closes the dialer, which waits for every
// ack — on return, the service has durably applied the whole trace.
func streamAll(t *testing.T, d *ingest.Dialer, pkts []netgen.Packet) {
	t.Helper()
	for _, p := range pkts {
		if err := d.Send(p); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("dialer close: %v", err)
	}
}

// drainRows pulls n row events off a subscription, enforcing contiguous
// cursors (from start; 0 = accept any) and no gaps. Goroutine-safe: reports
// by error instead of t.Fatal.
func drainRows(ch <-chan SubEvent, start uint64, n int, timeout time.Duration) ([]gsql.Tuple, uint64, error) {
	deadline := time.After(timeout)
	rows := make([]gsql.Tuple, 0, n)
	next := start
	var last uint64
	for len(rows) < n {
		select {
		case ev, ok := <-ch:
			if !ok {
				return rows, last, fmt.Errorf("subscription closed after %d/%d rows", len(rows), n)
			}
			if ev.Err != nil {
				return rows, last, fmt.Errorf("after %d/%d rows: %w", len(rows), n, ev.Err)
			}
			if ev.Gap {
				return rows, last, fmt.Errorf("unexpected gap [%d,%d) after %d rows", ev.GapFrom, ev.GapTo, len(rows))
			}
			if next != 0 && ev.Cursor != next {
				return rows, last, fmt.Errorf("cursor %d, want %d", ev.Cursor, next)
			}
			next = ev.Cursor + 1
			last = ev.Cursor
			rows = append(rows, ev.Row) // kept as handed: a delivered row is the receiver's
		case <-deadline:
			return rows, last, fmt.Errorf("timed out with %d/%d rows", len(rows), n)
		}
	}
	return rows, last, nil
}

func collectRows(t *testing.T, ch <-chan SubEvent, start uint64, n int, timeout time.Duration) ([]gsql.Tuple, uint64) {
	t.Helper()
	rows, last, err := drainRows(ch, start, n, timeout)
	if err != nil {
		t.Fatal(err)
	}
	return rows, last
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

type statsPayload struct {
	Mode     string             `json:"mode"`
	Gen      uint64             `json:"gen"`
	Fails    int32              `json:"consecutive_failures"`
	Counters map[string]uint64  `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
	Queries  []struct {
		ID   uint32 `json:"id"`
		Text string `json:"text"`
		Base uint64 `json:"base"`
		End  uint64 `json:"end"`
	} `json:"queries"`
}

func fetchStats(t *testing.T, cl *Client) statsPayload {
	t.Helper()
	raw, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var sp statsPayload
	if err := json.Unmarshal([]byte(raw), &sp); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, raw)
	}
	return sp
}

// --- control wire codec ---

func TestControlWireRoundTrip(t *testing.T) {
	row := gsql.Tuple{
		{T: gsql.TInt, I: 42},
		{T: gsql.TFloat, F: 3.5},
		{T: gsql.TBool, I: 1},
		{T: gsql.TString, S: "dst"},
		{T: gsql.TNull},
	}
	msgs := []*Msg{
		{Type: CtHello, Req: 1, Sess: 0xfeed, Text: testToken},
		{Type: CtAttach, Req: 2, Text: testQuery},
		{Type: CtDetach, Req: 3, Query: 7},
		{Type: CtSubscribe, Req: 4, Query: 7, Cursor: 99, Policy: PolicyDisconnect, Deadline: 1500},
		{Type: CtUnsubscribe, Req: 5, Query: 7},
		{Type: CtStats, Req: 6},
		{Type: CtBye, Req: 7},
		{Type: StOK, Req: 8},
		{Type: StErr, Req: 9, Code: CodeDegraded, Text: "nope"},
		{Type: StAttached, Req: 10, Query: 12},
		{Type: StRow, Query: 12, Cursor: 1234, Rows: []gsql.Tuple{row}},
		{Type: StRow, Query: 12, Cursor: 1235, Rows: []gsql.Tuple{row, row, row}},
		{Type: StGap, Query: 12, GapFrom: 10, Cursor: 20},
		{Type: StStats, Req: 11, Text: `{"mode":"healthy"}`},
		{Type: StBye, Req: 12},
	}
	for _, m := range msgs {
		buf := AppendMsg(nil, m)
		body, n, err := ingest.DecodeSealed(buf, MaxControlFrame)
		if err != nil || n != len(buf) {
			t.Fatalf("type %d: seal decode: %v (consumed %d of %d)", m.Type, err, n, len(buf))
		}
		got, err := DecodeMsg(body)
		if err != nil {
			t.Fatalf("type %d: %v", m.Type, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("type %d round trip:\n want %+v\n got  %+v", m.Type, m, got)
		}
	}

	// Hostile input: every strict prefix must be rejected, never panic.
	body := appendMsgBody(nil, &Msg{Type: StRow, Query: 1, Cursor: 2, Rows: []gsql.Tuple{row, row}})
	for i := 0; i < len(body); i++ {
		if _, err := DecodeMsg(body[:i]); err == nil {
			t.Fatalf("truncated body (%d/%d bytes) decoded successfully", i, len(body))
		}
	}
	if _, err := DecodeMsg(append(append([]byte(nil), body...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeMsg([]byte{99, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown frame type accepted")
	}
	bad := appendMsgBody(nil, &Msg{Type: CtSubscribe, Req: 1, Query: 1})
	bad[len(bad)-5] = 77 // the policy byte
	if _, err := DecodeMsg(bad); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

// --- result ring policies ---

// append adds one row the way the emit path adds a flush.
func (rl *resultLog) append(row gsql.Tuple) {
	rows := encodeRows([]gsql.Tuple{row})
	rl.appendRows(&rows, nil)
}

// fetchDecoded is fetch with the sealed StRow frame decoded back into rows,
// checking the frame against what fetch reported about it.
func fetchDecoded(t *testing.T, rl *resultLog, sub *subscriber, max int) (rows []gsql.Tuple, start, gapFrom uint64, st fetchStatus) {
	t.Helper()
	frame, n, start, gapFrom, st := rl.fetch(sub, 9, max, nil)
	if st != fetchRows {
		return nil, start, gapFrom, st
	}
	body, used, err := ingest.DecodeSealed(frame, MaxControlFrame)
	if err != nil || used != len(frame) {
		t.Fatalf("fetched frame: %v (consumed %d of %d bytes)", err, used, len(frame))
	}
	m, err := DecodeMsg(body)
	if err != nil {
		t.Fatalf("fetched frame: %v", err)
	}
	if m.Type != StRow || m.Query != 9 || m.Cursor != start || len(m.Rows) != n {
		t.Fatalf("fetched frame: type %d query %d cursor %d with %d rows; fetch reported start %d, %d rows",
			m.Type, m.Query, m.Cursor, len(m.Rows), start, n)
	}
	return m.Rows, start, 0, st
}

func TestResultLogPolicies(t *testing.T) {
	row := func(i int) gsql.Tuple { return gsql.Tuple{{T: gsql.TInt, I: int64(i)}} }

	t.Run("drop-oldest-gap", func(t *testing.T) {
		var shed uint64
		rl := newResultLog(4)
		rl.onShed = func(n uint64) { shed += n }
		sub := rl.subscribe(0, PolicyDropOldest, 0)
		for i := 1; i <= 10; i++ {
			rl.append(row(i))
		}
		_, start, gapFrom, st := fetchDecoded(t, rl, sub, 100)
		if st != fetchGap || gapFrom != 1 || start != 7 {
			t.Fatalf("want gap [1,7), got st=%d gapFrom=%d start=%d", st, gapFrom, start)
		}
		if shed != 6 {
			t.Fatalf("shed %d rows, want 6", shed)
		}
		rows, start, _, st := fetchDecoded(t, rl, sub, 100)
		if st != fetchRows || start != 7 || len(rows) != 4 {
			t.Fatalf("want rows 7..10, got st=%d start=%d n=%d", st, start, len(rows))
		}
		if rows[0][0].I != 7 || rows[3][0].I != 10 {
			t.Fatalf("wrong rows after gap: %v", rows)
		}
	})

	t.Run("block-holds-appender", func(t *testing.T) {
		rl := newResultLog(2)
		sub := rl.subscribe(0, PolicyBlock, 0)
		rl.append(row(1))
		rl.append(row(2))
		done := make(chan struct{})
		go func() { rl.append(row(3)); close(done) }()
		select {
		case <-done:
			t.Fatal("append proceeded past a blocking subscriber")
		case <-time.After(50 * time.Millisecond):
		}
		rows, _, _, st := fetchDecoded(t, rl, sub, 1)
		if st != fetchRows || len(rows) != 1 {
			t.Fatalf("fetch: st=%d n=%d", st, len(rows))
		}
		rl.advance(sub, 1)
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("append still blocked after the subscriber advanced")
		}
	})

	t.Run("disconnect-after-budget", func(t *testing.T) {
		disc := 0
		rl := newResultLog(2)
		rl.onDisconnect = func() { disc++ }
		sub := rl.subscribe(0, PolicyDisconnect, 30*time.Millisecond)
		start := time.Now()
		for i := 1; i <= 5; i++ {
			rl.append(row(i))
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("appends stalled %v past the 30ms budget", el)
		}
		if disc != 1 {
			t.Fatalf("onDisconnect fired %d times, want 1", disc)
		}
		if _, _, _, st := fetchDecoded(t, rl, sub, 1); st != fetchRemoved {
			t.Fatalf("fetch after disconnect: st=%d, want fetchRemoved", st)
		}
	})

	t.Run("unsubscribe-releases-parked-fetch", func(t *testing.T) {
		rl := newResultLog(2)
		sub := rl.subscribe(0, PolicyBlock, 0)
		got := make(chan fetchStatus, 1)
		go func() {
			_, _, _, _, st := rl.fetch(sub, 9, 1, nil)
			got <- st
		}()
		time.Sleep(20 * time.Millisecond)
		rl.unsubscribe(sub)
		select {
		case st := <-got:
			if st != fetchRemoved {
				t.Fatalf("st=%d, want fetchRemoved", st)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("fetch still parked after unsubscribe")
		}
	})

	t.Run("truncate-freeze-reemission", func(t *testing.T) {
		rl := newResultLog(10)
		for i := 1; i <= 6; i++ {
			rl.append(row(i))
		}
		sub := rl.subscribe(5, PolicyBlock, 0)
		rl.truncateTo(3)
		rl.freeze()
		rl.append(row(99)) // teardown flush: must not pollute the cursor space
		rl.thaw()
		for i := 4; i <= 6; i++ {
			rl.append(row(i))
		}
		rows, start, _, st := fetchDecoded(t, rl, sub, 10)
		if st != fetchRows || start != 5 || len(rows) != 2 {
			t.Fatalf("st=%d start=%d n=%d, want rows 5..6", st, start, len(rows))
		}
		if rows[0][0].I != 5 || rows[1][0].I != 6 {
			t.Fatalf("re-emitted rows differ: %v", rows)
		}
	})
}

// --- WAL persistence ---

func TestWALRoundTripAndTornTail(t *testing.T) {
	dir := t.TempDir()
	w, recs, err := openWAL(dir, walPos{})
	if err != nil {
		t.Fatal(err)
	}
	if w.epoch != 1 || len(recs) != 0 {
		t.Fatalf("fresh dir: epoch=%d recs=%d", w.epoch, len(recs))
	}
	pkts := genPackets(t, 9, 100, 1)
	if err := w.LogFrame(7, 1, pkts[:4]); err != nil {
		t.Fatal(err)
	}
	if err := w.LogFrame(7, 2, pkts[4:]); err != nil {
		t.Fatal(err)
	}
	if err := w.LogHeartbeat(gsql.Value{T: gsql.TInt, I: 123}); err != nil {
		t.Fatal(err)
	}
	if err := w.LogHeartbeat(gsql.Value{T: gsql.TFloat, F: 4.5}); err != nil {
		t.Fatal(err)
	}
	w.close()

	w2, recs, err := openWAL(dir, walPos{})
	if err != nil {
		t.Fatal(err)
	}
	if w2.epoch != 1 || w2.applied != 4 || len(recs) != 4 {
		t.Fatalf("reopen: epoch=%d applied=%d recs=%d", w2.epoch, w2.applied, len(recs))
	}
	if recs[0].kind != recFrame || recs[0].sess != 7 || recs[0].seq != 1 || !reflect.DeepEqual(recs[0].pkts, pkts[:4]) {
		t.Fatalf("frame record 0 mismatch: %+v", recs[0])
	}
	if !reflect.DeepEqual(recs[1].pkts, pkts[4:]) || recs[1].seq != 2 {
		t.Fatalf("frame record 1 mismatch: %+v", recs[1])
	}
	if recs[2].hb.T != gsql.TInt || recs[2].hb.I != 123 {
		t.Fatalf("int heartbeat mismatch: %+v", recs[2].hb)
	}
	if recs[3].hb.T != gsql.TFloat || recs[3].hb.F != 4.5 {
		t.Fatalf("float heartbeat mismatch: %+v", recs[3].hb)
	}
	w2.close()

	// A torn tail (crash mid-append) is truncated away and appends resume.
	tear(t, walName(dir, 1))
	w3, recs, err := openWAL(dir, walPos{})
	if err != nil {
		t.Fatalf("torn tail not repaired: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("after torn-tail repair: %d recs, want 4", len(recs))
	}
	if err := w3.LogHeartbeat(gsql.Value{T: gsql.TInt, I: 5}); err != nil {
		t.Fatal(err)
	}
	w3.close()
	_, recs, err = openWAL(dir, walPos{})
	if err != nil || len(recs) != 5 {
		t.Fatalf("append after repair: %v, %d recs", err, len(recs))
	}

	// Frame and heartbeat records keep the bytes the log has always had, but
	// for the sum slots, which are checked and compared as the core.HashBytes
	// sums they held when the bytes were pinned.
	dir1 := t.TempDir()
	wp, _, err := openWAL(dir1, walPos{})
	if err != nil {
		t.Fatal(err)
	}
	p := netgen.Packet{Time: 1.5, SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 80, DstPort: 443, Proto: 6, Len: 40}
	wp.LogFrame(7, 1, []netgen.Packet{p})
	wp.LogHeartbeat(gsql.Int(-3))
	wp.LogHeartbeat(gsql.Float(4.5))
	wp.close()
	const pinned = "464453525601000001000000000000002a0000009c723085cb7814a501070000000000000001000000000000000100000000000000f83f0100000a0200000a5000bb010628000a0000004db9c50378f641ed0200fdffffffffffffff0a000000149bd8cb233d0a4e02010000000000001240"
	b, err := os.ReadFile(walName(dir1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if b = codectest.ParentHeaders(t, b, durable.LogHeaderSize); hex.EncodeToString(b) != pinned {
		t.Fatalf("frame and heartbeat bytes moved:\n got  %x\n want %s", b, pinned)
	}

	// Corruption in the interior is NOT a torn tail: refuse to load.
	dir2 := t.TempDir()
	wc, _, err := openWAL(dir2, walPos{})
	if err != nil {
		t.Fatal(err)
	}
	wc.LogHeartbeat(gsql.Value{T: gsql.TInt, I: 1})
	wc.LogHeartbeat(gsql.Value{T: gsql.TInt, I: 2})
	wc.close()
	data, err := os.ReadFile(walName(dir2, 1))
	if err != nil {
		t.Fatal(err)
	}
	data[30] ^= 1 // inside the first record's sealed body
	if err := os.WriteFile(walName(dir2, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openWAL(dir2, walPos{}); err == nil {
		t.Fatal("corrupted WAL loaded without error")
	}
}

// TestJournalRoundTrip checks the catalog's change journal — its attach,
// detach, quarantine and revive records in the log — the same way: each
// record reads back as written, behind the frames it followed, and a torn
// catalog record is a change never acknowledged.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir, walPos{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LogFrame(7, 1, genPackets(t, 9, 20, 1)); err != nil {
		t.Fatal(err)
	}
	catalog := []walRecord{
		{kind: recAttach, id: 1, text: testQuery},
		{kind: recQuarantine, id: 1, text: gsql.QuarantineBreaker, ckpt: []byte{1, 2, 3}},
		{kind: recQuarantine, id: 1, text: gsql.QuarantinePanic},
		{kind: recRevive, id: 1},
		{kind: recDetach, id: 1},
	}
	for _, r := range catalog {
		if err := w.logCatalog(r); err != nil {
			t.Fatal(err)
		}
	}
	w.close()

	w2, recs, err := openWAL(dir, walPos{})
	if err != nil {
		t.Fatal(err)
	}
	if w2.applied != 6 || len(recs) != 6 || recs[0].kind != recFrame {
		t.Fatalf("reopen: applied=%d recs=%d", w2.applied, len(recs))
	}
	for i, want := range catalog {
		want.pos = walPos{1, uint64(1 + i)}
		if !reflect.DeepEqual(recs[1+i], want) {
			t.Fatalf("catalog record %d:\n want %+v\n got  %+v", i, want, recs[1+i])
		}
	}
	w2.close()

	// Torn tail tolerated: the last catalog record, cut short, simply
	// vanishes — from the file too, so that the next append does not land
	// behind it.
	path := walName(dir, 1)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	w3, recs, err := openWAL(dir, walPos{})
	if err != nil {
		t.Fatalf("torn tail not repaired: %v", err)
	}
	if len(recs) != 5 || recs[4].kind != recRevive {
		t.Fatalf("after torn-tail repair: %d recs, want 5 ending in the revive", len(recs))
	}
	if err := w3.logCatalog(walRecord{kind: recDetach, id: 1}); err != nil {
		t.Fatal(err)
	}
	w3.close()
	if _, recs, err = openWAL(dir, walPos{}); err != nil || len(recs) != 6 || recs[5].kind != recDetach {
		t.Fatalf("append after a torn tail: %v, %d recs", err, len(recs))
	}
}

func TestWALRotation(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir, walPos{})
	if err != nil {
		t.Fatal(err)
	}
	w.LogHeartbeat(gsql.Value{T: gsql.TInt, I: 1})
	w.LogHeartbeat(gsql.Value{T: gsql.TInt, I: 2})
	old, err := w.rotate()
	if err != nil {
		t.Fatal(err)
	}
	if w.epoch != 2 || w.applied != 0 {
		t.Fatalf("after rotate: epoch=%d applied=%d", w.epoch, w.applied)
	}
	old.Close()
	w.LogHeartbeat(gsql.Value{T: gsql.TInt, I: 3})
	w.close()
	// The cut removes nothing: both epochs are on disk until a persist
	// retires the older one.
	if names, _ := filepath.Glob(filepath.Join(dir, "ingest-*.wal")); len(names) != 2 {
		t.Fatalf("rotation left %d WAL files, want 2: %v", len(names), names)
	}

	// The recovery rule, by watermark. No state file: every record of every
	// epoch, in epoch order, each with its position.
	positions := func(recs []walRecord) (out []walPos) {
		for _, r := range recs {
			out = append(out, r.pos)
		}
		return out
	}
	for _, tc := range []struct {
		from walPos
		want []walPos
	}{
		{walPos{}, []walPos{{1, 0}, {1, 1}, {2, 0}}},
		{walPos{1, 1}, []walPos{{1, 1}, {2, 0}}}, // state cut mid-epoch (the old layout)
		{walPos{1, 2}, []walPos{{2, 0}}},
	} {
		w2, recs, err := openWAL(dir, tc.from)
		if err != nil {
			t.Fatal(err)
		}
		if got := positions(recs); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("replay from %v: positions %v, want %v", tc.from, got, tc.want)
		}
		if w2.epoch != 2 || w2.applied != 1 || !reflect.DeepEqual(walFiles(t, dir), []uint64{1, 2}) {
			t.Fatalf("replay from %v: appender at epoch=%d applied=%d files %v, want 2, 1, [1 2]", tc.from, w2.epoch, w2.applied, walFiles(t, dir))
		}
		w2.close()
	}

	// A state file at (2, 0) covers epoch 1: its file is swept on open, and
	// retire removes whatever the appender still lists as older.
	w3, recs, err := openWAL(dir, walPos{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].hb.I != 3 || !reflect.DeepEqual(walFiles(t, dir), []uint64{2}) {
		t.Fatalf("replay from (2,0): recs=%+v files %v", recs, walFiles(t, dir))
	}
	if _, err := os.Stat(walName(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("superseded epoch not removed: %v", err)
	}
	old, err = w3.rotate()
	if err != nil {
		t.Fatal(err)
	}
	old.Close()
	if err := w3.retire(2); err != nil {
		t.Fatal(err)
	}
	w3.close()
	if names, _ := filepath.Glob(filepath.Join(dir, "ingest-*.wal")); len(names) != 1 || names[0] != walName(dir, 3) {
		t.Fatalf("after retire(2): %v, want only epoch 3", names)
	}

	// A state file naming an epoch with no file (nothing survived): the log
	// restarts at that epoch.
	w4, recs, err := openWAL(t.TempDir(), walPos{7, 0})
	if err != nil || w4.epoch != 7 || len(recs) != 0 {
		t.Fatalf("empty dir from (7,0): epoch=%d recs=%d err=%v", w4.epoch, len(recs), err)
	}
	w4.close()

	// Torn tails: tolerated at the end of the newest file that has records
	// (here epoch 1, with epoch 2 still empty) ...
	dir2 := t.TempDir()
	w5, _, err := openWAL(dir2, walPos{})
	if err != nil {
		t.Fatal(err)
	}
	w5.LogHeartbeat(gsql.Value{T: gsql.TInt, I: 1})
	tear(t, walName(dir2, 1))
	old, err = w5.rotate()
	if err != nil {
		t.Fatal(err)
	}
	old.Close()
	w5.close()
	w6, recs, err := openWAL(dir2, walPos{})
	if err != nil || len(recs) != 1 || w6.epoch != 2 {
		t.Fatalf("torn tail under an empty newer epoch: %d recs, err=%v", len(recs), err)
	}
	// ... and corruption once a later epoch continues the log past them.
	w6.LogHeartbeat(gsql.Value{T: gsql.TInt, I: 2})
	w6.close()
	tear(t, walName(dir2, 1))
	if _, _, err := openWAL(dir2, walPos{}); err == nil {
		t.Fatal("a torn record in the middle of the log loaded without error")
	}
}

// --- state file ---

func TestStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := &serverState{
		walEpoch:    3,
		walApplied:  17,
		nextQueryID: 9,
		queries: []queryState{{
			id:   1,
			text: testQuery,
			ckpt: []byte{1, 2, 3, 4},
			base: 4,
			rows: encodeRows([]gsql.Tuple{{{T: gsql.TInt, I: 10}, {T: gsql.TFloat, F: 2.5}}, {{T: gsql.TNull}, {T: gsql.TString, S: "x"}}}),
			end:  5,
		}, {
			id:          2,
			text:        "select tb, count(*) from TCP group by time as tb",
			base:        1,
			end:         0, // an empty ring
			quarantined: true,
			qreason:     "breaker",
		}},
		sessions: map[uint64]uint64{7: 42, 9: 1},
	}
	// A checkpoint encodes each ring image from a live ring: load the
	// expected images into rings first.
	b := beginState(nil, st.walEpoch, st.walApplied, st.nextQueryID, len(st.queries))
	for i := range st.queries {
		q := &st.queries[i]
		ring := newResultLog(8)
		ring.restoreRows(q.base, q.rows)
		b = appendQueryState(b, q, ring)
	}
	if err := writeState(dir, codec.Seal(finishState(b, st.sessions))); err != nil {
		t.Fatal(err)
	}
	got, err := loadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("state round trip:\n want %+v\n got  %+v", st, got)
	}

	// A flipped byte anywhere must fail the checksum.
	path := filepath.Join(dir, stateFile)
	b, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadState(dir); err == nil {
		t.Fatal("corrupted state file loaded")
	}

	// Missing file is a fresh start, not an error.
	if st, err := loadState(t.TempDir()); err != nil || st != nil {
		t.Fatalf("missing state: %v %v", st, err)
	}
}

// TestPersistedShardsRefused: the state file still carries the shard count
// older binaries wrote. A non-zero one — a directory written under -shards 2
// — is refused with the typed error naming the query, not resumed on the
// serial runtime; the same image with 0 loads.
func TestPersistedShardsRefused(t *testing.T) {
	refused := func(what string, err error) {
		t.Helper()
		var sue *gsql.ShardedUnsupportedError
		if !errors.As(err, &sue) || sue.Shards != 2 || sue.Query != testQuery {
			t.Fatalf("%s with shards=2: error = %v, want *gsql.ShardedUnsupportedError{Shards: 2}", what, err)
		}
		if !strings.Contains(err.Error(), "query 7") {
			t.Fatalf("%s: error %q does not name query 7", what, err)
		}
	}

	// State image: magic, epoch, applied, next id, query count, then the
	// query's id and text; the shard count follows.
	q := &queryState{id: 7, text: testQuery, ckpt: []byte{1, 2, 3}, end: 2}
	b := beginState(nil, 3, 17, 9, 1)
	b = finishState(appendQueryState(b, q, newResultLog(8)), nil)
	if _, err := decodeState(codec.Seal(b)); err != nil {
		t.Fatalf("state image with shards=0: %v", err)
	}
	binary.LittleEndian.PutUint32(b[8+8+8+4+4+4+4+len(testQuery):], 2)
	dir := t.TempDir()
	if err := writeState(dir, codec.Seal(b)); err != nil {
		t.Fatal(err)
	}
	_, err := loadState(dir)
	refused("state file", err)
}

// TestDecodersKeepNoInput: nothing a WAL record, a control frame or a state
// file decodes into refers to the input — overwriting the input afterwards
// changes nothing that re-encodes.
func TestDecodersKeepNoInput(t *testing.T) {
	var r walRecord
	for _, in := range []walRecord{
		{kind: recQuarantine, id: 2, text: "breaker", ckpt: []byte{1, 2, 3}},
		{kind: recAttach, id: 3, text: testQuery},
		{kind: recFrame, sess: 1, seq: 2, pkts: genPackets(t, 3, 50, 1)},
	} {
		codectest.NoRetain(t, in.appendBody(nil),
			func(b []byte) (err error) { r, err = decodeWALRecord(b); return err },
			func() ([]byte, error) { return r.appendBody(nil), nil })
	}

	var m *Msg
	rows := []gsql.Tuple{{gsql.Str("a"), gsql.Int(1)}, {gsql.Str("bc"), gsql.Int(2)}}
	codectest.NoRetain(t, appendMsgBody(nil, &Msg{Type: StRow, Query: 3, Cursor: 7, Rows: rows}),
		func(b []byte) (err error) { m, err = DecodeMsg(b); return err },
		func() ([]byte, error) { return appendMsgBody(nil, m), nil })

	image := func(st *serverState) []byte {
		b := beginState(nil, st.walEpoch, st.walApplied, st.nextQueryID, len(st.queries))
		for i := range st.queries {
			ring := newResultLog(4)
			ring.restoreRows(st.queries[i].base, st.queries[i].rows)
			b = appendQueryState(b, &st.queries[i], ring)
		}
		return codec.Seal(finishState(b, st.sessions))
	}
	st := &serverState{walEpoch: 1, walApplied: 2, nextQueryID: 3, queries: []queryState{{
		id: 1, text: testQuery, ckpt: []byte{9, 8}, base: 1, rows: encodeRows([]gsql.Tuple{{gsql.Str("row")}}),
		quarantined: true, qreason: "poison"}}}
	codectest.NoRetain(t, image(st), func(b []byte) (err error) { st, err = decodeState(b); return err },
		func() ([]byte, error) { return image(st), nil })
}

// TestCatalogRecordSyncs: an acknowledged Attach, Revive or Detach is durable
// — one file sync each, and one directory sync more for the first catalog
// record of an epoch whose file name the persister has not synced yet.
func TestCatalogRecordSyncs(t *testing.T) {
	defer faultinject.Reset()
	svc := startService(t, t.TempDir(), func(c *Config) { c.QueryBreakerErrors = 1 })
	cl := dialControl(t, svc)
	faultinject.Set("durable.sync", faultinject.Fault{})
	faultinject.Set("durable.dirsync", faultinject.Fault{})
	cost := func(what string, syncs, dirsyncs uint64, op func() error) {
		t.Helper()
		s0, d0 := faultinject.Hits("durable.sync"), faultinject.Hits("durable.dirsync")
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if s, d := faultinject.Hits("durable.sync")-s0, faultinject.Hits("durable.dirsync")-d0; s != syncs || d != dirsyncs {
			t.Fatalf("%s cost %d file and %d directory syncs, want %d and %d", what, s, d, syncs, dirsyncs)
		}
	}
	var id, pid uint32
	cost("attach", 1, 0, func() (err error) { id, err = cl.Attach(testQuery); return err })
	cost("attach", 1, 0, func() (err error) { pid, err = cl.Attach(serverPoisonQuery); return err })
	// The poison query fences on its first row: the quarantine is a record
	// too, synced on the pump before the frame's ack.
	cost("a frame that fences a query", 1, 0, func() error {
		streamAll(t, dialIngest(t, svc, 3), genPackets(t, 64, 50, 3))
		if fenced, _ := mustLookup(t, svc, pid).Quarantined(); !fenced {
			return errors.New("the poison query is not fenced")
		}
		return nil
	})
	cost("revive", 1, 0, func() error { return cl.Revive(pid) })
	cost("detach", 1, 0, func() error { return cl.Detach(pid) })

	// A checkpoint rotates the log into a file whose name is not durable
	// until its persist: the first catalog record after it syncs the
	// directory itself, the next does not.
	rt := svc.rt.Load()
	if err := svc.checkpoint(rt); err != nil {
		t.Fatal(err)
	}
	waitPersisted(t, svc, 0)
	cost("attach after a rotation", 1, 1, func() (err error) { _, err = cl.Attach(testQuery); return err })
	cost("detach", 1, 0, func() error { return cl.Detach(id) })
}

// TestWALNeverWritesARecordItRefuses: what the decoder would refuse is never
// logged. A quarantine's partials too large for a record are left out (the
// record still logs); an oversized attach and a non-finite heartbeat are
// refused before any byte is written, so the log stays readable and open.
func TestWALNeverWritesARecordItRefuses(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir, walPos{})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, walMaxRecord)
	if err := w.logCatalog(walRecord{kind: recQuarantine, id: 4, text: gsql.QuarantineCardinality, ckpt: big}); err != nil {
		t.Fatal(err)
	}
	fits := big[:walMaxRecord-1-4-4-len(gsql.QuarantinePanic)-4]
	if err := w.logCatalog(walRecord{kind: recQuarantine, id: 5, text: gsql.QuarantinePanic, ckpt: fits}); err != nil {
		t.Fatal(err)
	}
	if err := w.logCatalog(walRecord{kind: recAttach, id: 6, text: string(big)}); err == nil {
		t.Fatal("an attach too large for a record was logged")
	}
	if err := w.LogHeartbeat(gsql.Float(math.NaN())); err == nil {
		t.Fatal("a NaN heartbeat was logged")
	}
	if err := w.logCatalog(walRecord{kind: recDetach, id: 5}); err != nil {
		t.Fatalf("the log closed after a refused record: %v", err)
	}
	w.close()
	_, recs, err := openWAL(dir, walPos{})
	if err != nil || len(recs) != 3 {
		t.Fatalf("reopen: %d records, %v", len(recs), err)
	}
	if r := recs[0]; r.id != 4 || r.text != gsql.QuarantineCardinality || r.ckpt != nil {
		t.Fatalf("oversized quarantine logged as %+v, want its partials dropped", r)
	}
	if r := recs[1]; r.id != 5 || len(r.ckpt) != len(fits) {
		t.Fatalf("quarantine at the limit lost its %d-byte partials: %d", len(fits), len(r.ckpt))
	}
}

// --- end-to-end serve path ---

func TestServeEndToEnd(t *testing.T) {
	pkts := genPackets(t, 4000, 50, 11)
	want := oracleRows(t, pkts)
	if len(want) < 50 {
		t.Fatalf("oracle too thin to be interesting: %d rows", len(want))
	}
	svc := startService(t, t.TempDir(), func(c *Config) { c.HTTPAddr = "127.0.0.1:0" })
	cl := dialControl(t, svc)

	id, err := cl.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cl.Subscribe(id, 0, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}

	d := dialIngest(t, svc, 3)
	streamAll(t, d, pkts)

	rows, last := collectRows(t, ch, 1, len(want), 30*time.Second)
	requireIdentical(t, want, rows, "live subscription")
	if last != uint64(len(want)) {
		t.Fatalf("last cursor %d, want %d", last, len(want))
	}

	sp := fetchStats(t, cl)
	if sp.Mode != "healthy" {
		t.Fatalf("stats mode %q", sp.Mode)
	}
	if len(sp.Queries) != 1 || sp.Queries[0].ID != id || sp.Queries[0].End != uint64(len(want)) {
		t.Fatalf("stats queries: %+v", sp.Queries)
	}
	if sp.Counters["server_rows_emitted"] < uint64(len(want)) {
		t.Fatalf("rows_emitted %d < %d", sp.Counters["server_rows_emitted"], len(want))
	}
	if sp.Gauges["server_catalog_queries"] != 1 {
		t.Fatalf("catalog queries gauge: %v", sp.Gauges)
	}
	if sp.Gauges["server_catalog_distinct_texts"] != 1 || sp.Gauges["server_catalog_key_tables"] != 1 {
		t.Fatalf("catalog sharing gauges: %v", sp.Gauges)
	}

	code, body := httpGet(t, "http://"+svc.HTTPAddr()+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "healthy") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	code, body = httpGet(t, "http://"+svc.HTTPAddr()+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "server_rows_delivered") {
		t.Fatalf("metrics: %d %q", code, body)
	}
	if !strings.Contains(body, "server_catalog_queries 1") {
		t.Fatalf("metrics missing catalog gauges: %q", body)
	}
	code, body = httpGet(t, "http://"+svc.HTTPAddr()+"/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("metrics json: %d", code)
	}
	var js statsPayload
	if err := json.Unmarshal([]byte(body), &js); err != nil {
		t.Fatalf("metrics json: %v\n%s", err, body)
	}

	if err := cl.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	for ev := range ch { // channel must close cleanly, without errors
		if ev.Err != nil {
			t.Fatalf("event after unsubscribe: %v", ev.Err)
		}
	}
	if err := cl.Bye(); err != nil {
		t.Fatal(err)
	}
}

func TestAuthAndBadRequests(t *testing.T) {
	svc := startService(t, t.TempDir(), nil)
	addr := svc.ControlAddr().String()

	if _, err := DialClient(addr, "wrong-token", time.Second); err == nil {
		t.Fatal("bad token accepted")
	} else {
		var ce *ClientError
		if !asClientError(err, &ce) || ce.Code != CodeAuth {
			t.Fatalf("bad token: %v, want CodeAuth", err)
		}
	}
	if got := svc.Counters().Get("server_auth_failures"); got != 1 {
		t.Fatalf("auth failure counter = %d, want 1", got)
	}

	cl := dialControl(t, svc)
	if _, err := cl.Attach("select utter nonsense ((("); err == nil {
		t.Fatal("unparseable query attached")
	} else if code := errClientCode(t, err); code != CodeParse {
		t.Fatalf("parse failure code %d, want %d", code, CodeParse)
	}
	if _, err := cl.Attach(""); err == nil {
		t.Fatal("empty query attached")
	} else if code := errClientCode(t, err); code != CodeBadRequest {
		t.Fatalf("empty attach code %d, want %d", code, CodeBadRequest)
	}
	if err := cl.Detach(42); err == nil {
		t.Fatal("detach of unknown query succeeded")
	} else if code := errClientCode(t, err); code != CodeUnknownQuery {
		t.Fatalf("unknown detach code %d, want %d", code, CodeUnknownQuery)
	}
	if _, err := cl.Subscribe(42, 0, PolicyDropOldest, 0); err == nil {
		t.Fatal("subscribe to unknown query succeeded")
	} else if code := errClientCode(t, err); code != CodeUnknownQuery {
		t.Fatalf("unknown subscribe code %d, want %d", code, CodeUnknownQuery)
	}

	id, err := cl.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe(id, 0, PolicyDisconnect, 0); err == nil {
		t.Fatal("disconnect policy without a deadline accepted")
	} else if code := errClientCode(t, err); code != CodeBadRequest {
		t.Fatalf("deadline-less disconnect code %d, want %d", code, CodeBadRequest)
	}
	if _, err := cl.Subscribe(id, 0, PolicyBlock, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe(id, 0, PolicyBlock, 0); err == nil {
		t.Fatal("duplicate subscription accepted")
	}
}

func asClientError(err error, out **ClientError) bool {
	ce, ok := err.(*ClientError)
	if ok {
		*out = ce
	}
	return ok
}

func errClientCode(t *testing.T, err error) uint16 {
	t.Helper()
	var ce *ClientError
	if !asClientError(err, &ce) {
		t.Fatalf("not a ClientError: %v", err)
	}
	return ce.Code
}

func TestDetachNotifiesSubscribers(t *testing.T) {
	pkts := genPackets(t, 2000, 50, 13)
	want := oracleRows(t, pkts)
	svc := startService(t, t.TempDir(), nil)
	cl := dialControl(t, svc)
	id, err := cl.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cl.Subscribe(id, 0, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := dialIngest(t, svc, 17)
	streamAll(t, d, pkts)
	collectRows(t, ch, 1, len(want), 20*time.Second)

	if err := cl.Detach(id); err != nil {
		t.Fatal(err)
	}
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("channel closed with no termination event")
		}
		if ev.Err == nil || ev.Code != CodeUnknownQuery {
			t.Fatalf("termination event: err=%v code=%d, want CodeUnknownQuery", ev.Err, ev.Code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no termination event after detach")
	}

	// The catalog is really gone, and a fresh attach gets a fresh id.
	if _, err := cl.Subscribe(id, 0, PolicyBlock, 0); err == nil {
		t.Fatal("subscribe to detached query succeeded")
	}
	id2, err := cl.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("detached id %d was reused", id)
	}
}

// TestShutdownCutsAfterCatalogChangesOnly: catalog changes are logged like
// frames, so a shutdown with nothing but an attach since the last checkpoint
// still cuts a final one, and the state file holds the query.
func TestShutdownCutsAfterCatalogChangesOnly(t *testing.T) {
	dir := t.TempDir()
	svc := startService(t, dir, nil)
	id, err := svc.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	st, err := loadState(dir)
	if err != nil || st == nil || len(st.queries) != 1 || st.queries[0].id != id {
		t.Fatalf("state after a shutdown with only an attach logged: %+v, %v", st, err)
	}
}

func TestShutdownRestartResume(t *testing.T) {
	dir := t.TempDir()
	pkts := genPackets(t, 6000, 50, 21)
	wantAll := oracleRows(t, pkts)
	cut := len(pkts) / 2
	wantFirst := oracleRows(t, pkts[:cut])
	if len(wantFirst) < 20 || len(wantAll) <= len(wantFirst) {
		t.Fatalf("degenerate split: %d / %d rows", len(wantFirst), len(wantAll))
	}

	svc1 := startService(t, dir, func(c *Config) { c.ResultLog = 1 << 14 })
	cl1 := dialControl(t, svc1)
	id, err := cl1.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	ch1, err := cl1.Subscribe(id, 0, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	d1 := dialIngest(t, svc1, 5)
	streamAll(t, d1, pkts[:cut])
	rowsA, lastA := collectRows(t, ch1, 1, len(wantFirst), 20*time.Second)
	requireIdentical(t, wantFirst, rowsA, "before restart")
	if err := svc1.Shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	// Cold restart in the same directory: catalog, ring and engine state come
	// back from the checkpoint; the subscriber resumes at lastA+1 and sees
	// exactly the rows an uninterrupted run would have emitted next.
	svc2 := startService(t, dir, func(c *Config) { c.ResultLog = 1 << 14 })
	cl2 := dialControl(t, svc2)
	sp := fetchStats(t, cl2)
	if len(sp.Queries) != 1 || sp.Queries[0].ID != id || sp.Queries[0].End != lastA {
		t.Fatalf("restored catalog: %+v (want query %d at end %d)", sp.Queries, id, lastA)
	}
	ch2, err := cl2.Subscribe(id, lastA+1, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2 := dialIngest(t, svc2, 6)
	streamAll(t, d2, pkts[cut:])
	rest := wantAll[len(wantFirst):]
	rowsB, lastB := collectRows(t, ch2, lastA+1, len(rest), 20*time.Second)
	requireIdentical(t, rest, rowsB, "after restart")
	if lastB != uint64(len(wantAll)) {
		t.Fatalf("final cursor %d, want %d", lastB, len(wantAll))
	}

	// Shutdown is idempotent.
	if err := svc2.Shutdown(); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}
	if err := svc2.Shutdown(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestShutdownReleasesEverything pins what Shutdown promises and once did
// not deliver (the supervisor cleared the runtime pointer on its way out, so
// Shutdown found nothing to drain): afterwards the ingest socket refuses,
// the final checkpoint exists so a reopen has no WAL to replay, no goroutine
// of the service is left, and nothing keeps the Service itself reachable.
func TestShutdownReleasesEverything(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "ingest.sock")
	cfg := Config{
		Dir:         filepath.Join(dir, "state"),
		ControlAddr: "unix:" + filepath.Join(dir, "control.sock"),
		IngestAddr:  "unix:" + sock,
	}
	pkts := genPackets(t, 3000, 50, 77)
	want := oracleRows(t, pkts)

	goroutines := goruntime.NumGoroutine()
	// Not startService: its Cleanup closure would keep the Service reachable.
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The probe is the service's metric registry, which only the Service
	// refers to. A finalizer on the Service itself could never run: its
	// rings' callbacks point back at it, and a finalizer keeps a cycle
	// through its own object alive.
	collected := make(chan struct{})
	goruntime.SetFinalizer(svc.Counters(), func(*metrics.CounterSet) { close(collected) })
	id, err := svc.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, dialIngest(t, svc, 31), pkts)
	if err := svc.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	svc = nil

	if c, err := net.Dial("unix", sock); err == nil {
		c.Close()
		t.Fatal("ingest socket still accepts after Shutdown")
	}
	// The final checkpoint rotated the WAL: nothing is left to replay, and
	// the state file carries the query with every row it emitted.
	st, err := loadState(cfg.Dir)
	if err != nil || st == nil {
		t.Fatalf("state after shutdown: %v, %v", st, err)
	}
	wal, recs, err := openWAL(cfg.Dir, walPos{st.walEpoch, st.walApplied})
	if err != nil {
		t.Fatal(err)
	}
	wal.close()
	if len(recs) != 0 {
		t.Fatalf("%d WAL records to replay after a graceful shutdown, want 0", len(recs))
	}
	if len(st.queries) != 1 || st.queries[0].id != id || st.queries[0].end != uint64(len(want)) {
		t.Fatalf("final checkpoint holds %+v, want query %d through cursor %d", st.queries, id, len(want))
	}
	requireIdentical(t, want, st.queries[0].rows.tuples(t), "ring image of the final checkpoint")

	waitFor(t, 5*time.Second, "the service's goroutines to exit", func() bool {
		return goruntime.NumGoroutine() <= goroutines
	})
	waitFor(t, 5*time.Second, "the closed Service to be collected", func() bool {
		goruntime.GC()
		select {
		case <-collected:
			return true
		default:
			return false
		}
	})
}
