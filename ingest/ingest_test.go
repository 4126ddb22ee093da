package ingest_test

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/netgen"
)

// testQuery exercises grouped integer and float aggregation over 10-second
// buckets — enough state that any lost, duplicated, or reordered frame
// shows up in the rows.
const testQuery = `select tb, dstIP, count(*), sum(len), avg(float(len))
	from TCP group by time/10 as tb, dstIP`

// prepare returns a statement over the packet schema.
func prepare(t *testing.T) *gsql.Statement {
	t.Helper()
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		t.Fatal(err)
	}
	st, err := e.Prepare(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// genPackets synthesizes a deterministic trace.
func genPackets(n int, seed uint64) []netgen.Packet {
	cfg := netgen.DefaultConfig(5000, seed)
	cfg.Hosts = 50
	g := netgen.New(cfg)
	return g.Take(make([]netgen.Packet, 0, n), n)
}

// rowCollector is a sink capturing emitted rows; safe for use from the
// listener pump while the test goroutine inspects progress.
type rowCollector struct {
	mu   sync.Mutex
	rows []gsql.Tuple
}

func (rc *rowCollector) sink(row gsql.Tuple) error {
	rc.mu.Lock()
	rc.rows = append(rc.rows, append(gsql.Tuple(nil), row...))
	rc.mu.Unlock()
	return nil
}

func (rc *rowCollector) snapshot() []gsql.Tuple {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]gsql.Tuple(nil), rc.rows...)
}

// inProcessRows is the reference: the same packets pushed straight into a
// serial run, no network.
func inProcessRows(t *testing.T, pkts []netgen.Packet) []gsql.Tuple {
	t.Helper()
	st := prepare(t)
	var rc rowCollector
	run := st.Start(rc.sink, gsql.Options{})
	for _, p := range pkts {
		if err := run.Push(netgen.Tuple(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	return rc.snapshot()
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

// streamAll sends every packet through the dialer in small batches and
// closes it (which waits for every ack).
func streamAll(t *testing.T, d *ingest.Dialer, pkts []netgen.Packet) {
	t.Helper()
	for _, p := range pkts {
		if err := d.Send(p); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestWireRoundTrip(t *testing.T) {
	pkts := genPackets(7, 3)
	frames := [][]byte{
		ingest.AppendHello(nil, 0xfeedbeef),
		ingest.AppendData(nil, 1, pkts),
		ingest.AppendHeartbeat(nil, 123.5),
		ingest.AppendAck(nil, 42),
		ingest.AppendBye(nil),
	}
	var stream []byte
	for _, f := range frames {
		stream = append(stream, f...)
	}
	// DecodeFrame walks the concatenation, and AppendFrame re-encodes each
	// frame to the exact original bytes.
	off := 0
	for i, enc := range frames {
		f, n, err := ingest.DecodeFrame(stream[off:], 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != len(enc) {
			t.Fatalf("frame %d: consumed %d bytes, want %d", i, n, len(enc))
		}
		if re := ingest.AppendFrame(nil, f); !bytes.Equal(re, enc) {
			t.Fatalf("frame %d: re-encoding differs", i)
		}
		off += n
	}
	if _, _, err := ingest.DecodeFrame(stream[:5], 0); err != ingest.ErrIncomplete {
		t.Fatalf("partial header: got %v, want ErrIncomplete", err)
	}
	// Corrupting any body byte must surface as a checksum failure.
	bad := append([]byte(nil), frames[1]...)
	bad[14] ^= 0x01
	if _, _, err := ingest.DecodeFrame(bad, 0); err == nil {
		t.Fatal("corrupted frame decoded successfully")
	} else if fe, ok := err.(*ingest.FrameError); !ok || fe.Kind != ingest.FrameBadChecksum {
		t.Fatalf("corrupted frame: got %v, want FrameBadChecksum", err)
	}
}

// TestListenerStreamsBitIdentical is the baseline exactness contract: a
// trace streamed over a socket produces rows bit-identical to the same
// trace pushed in-process.
func TestListenerStreamsBitIdentical(t *testing.T) {
	for _, network := range []string{"tcp", "unix"} {
		t.Run(network, func(t *testing.T) {
			pkts := genPackets(5000, 11)
			want := inProcessRows(t, pkts)

			st := prepare(t)
			var rc rowCollector
			run := st.Start(rc.sink, gsql.Options{})
			address := "127.0.0.1:0"
			if network == "unix" {
				address = filepath.Join(t.TempDir(), "ingest.sock")
			}
			l, err := ingest.Listen(network, address, ingest.Config{Sink: run})
			if err != nil {
				t.Fatal(err)
			}
			d := ingest.Dial(network, l.Addr().String(), ingest.DialerConfig{
				BatchSize: 64, Session: 7, Logf: t.Logf,
			})
			streamAll(t, d, pkts)
			if err := l.Shutdown(10 * time.Second); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			if err := run.Close(); err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, want, rc.snapshot(), network)

			rs := l.RuntimeStats()
			if rs.FramesAccepted == 0 || rs.TuplesIn != uint64(len(pkts)) {
				t.Fatalf("stats: %d frames accepted, %d tuples in (want %d)", rs.FramesAccepted, rs.TuplesIn, len(pkts))
			}
			if rs.FramesQuarantined != 0 || rs.DuplicatesDropped != 0 {
				t.Fatalf("clean stream quarantined %d / duplicated %d frames", rs.FramesQuarantined, rs.DuplicatesDropped)
			}
		})
	}
}

// TestHeartbeatSynthesisClosesWindows: a stream that goes silent mid-bucket
// still emits its rows, because the listener advances stream time by the
// idle wall-clock span.
func TestHeartbeatSynthesisClosesWindows(t *testing.T) {
	// One-second buckets keep the wall-clock idle wait short: the packets
	// span ~0.4 stream seconds, so one synthesized heartbeat ~0.6s into the
	// silence closes the first bucket.
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		t.Fatal(err)
	}
	st, err := e.Prepare(`select tb, count(*), sum(len) from TCP group by time/1 as tb`)
	if err != nil {
		t.Fatal(err)
	}
	var rc rowCollector
	run := st.Start(rc.sink, gsql.Options{})
	l, err := ingest.Listen("tcp", "127.0.0.1:0", ingest.Config{
		Sink:              run,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Shutdown(time.Second)

	// Without heartbeats the open bucket would stall forever once the
	// client goes quiet.
	pkts := genPackets(2000, 5)
	d := ingest.Dial("tcp", l.Addr().String(), ingest.DialerConfig{Session: 9})
	for _, p := range pkts {
		if err := d.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// The connection stays open and silent: only synthesized heartbeats can
	// advance stream time the ~8 remaining bucket seconds (wall-clock).
	deadline := time.Now().Add(15 * time.Second)
	for len(rc.snapshot()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no rows after %v of idle; heartbeats not synthesized", 15*time.Second)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if hb := l.RuntimeStats().HeartbeatsSynthesized; hb == 0 {
		t.Fatal("rows emitted but HeartbeatsSynthesized is 0")
	}
	d.Close()
}

// TestDialerGivesUpAfterMaxDials: a dead endpoint exhausts the dial budget
// with a typed failure instead of blocking forever.
func TestDialerGivesUpAfterMaxDials(t *testing.T) {
	d := ingest.Dial("tcp", "127.0.0.1:1", ingest.DialerConfig{
		MaxDials:   3,
		MinBackoff: time.Millisecond,
		MaxBackoff: 2 * time.Millisecond,
		Session:    5,
	})
	if err := d.Send(genPackets(1, 1)[0]); err != nil {
		t.Fatalf("buffering a packet should not dial: %v", err)
	}
	if err := d.Flush(); err == nil {
		t.Fatal("flush to a dead endpoint succeeded")
	}
	if st := d.Stats(); st.Dials != 3 {
		t.Fatalf("made %d dial attempts, want 3", st.Dials)
	}
}

func TestSplitAddr(t *testing.T) {
	cases := []struct{ in, network, address string }{
		{"unix:/tmp/x.sock", "unix", "/tmp/x.sock"},
		{"tcp:localhost:99", "tcp", "localhost:99"},
		{"localhost:99", "tcp", "localhost:99"},
		{":9999", "tcp", ":9999"},
	}
	for _, c := range cases {
		n, a := ingest.SplitAddr(c.in)
		if n != c.network || a != c.address {
			t.Fatalf("SplitAddr(%q) = %q,%q want %q,%q", c.in, n, a, c.network, c.address)
		}
	}
}
