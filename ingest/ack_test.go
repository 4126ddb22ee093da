package ingest_test

// The ack writer: the pump and the readers only nudge; one goroutine per
// connection writes the session's applied sequence. These tests hold what
// that hand-off must not lose — a wake-up, the last ack, a hello or duplicate
// re-ack — and the one thing it exists to gain: a client that does not read
// its acks holds up nobody else.

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
)

// TestAckWriterEveryWindow streams a session through dialers whose window
// lets 1, 2 or 32 frames be unacknowledged. With a window of 1 every frame
// waits for its own ack, so a lost wake-up between pump and ack writer shows
// as an ack timeout; with any window the last frame's ack must arrive for
// Close to return without one. A timeout is a redial, and there must be none.
func TestAckWriterEveryWindow(t *testing.T) {
	pkts := genPackets(4000, 17)
	want := inProcessRows(t, pkts)
	for _, window := range []int{1, 2, 32} {
		st := prepare(t)
		var rc rowCollector
		run := st.Start(rc.sink, gsql.Options{})
		l, err := ingest.Listen("tcp", "127.0.0.1:0", ingest.Config{Sink: run, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		d := ingest.Dial("tcp", l.Addr().String(), ingest.DialerConfig{
			BatchSize: 16, Window: window, AckTimeout: 2 * time.Second, Session: 0xa0 + uint64(window), Logf: t.Logf,
		})
		start := time.Now()
		streamAll(t, d, pkts)
		if ds := d.Stats(); ds.Reconnects != 0 || ds.FramesResent != 0 {
			t.Fatalf("window %d: %d reconnects, %d frames resent in %v: an ack went missing", window, ds.Reconnects, ds.FramesResent, time.Since(start))
		}
		if err := l.Shutdown(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		rs := l.RuntimeStats()
		if frames := uint64(len(pkts) / 16); rs.FramesAccepted != frames || rs.AcksWritten == 0 || rs.AcksWritten > frames+1 {
			t.Fatalf("window %d: %d frames accepted (want %d), %d acks written (want 1..%d: cumulative, plus the hello ack)",
				window, rs.FramesAccepted, frames, rs.AcksWritten, frames+1)
		}
		if window == 1 && rs.AcksWritten < rs.FramesAccepted {
			t.Fatalf("window 1: %d acks for %d frames, but each frame waited for its own", rs.AcksWritten, rs.FramesAccepted)
		}
		if err := run.Close(); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, want, rc.snapshot(), "stream through the ack writer")
	}
}

// nopSink applies nothing: these tests are about frames and acks.
type nopSink struct{}

func (nopSink) PushBatch(*gsql.Batch) (int, error) { return 0, nil }
func (nopSink) Heartbeat(gsql.Value) error         { return nil }

// TestAckWriterNoHeadOfLineBlocking: one client sends frames and never reads
// an ack, until the socket to it is full and the write of its next ack
// blocks. That write must block its own connection's ack writer and nothing
// else: a second client's session, each frame waiting for its ack, completes
// at once. When the pump wrote acks itself it sat in that write for its whole
// deadline, frame after frame, and every client of the listener with it.
func TestAckWriterNoHeadOfLineBlocking(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "ingest.sock")
	l, err := ingest.Listen("unix", sock, ingest.Config{Sink: nopSink{}, Queue: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Shutdown(10 * time.Second)

	deaf, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer deaf.Close()
	if _, err := deaf.Write(ingest.AppendHello(nil, 0xdeaf)); err != nil {
		t.Fatal(err)
	}
	pkts := genPackets(1, 3)
	var buf []byte
	var seq uint64
	send := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			buf = ingest.AppendData(buf[:0], seq, pkts)
			deaf.SetWriteDeadline(time.Now().Add(5 * time.Second))
			if _, err := deaf.Write(buf); err != nil {
				t.Fatalf("deaf client: frame %d: %v", seq, err)
			}
		}
	}
	// Feed frames until acks stop going out although frames keep being
	// applied: the ack writer is parked in a write to the full socket.
	stalled := 0 // consecutive rounds without an ack: one could be a late writer
	for round := 0; round < 2000 && stalled < 2; round++ {
		before := l.RuntimeStats()
		send(64)
		deadline := time.Now().Add(5 * time.Second)
		for l.RuntimeStats().FramesAccepted < seq && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		after := l.RuntimeStats()
		if after.FramesAccepted < seq {
			t.Fatalf("the pump stopped applying the deaf client's frames: %d of %d", after.FramesAccepted, seq)
		}
		if after.AcksWritten == before.AcksWritten {
			stalled++
		} else {
			stalled = 0
		}
	}
	if stalled < 2 {
		t.Fatalf("socket to the deaf client never filled (%d frames, %d acks)", seq, l.RuntimeStats().AcksWritten)
	}

	d := ingest.Dial("unix", sock, ingest.DialerConfig{BatchSize: 1, Window: 1, Session: 0x600d, MaxDials: 1, Logf: t.Logf})
	start := time.Now()
	streamAll(t, d, genPackets(50, 5))
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("a second client's 50 frames took %v behind a client that does not read its acks", took)
	}
	if ds := d.Stats(); ds.Reconnects != 0 || ds.FramesResent != 0 {
		t.Fatalf("second client: %d reconnects, %d resends", ds.Reconnects, ds.FramesResent)
	}
}

// TestAckWriterHelloAndDuplicateAcks: the reader's acks — the hello ack that
// tells a returning client where its session stands, and the re-ack of a
// duplicate frame — go out through the writer like the pump's.
func TestAckWriterHelloAndDuplicateAcks(t *testing.T) {
	l, err := ingest.Listen("tcp", "127.0.0.1:0", ingest.Config{Sink: nopSink{}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Shutdown(10 * time.Second)
	const session = 0xd0b1e
	frame := ingest.AppendData(nil, 1, genPackets(3, 1))

	dial := func() (net.Conn, *ingest.FrameReader) {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if _, err := c.Write(ingest.AppendHello(nil, session)); err != nil {
			t.Fatal(err)
		}
		return c, ingest.NewFrameReader(c, 0)
	}
	wantAck := func(c net.Conn, fr *ingest.FrameReader, seq uint64, what string) {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if f.Type != ingest.FrameAck || f.Seq != seq {
			t.Fatalf("%s: frame type %d seq %d, want an ack of %d", what, f.Type, f.Seq, seq)
		}
	}

	c, fr := dial()
	wantAck(c, fr, 0, "hello ack of a new session")
	c.Write(frame)
	wantAck(c, fr, 1, "ack of the applied frame")
	c.Write(frame)
	wantAck(c, fr, 1, "re-ack of the duplicate")
	if rs := l.RuntimeStats(); rs.DuplicatesDropped != 1 || rs.FramesAccepted != 1 {
		t.Fatalf("%d duplicates dropped, %d frames accepted, want 1 and 1", rs.DuplicatesDropped, rs.FramesAccepted)
	}
	c2, fr2 := dial()
	wantAck(c2, fr2, 1, "hello ack of the returning session")
}
