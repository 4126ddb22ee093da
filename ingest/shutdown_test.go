package ingest_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
)

// poisonSink fails every PushBatch with a fixed error — the stand-in for a
// runtime that has died under the listener.
type poisonSink struct{ err error }

func (s poisonSink) PushBatch(*gsql.Batch) (int, error) { return 0, s.err }
func (s poisonSink) Heartbeat(gsql.Value) error         { return s.err }

// TestShutdownIdempotent: Shutdown must be safe to call twice — including
// concurrently — with every call draining to the same quiescent state and
// reporting the same verdict, and the session table must not shift between
// calls. The supervisor leans on this: a watchdog-initiated shutdown can
// race a deliberate one.
func TestShutdownIdempotent(t *testing.T) {
	pkts := genPackets(500, 7)
	st := prepare(t)
	var rc rowCollector
	run := st.Start(rc.sink, gsql.Options{})
	l, err := ingest.Listen("tcp", "127.0.0.1:0", ingest.Config{Sink: run, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	d := ingest.Dial("tcp", l.Addr().String(), ingest.DialerConfig{
		BatchSize: 25, Session: 0x51, Logf: t.Logf,
	})
	streamAll(t, d, pkts) // Close waits for every ack: all 20 frames applied

	before := l.Sessions()

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = l.Shutdown(10 * time.Second)
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			t.Fatalf("concurrent Shutdown %d: %v", i, e)
		}
	}
	// A further call after the drain completed behaves the same.
	if err := l.Shutdown(time.Second); err != nil {
		t.Fatalf("post-drain Shutdown: %v", err)
	}

	after := l.Sessions()
	if len(before) != 1 || len(after) != 1 {
		t.Fatalf("session table size: before %d, after %d, want 1", len(before), len(after))
	}
	wantFrames := d.Stats().FramesSent
	if got := after[0x51]; got != wantFrames {
		t.Fatalf("session applied = %d, want %d (every sent frame acked before Close returned)", got, wantFrames)
	}
	if before[0x51] != after[0x51] {
		t.Fatalf("session table shifted across drain: %d -> %d", before[0x51], after[0x51])
	}
	if rs := l.RuntimeStats(); rs.TuplesIn != uint64(len(pkts)) {
		t.Fatalf("TuplesIn = %d, want %d", rs.TuplesIn, len(pkts))
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestErrAfterSinkFailure: once the sink poisons the pump, Err() reports the
// failure, Shutdown returns it (from every call), and — critically for
// supervised restarts — the frame the sink never applied is NOT acked, so
// its session watermark stays put and the client retains it for resending
// to the successor.
func TestErrAfterSinkFailure(t *testing.T) {
	sinkErr := errors.New("runtime died under the listener")
	l, err := ingest.Listen("tcp", "127.0.0.1:0", ingest.Config{
		Sink: poisonSink{err: sinkErr}, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := ingest.Dial("tcp", l.Addr().String(), ingest.DialerConfig{
		BatchSize:  8,
		Session:    0x99,
		AckTimeout: 100 * time.Millisecond,
		MinBackoff: time.Millisecond,
		MaxBackoff: 5 * time.Millisecond,
		MaxDials:   3,
		Logf:       t.Logf,
	})
	for _, p := range genPackets(8, 3) { // exactly one data frame
		if err := d.Send(p); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("listener never recorded the sink failure")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := l.Err(); !errors.Is(got, sinkErr) {
		t.Fatalf("Err() = %v, want %v", got, sinkErr)
	}
	if err := l.Shutdown(5 * time.Second); !errors.Is(err, sinkErr) {
		t.Fatalf("Shutdown = %v, want the sink failure %v", err, sinkErr)
	}
	if err := l.Shutdown(time.Second); !errors.Is(err, sinkErr) {
		t.Fatalf("second Shutdown = %v, want the sink failure %v", err, sinkErr)
	}
	if applied := l.Sessions()[0x99]; applied != 0 {
		t.Fatalf("session applied = %d after sink failure, want 0: an unapplied frame must never be acked", applied)
	}
	// The dialer's ack timeout fires, it redials, exhausts MaxDials, and
	// Close surfaces the give-up instead of hanging on acks that will never
	// come.
	if err := d.Close(); err == nil {
		t.Fatal("dialer Close succeeded despite a poisoned listener holding its frames")
	}
}

// TestShutdownTimeoutExpires: a sink wedged inside PushBatch can outlive the
// drain budget; Shutdown must return the timeout error instead of hanging.
func TestShutdownTimeoutExpires(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	l, err := ingest.Listen("tcp", "127.0.0.1:0", ingest.Config{
		Sink: &wedgeSink{release: release, entered: entered}, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := ingest.Dial("tcp", l.Addr().String(), ingest.DialerConfig{
		BatchSize: 4, Session: 0x42, AckTimeout: time.Hour, Logf: t.Logf,
	})
	for _, p := range genPackets(4, 5) {
		if err := d.Send(p); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	select {
	case <-entered: // the pump is provably stuck inside PushBatch
	case <-time.After(5 * time.Second):
		t.Fatal("pump never reached the wedged sink")
	}
	start := time.Now()
	err = l.Shutdown(200 * time.Millisecond)
	if err == nil {
		t.Fatal("Shutdown returned nil with a wedged sink")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v, want ~200ms timeout", elapsed)
	}
	close(release) // unwedge so the pump goroutine can exit
}

// wedgeSink blocks inside PushBatch until released — the watchdog drill's model
// of a runtime stuck on a lock. It closes entered on first entry so the
// test can synchronize with the wedge.
type wedgeSink struct {
	release chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (s *wedgeSink) PushBatch(*gsql.Batch) (int, error) {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return 0, nil
}
func (s *wedgeSink) Heartbeat(gsql.Value) error { return nil }
