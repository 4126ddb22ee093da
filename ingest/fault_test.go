package ingest_test

import (
	"errors"
	"testing"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/faultinject"
	"forwarddecay/netgen"
)

// faultRules is the standard gauntlet: a duplicated data frame, a severed
// connection, a corrupted frame, and a partial write, spread across the
// stream (cumulative frame indices; frame 1 is the first Hello).
func faultRules() []faultinject.Rule {
	return []faultinject.Rule{
		{Frame: 3, Op: faultinject.OpDuplicate},
		{Frame: 6, Op: faultinject.OpCut},
		{Frame: 11, Op: faultinject.OpCorrupt},
		{Frame: 17, Op: faultinject.OpPartialCut},
		{Frame: 23, Op: faultinject.OpDuplicate},
		{Frame: 29, Op: faultinject.OpCut},
	}
}

// faultDialer returns a dialer tuned for fast reconnects in tests.
func faultDialer(addr string, t *testing.T) *ingest.Dialer {
	return ingest.Dial("tcp", addr, ingest.DialerConfig{
		BatchSize:  32,
		MinBackoff: time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
		AckTimeout: 2 * time.Second,
		Session:    0xabcdef,
		Seed:       1,
		Logf:       t.Logf,
	})
}

// runFaultGauntlet streams pkts through a fault-injecting proxy into sink,
// returning the listener for stats inspection. The listener is shut down
// (drained) before return; closing the sink is the caller's business.
func runFaultGauntlet(t *testing.T, sink ingest.Sink, pkts []netgen.Packet) *ingest.Listener {
	t.Helper()
	l, err := ingest.Listen("tcp", "127.0.0.1:0", ingest.Config{Sink: sink, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := faultinject.NewProxy(l.Addr().String(), 99, faultRules())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	d := faultDialer(proxy.Addr(), t)
	streamAll(t, d, pkts)
	if st := d.Stats(); st.Reconnects == 0 || st.FramesResent == 0 {
		t.Fatalf("proxy faults produced no client reconnects/resends: %+v", st)
	}
	if err := l.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	return l
}

// assertFaultStats checks the ingest counters recorded the injected faults.
func assertFaultStats(t *testing.T, rs gsql.RuntimeStats, npkts int) {
	t.Helper()
	if rs.Reconnects == 0 {
		t.Fatal("Reconnects = 0, want >= 1 (OpCut fired)")
	}
	if rs.FramesQuarantined == 0 {
		t.Fatal("FramesQuarantined = 0, want >= 1 (OpCorrupt/OpPartialCut fired)")
	}
	if rs.DuplicatesDropped == 0 {
		t.Fatal("DuplicatesDropped = 0, want >= 1 (OpDuplicate fired)")
	}
	if rs.TuplesIn != uint64(npkts) {
		t.Fatalf("TuplesIn = %d, want exactly %d: the resend protocol must deliver everything once", rs.TuplesIn, npkts)
	}
}

// TestReconnectResumeExactSerial: disconnects, corruption, partial writes
// and duplicates on the wire must leave the serial run's output
// bit-identical to an uninterrupted in-process run.
func TestReconnectResumeExactSerial(t *testing.T) {
	pkts := genPackets(3000, 17)
	want := inProcessRows(t, pkts)

	st := prepare(t)
	var rc rowCollector
	run := st.Start(rc.sink, gsql.Options{})
	l := runFaultGauntlet(t, run, pkts)
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, rc.snapshot(), "serial under faults")
	assertFaultStats(t, l.RuntimeStats(), len(pkts))
}

// shardedSink feeds the sharded runtime from a listener. ParallelRun takes
// no heartbeats; the gauntlet sends none, so one arriving fails the pump.
type shardedSink struct{ *gsql.ParallelRun }

func (shardedSink) Heartbeat(gsql.Value) error {
	return errors.New("the sharded runtime takes no heartbeats")
}

// TestReconnectResumeExactParallel: the same gauntlet feeding the sharded
// runtime — the single pump goroutine satisfies its single-producer
// contract, and keyed grouping keeps rows bit-identical to serial.
func TestReconnectResumeExactParallel(t *testing.T) {
	pkts := genPackets(3000, 29)
	want := inProcessRows(t, pkts)

	st := prepare(t)
	var rc rowCollector
	pr, err := st.StartParallel(rc.sink, gsql.ParallelOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	l := runFaultGauntlet(t, shardedSink{pr}, pkts)
	if err := pr.Close(); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, rc.snapshot(), "parallel under faults")
	assertFaultStats(t, l.RuntimeStats(), len(pkts))
}

// TestKillAndRecover is the drain-to-checkpoint contract end to end: a
// listener is shut down mid-stream, its run checkpointed and its session
// table saved; a successor restores both on the same address while the
// client reconnects on its own; the combined output is bit-identical to an
// uninterrupted run — no lost window, no double-counted window.
func TestKillAndRecover(t *testing.T) {
	pkts := genPackets(6000, 41)
	want := inProcessRows(t, pkts)
	st := prepare(t)

	// Phase 1: first listener, killed mid-stream.
	var rc1 rowCollector
	run1 := st.Start(rc1.sink, gsql.Options{})
	l1, err := ingest.Listen("tcp", "127.0.0.1:0", ingest.Config{Sink: run1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr().String()

	d := ingest.Dial("tcp", addr, ingest.DialerConfig{
		BatchSize:  32,
		MinBackoff: time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
		AckTimeout: time.Second,
		Session:    0xc0ffee,
		Seed:       1,
		Logf:       t.Logf,
	})
	clientDone := make(chan error, 1)
	go func() {
		for _, p := range pkts {
			if err := d.Send(p); err != nil {
				clientDone <- err
				return
			}
		}
		clientDone <- d.Close()
	}()

	// Kill the first listener once it has applied a healthy prefix (but
	// long before the stream ends).
	deadline := time.Now().Add(10 * time.Second)
	for l1.RuntimeStats().FramesAccepted < 20 {
		if time.Now().After(deadline) {
			t.Fatal("first listener never reached 20 frames")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l1.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown 1: %v", err)
	}
	ckpt, err := run1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	sessions := l1.Sessions()
	// run1 is deliberately NOT closed: closing would emit the open bucket,
	// which the restored successor will emit when it actually completes.

	// Phase 2: successor on the same address, restored from the checkpoint
	// and the session table. The client is reconnect-looping the whole
	// time and resends everything unacknowledged.
	var rc2 rowCollector
	run2, err := st.Restore(ckpt, rc2.sink, gsql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := ingest.Listen("tcp", addr, ingest.Config{
		Sink:     run2,
		Sessions: sessions,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-clientDone:
		if err != nil {
			t.Fatalf("client: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("client did not finish against the restored listener")
	}
	if err := l2.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown 2: %v", err)
	}
	if err := run2.Close(); err != nil {
		t.Fatal(err)
	}

	got := append(rc1.snapshot(), rc2.snapshot()...)
	requireIdentical(t, want, got, "kill-and-recover")

	// A restored run's TuplesIn includes the tuples the checkpoint already
	// accounted for, so the successor's total must land exactly on the
	// trace length — any resent-but-already-applied frame that slipped
	// through dedup would overshoot it.
	rs1, rs2 := l1.RuntimeStats(), l2.RuntimeStats()
	if rs2.TuplesIn != uint64(len(pkts)) {
		t.Fatalf("successor accounts %d tuples, want %d (phase 1 applied %d)", rs2.TuplesIn, len(pkts), rs1.TuplesIn)
	}
	if rs2.Restores != 1 {
		t.Fatalf("successor run reports %d restores, want 1", rs2.Restores)
	}
}
