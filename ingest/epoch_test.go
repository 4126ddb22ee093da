package ingest_test

import (
	"testing"
	"time"

	"forwarddecay/decay"
	"forwarddecay/gsql"
	"forwarddecay/ingest"
)

// TestHeartbeatDrivesEpochRollover: the epoch supervisor must advance on
// network heartbeats, not just data — a stream that goes quiet for days
// still needs its landmark rolled before weights overflow. A client sends a
// short burst of early packets, then only heartbeat frames with far-future
// stream times; each heartbeat that crosses a period boundary must roll the
// run's landmark.
func TestHeartbeatDrivesEpochRollover(t *testing.T) {
	model := decay.NewForward(decay.NewExp(0.01), 0)
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		t.Fatal(err)
	}
	st, err := e.Prepare(`select tb, count(*), sum(len) from TCP group by time/10 as tb`)
	if err != nil {
		t.Fatal(err)
	}
	var rc rowCollector
	run := st.Start(rc.sink, gsql.Options{
		Epoch: &gsql.EpochConfig{
			Model: model,
			Every: 100,
			Time:  func(tp gsql.Tuple) (float64, bool) { return tp[1].AsFloat(), true },
		},
	})
	l, err := ingest.Listen("tcp", "127.0.0.1:0", ingest.Config{Sink: run})
	if err != nil {
		t.Fatal(err)
	}

	// A few real packets early in stream time (well inside the first
	// period), then pure heartbeats far past several period boundaries.
	pkts := genPackets(50, 11)
	d := ingest.Dial("tcp", l.Addr().String(), ingest.DialerConfig{Session: 21})
	for _, p := range pkts {
		if err := d.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, hb := range []float64{250, 520, 990} {
		if err := d.Heartbeat(hb); err != nil {
			t.Fatal(err)
		}
	}
	// Heartbeats are not acknowledged, and Shutdown closes connections
	// without reading what is still in flight on them. A trailing data frame
	// is the fence: Close waits for its ack, and the listener acks it only
	// after applying everything that preceded it on the connection. (Its
	// early timestamp neither rolls the landmark nor trips the sentinel.)
	if err := d.Send(pkts[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	stats := l.RuntimeStats()
	// 250, 520 and 990 each land in a new 100-unit period: three rolls.
	if stats.EpochRollovers != 3 {
		t.Fatalf("EpochRollovers = %d after heartbeats {250,520,990}, want 3", stats.EpochRollovers)
	}
	if stats.SentinelTrips != 0 {
		t.Fatalf("SentinelTrips = %d, want 0", stats.SentinelTrips)
	}
	if len(rc.snapshot()) == 0 {
		t.Fatal("no rows emitted; heartbeats did not close buckets")
	}
}
