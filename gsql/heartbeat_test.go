package gsql

import "testing"

// TestHeartbeatClosesBuckets verifies GS-style heartbeats: when traffic
// pauses, a heartbeat with a newer timestamp closes and emits the previous
// time bucket without waiting for the next tuple.
func TestHeartbeatClosesBuckets(t *testing.T) {
	st, err := mkEngine(t).Prepare(`select tb, count(*) from TCP group by time/60 as tb`)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Tuple
	run := st.Start(func(r Tuple) error { rows = append(rows, r); return nil }, Options{})
	run.Push(pkt(10, 1, 80, 1))
	run.Push(pkt(20, 1, 80, 1))
	if err := run.Heartbeat(Int(30)); err != nil { // same bucket: no flush
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("heartbeat within the bucket flushed early: %v", rows)
	}
	if err := run.Heartbeat(Int(75)); err != nil { // next bucket: flush
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1].AsInt() != 2 {
		t.Fatalf("after heartbeat: %v", rows)
	}
	// A tuple arriving in the heartbeat's bucket aggregates normally.
	run.Push(pkt(80, 1, 80, 1))
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1][1].AsInt() != 1 {
		t.Fatalf("after Close: %v", rows)
	}
}

// TestHeartbeatBeforeAnyTuple sets the initial bucket so that earlier
// buckets are (correctly) treated as already closed.
func TestHeartbeatBeforeAnyTuple(t *testing.T) {
	st, err := mkEngine(t).Prepare(`select tb, count(*) from TCP group by time/60 as tb`)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Tuple
	run := st.Start(func(r Tuple) error { rows = append(rows, r); return nil }, Options{})
	if err := run.Heartbeat(Int(0)); err != nil {
		t.Fatal(err)
	}
	run.Push(pkt(10, 1, 80, 1))
	run.Push(pkt(61, 1, 80, 1))
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestHeartbeatNonTemporalNoOp checks heartbeats are harmless for queries
// without time buckets.
func TestHeartbeatNonTemporalNoOp(t *testing.T) {
	st, err := mkEngine(t).Prepare(`select dstIP, count(*) from TCP group by dstIP`)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Tuple
	run := st.Start(func(r Tuple) error { rows = append(rows, r); return nil }, Options{})
	run.Push(pkt(1, 1, 80, 1))
	if err := run.Heartbeat(Int(100)); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("non-temporal heartbeat flushed: %v", rows)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestLateTupleReopensBucket documents the engine's lateness policy: a
// tuple arriving after its bucket closed is aggregated under its own
// (old) bucket key and emitted at the next flush — late data is never
// silently dropped, it surfaces as a supplementary row.
func TestLateTupleReopensBucket(t *testing.T) {
	st, err := mkEngine(t).Prepare(`select tb, count(*) from TCP group by time/60 as tb`)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Tuple
	run := st.Start(func(r Tuple) error { rows = append(rows, r); return nil }, Options{})
	run.Push(pkt(10, 1, 80, 1))
	run.Push(pkt(70, 1, 80, 1)) // closes bucket 0
	run.Push(pkt(20, 1, 80, 1)) // LATE: belongs to bucket 0
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	// Three rows total: bucket 0 (on close), then bucket 0 again (the late
	// tuple) and bucket 1 at Close, in key order.
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].AsInt() != 0 || rows[0][1].AsInt() != 1 {
		t.Errorf("first flush: %v", rows[0])
	}
	if rows[1][0].AsInt() != 0 || rows[1][1].AsInt() != 1 {
		t.Errorf("late supplementary row: %v", rows[1])
	}
	if rows[2][0].AsInt() != 1 || rows[2][1].AsInt() != 1 {
		t.Errorf("final bucket: %v", rows[2])
	}
}

// TestHeartbeatWithScaledBucketExpr exercises temporalOf through an
// arithmetic bucket expression.
func TestHeartbeatWithScaledBucketExpr(t *testing.T) {
	st, err := mkEngine(t).Prepare(`select tb, count(*) from TCP group by (time+30)/10 as tb`)
	if err != nil {
		t.Fatal(err)
	}
	if st.p.temporalIdx < 0 {
		t.Fatal("(time+30)/10 must be temporal")
	}
	var rows []Tuple
	run := st.Start(func(r Tuple) error { rows = append(rows, r); return nil }, Options{})
	run.Push(pkt(5, 1, 80, 1))                     // bucket (5+30)/10 = 3
	if err := run.Heartbeat(Int(15)); err != nil { // bucket 4: flush
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestHeartbeatClosesBucketsOfEitherTimeType: a heartbeat closes the open
// bucket of a query grouping on the float time column as it does one on the
// int column, whichever type the heartbeat's timestamp has (the listener
// sends ints), on a Run and on a MultiRun member alike: the timestamp is
// converted to the temporal column's type before the bucket expression
// sees it.
func TestHeartbeatClosesBucketsOfEitherTimeType(t *testing.T) {
	e := mkEngine(t)
	for _, by := range []string{"ftime/10", "ftime", "time/10", "time"} {
		q := "select tb, count(*) from TCP group by " + by + " as tb"
		st, err := e.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, ts := range []Value{Int(100), Float(100.5)} {
			check := func(rt string, rows []Tuple, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s %q heartbeat %v: %v", rt, q, ts, err)
				}
				if len(rows) != 1 || rows[0][1] != Int(1) {
					t.Fatalf("%s %q heartbeat %v: rows %v, want the first bucket's", rt, q, ts, rows)
				}
			}
			var rows []Tuple
			run := st.Start(func(r Tuple) error { rows = append(rows, r); return nil }, Options{})
			if err := run.Push(pkt(5, 1, 80, 1)); err != nil {
				t.Fatal(err)
			}
			check("Run", rows, run.Heartbeat(ts))

			m, err := NewMultiRun(e, "TCP", Options{})
			if err != nil {
				t.Fatal(err)
			}
			var mrows []Tuple
			if _, err := m.Attach(q, 0, func(r Tuple) error { mrows = append(mrows, r); return nil }); err != nil {
				t.Fatal(err)
			}
			if err := m.Push(pkt(5, 1, 80, 1)); err != nil {
				t.Fatal(err)
			}
			check("MultiRun", mrows, m.Heartbeat(ts))
		}
	}
}
