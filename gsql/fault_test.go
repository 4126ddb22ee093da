package gsql_test

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/internal/faultinject"
)

const faultQuery = `select tb, dstIP, count(*), sum(len), min(len), max(len)
  from TCP group by time/60 as tb, dstIP`

// window1Tuples builds n tuples that all land in time bucket 1
// (time in [60,120)) across a handful of groups.
func window1Tuples(n int) []gsql.Tuple {
	out := make([]gsql.Tuple, n)
	for i := range out {
		out[i] = pkt2(int64(60+i%60), int64(i%5), 80, int64(100+i%37))
	}
	return out
}

// requireNoGoroutineLeak polls until the goroutine count returns to its
// pre-test baseline (with slack for runtime background goroutines).
func requireNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardPanicFail: a panic inside a shard worker must not deadlock the
// drain barrier. The recovered panic surfaces as a typed *ShardPanicError
// from the window flush (here, Close), and every worker goroutine still
// exits.
func TestShardPanicFail(t *testing.T) {
	defer faultinject.Reset()
	e := parallelEngine(t)
	st, err := e.Prepare(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	var rows []gsql.Tuple
	pr, err := st.StartParallel(func(row gsql.Tuple) error { rows = append(rows, row); return nil },
		gsql.ParallelOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set("gsql.shard.step", faultinject.Fault{PanicAt: 5})
	var pushErr error
	for _, b := range toBatches(t, window1Tuples(50), 7) {
		if _, pushErr = pr.PushBatch(b); pushErr != nil {
			break
		}
	}
	closeErr := pr.Close()
	err = pushErr
	if err == nil {
		err = closeErr
	}
	var pe *gsql.ShardPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic did not surface as ShardPanicError: push=%v close=%v", pushErr, closeErr)
	}
	if pe.Shard < 0 || pe.Shard > 1 {
		t.Fatalf("bad shard index in error: %d", pe.Shard)
	}
	if len(rows) != 0 {
		t.Fatalf("a window with a panicked shard emitted %d rows", len(rows))
	}
	requireNoGoroutineLeak(t, before)
}

// TestLoadSheddingBlock: a shard that falls behind blocks the producer
// (backpressure) instead of losing data, so results are exactly the serial
// results even with slow shards. The tape is long enough to fill every
// shard's queue many times over.
func TestLoadSheddingBlock(t *testing.T) {
	defer faultinject.Reset()
	e := parallelEngine(t)
	st, err := e.Prepare(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	tuples := window1Tuples(8_000)
	want := serialRows(t, st, tuples, gsql.Options{})
	faultinject.Set("gsql.shard.step", faultinject.Fault{DelayEvery: 64, Delay: time.Millisecond})
	rows := parallelRows(t, st, tuples, 2, 512)
	requireIdentical(t, want, rows, "blocked backpressure")
}

// TestPushRejectsNonFinite: NaN and ±Inf floats are rejected at the ingest
// boundary of both runtimes with a typed error naming the column, and the
// poisoned tuple contributes nothing.
func TestPushRejectsNonFinite(t *testing.T) {
	e := parallelEngine(t)
	st, err := e.Prepare(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	bad := pkt2(70, 1, 80, 100)
	bad[1] = gsql.Float(math.NaN()) // ftime column

	run := st.Start(func(gsql.Tuple) error { return nil }, gsql.Options{})
	err = run.Push(bad)
	var nfe *gsql.NonFiniteValueError
	if !errors.As(err, &nfe) {
		t.Fatalf("serial Push accepted NaN: %v", err)
	}
	if nfe.Column != "ftime" {
		t.Fatalf("error names column %q, want ftime", nfe.Column)
	}

	var rows []gsql.Tuple
	pr, err := st.StartParallel(func(row gsql.Tuple) error { rows = append(rows, row); return nil },
		gsql.ParallelOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var tuples []gsql.Tuple
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := pkt2(70, 1, 80, 100)
		b[1] = gsql.Float(x)
		tuples = append(tuples, b)
	}
	if rej, err := pr.PushBatch(toBatches(t, tuples, len(tuples))[0]); rej != 3 || err != nil {
		t.Fatalf("parallel PushBatch of 3 non-finite rows: rejected %d, err %v", rej, err)
	}
	if err := pr.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("rejected rows were folded: %v", rows)
	}
}
