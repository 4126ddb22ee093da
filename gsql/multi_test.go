package gsql_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/gsql"
	"forwarddecay/udaf"
)

// The differential suite: a MultiRun over N attached queries must be
// bit-for-bit equivalent to N independent standalone runs fed the same
// tuples — same emitted rows, same order, same float payloads, same
// checkpoint bytes. The fixture queries deliberately overlap (shared WHERE
// clauses, shared group expressions, shared aggregate arguments, one exact
// duplicate) so the predicate classes, shared key tables and statement
// dedup are actually exercised, not just bypassed.

var multiQueries = []string{
	`select tb, dstIP, count(*), sum(len) from TCP where len > 200 group by time/60 as tb, dstIP`,
	`select tb, dstIP, avg(float(len)), max(len) from TCP where len > 200 group by time/60 as tb, dstIP`,
	`select tb, count(*), sum(len) from TCP group by time/60 as tb`,
	`select tb, destPort, sum(len), min(len) from TCP where proto = 6 group by time/60 as tb, destPort`,
	`select tb, dstIP, count(*), sum(len) from TCP where len > 200 group by time/60 as tb, dstIP`, // dup of [0]
	`select tb, dstIP, count(*) from TCP where len > 200 and dstIP % 2 = 0 group by time/60 as tb, dstIP`,
}

// multiAttach attaches every fixture query to a fresh MultiRun, returning
// the handles and per-query row collectors.
func multiAttach(t *testing.T, e *gsql.Engine, opts gsql.Options, queries []string) (*gsql.MultiRun, []*gsql.MultiHandle, []*[]gsql.Tuple) {
	t.Helper()
	m, err := gsql.NewMultiRun(e, "TCP", opts)
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*gsql.MultiHandle, len(queries))
	rows := make([]*[]gsql.Tuple, len(queries))
	for i, q := range queries {
		got := &[]gsql.Tuple{}
		h, err := m.Attach(q, 0, func(r gsql.Tuple) error { *got = append(*got, r); return nil })
		if err != nil {
			t.Fatalf("attach %q: %v", q, err)
		}
		handles[i], rows[i] = h, got
	}
	return m, handles, rows
}

// standaloneRun pushes tuples through one independent serial run and
// returns its rows and final checkpoint.
func standaloneRun(t *testing.T, e *gsql.Engine, q string, tuples []gsql.Tuple, opts gsql.Options) ([]gsql.Tuple, []byte) {
	t.Helper()
	st, err := e.Prepare(q)
	if err != nil {
		t.Fatalf("prepare %q: %v", q, err)
	}
	var rows []gsql.Tuple
	run := st.Start(func(r gsql.Tuple) error { rows = append(rows, r); return nil }, opts)
	for _, tp := range tuples {
		if err := run.Push(tp); err != nil {
			t.Fatalf("standalone push: %v", err)
		}
	}
	ckpt, err := run.Checkpoint()
	if err != nil {
		t.Fatalf("standalone checkpoint: %v", err)
	}
	if err := run.Close(); err != nil {
		t.Fatalf("standalone close: %v", err)
	}
	return rows, ckpt
}

func TestMultiDifferentialScalar(t *testing.T) {
	e := parallelEngine(t)
	tuples := trace(25_000, 0, 31)

	m, handles, rows := multiAttach(t, e, gsql.Options{}, multiQueries)
	for _, tp := range tuples {
		if err := m.Push(tp); err != nil {
			t.Fatalf("multi push: %v", err)
		}
	}
	ckpts := make([][]byte, len(handles))
	for i, h := range handles {
		var err error
		if ckpts[i], err = h.Checkpoint(); err != nil {
			t.Fatalf("multi checkpoint %d: %v", i, err)
		}
	}
	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}

	for i, q := range multiQueries {
		wantRows, wantCkpt := standaloneRun(t, e, q, tuples, gsql.Options{})
		if len(wantRows) == 0 {
			t.Fatalf("query %d emitted no rows; fixture too small", i)
		}
		requireIdentical(t, wantRows, *rows[i], fmt.Sprintf("query %d scalar", i))
		if !bytes.Equal(wantCkpt, ckpts[i]) {
			t.Errorf("query %d: multi checkpoint differs from standalone", i)
		}
	}
}

func TestMultiDifferentialBatch(t *testing.T) {
	e := parallelEngine(t)
	tuples := trace(20_000, 0, 37)
	// A non-finite row exercises the shared finite scan's rejected
	// accounting through both runtimes.
	bad := pkt2(600, 1, 80, 50)
	bad[1] = gsql.Float(nan())
	tuples = append(tuples[:5000:5000], append([]gsql.Tuple{bad}, tuples[5000:]...)...)

	for _, size := range []int{1, 7, 256} {
		batches := toBatches(t, tuples, size)

		m, handles, rows := multiAttach(t, e, gsql.Options{}, multiQueries)
		multiRejected := 0
		for _, b := range batches {
			rej, err := m.PushBatch(b)
			if err != nil {
				t.Fatalf("multi pushbatch: %v", err)
			}
			multiRejected += rej
		}
		ckpts := make([][]byte, len(handles))
		for i, h := range handles {
			var err error
			if ckpts[i], err = h.Checkpoint(); err != nil {
				t.Fatalf("multi checkpoint %d: %v", i, err)
			}
		}
		if err := m.CloseAll(); err != nil {
			t.Fatal(err)
		}
		if multiRejected != len(batches)*0+1 {
			t.Errorf("size %d: multi rejected %d rows, want 1", size, multiRejected)
		}

		for i, q := range multiQueries {
			st, err := e.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			var want []gsql.Tuple
			run := st.Start(func(r gsql.Tuple) error { want = append(want, r); return nil }, gsql.Options{})
			wantRejected := 0
			for _, b := range toBatches(t, tuples, size) {
				rej, err := run.PushBatch(b)
				if err != nil {
					t.Fatalf("standalone pushbatch: %v", err)
				}
				wantRejected += rej
			}
			wantCkpt, err := run.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if err := run.Close(); err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, want, *rows[i], fmt.Sprintf("query %d batch size %d", i, size))
			if wantRejected != 1 {
				t.Errorf("query %d size %d: standalone rejected %d, want 1", i, size, wantRejected)
			}
			if !bytes.Equal(wantCkpt, ckpts[i]) {
				t.Errorf("query %d size %d: multi checkpoint differs from standalone", i, size)
			}
		}
	}
}

// TestMultiDifferentialStringKeyExp: the exponential-decay weight of the
// paper's Fig. 2 query, exp(float(time%60)/10), under string, bool and float
// group keys. Push (one-row frames) and PushBatch at every batch size
// must match standalone scalar runs — rows and checkpoint bytes.
func TestMultiDifferentialStringKeyExp(t *testing.T) {
	e := flowEngine(t)
	tuples := flowTuples(12_000, 41)
	queries := []string{
		`select tb, host, count(*), sum(float(len)*exp(float(time%60)/10)) from FLOW group by time/1 as tb, host`,
		`select tb, host, up, max(exp(float(time%60)/10)), sum(len) from FLOW where len > 200 group by time/1 as tb, host, up`,
		`select tb, floor(x) as fx, count(*), avg(exp(x / 1000)) from FLOW where x < 700 group by time/1 as tb, floor(x)`,
		`select tb, host, count(*), sum(float(len)*exp(float(time%60)/10)) from FLOW group by time/1 as tb, host`, // dup of [0]
	}
	want := make([][]gsql.Tuple, len(queries))
	wantCkpt := make([][]byte, len(queries))
	for i, q := range queries {
		want[i], wantCkpt[i] = flowStandalone(t, e, q, tuples)
		if len(want[i]) == 0 {
			t.Fatalf("query %d emitted no rows; fixture too small", i)
		}
	}
	for _, size := range []int{0, 1, 7, 256} { // 0: scalar Push
		m, err := gsql.NewMultiRun(e, "FLOW", gsql.Options{})
		if err != nil {
			t.Fatal(err)
		}
		handles := make([]*gsql.MultiHandle, len(queries))
		rows := make([][]gsql.Tuple, len(queries))
		for i, q := range queries {
			if handles[i], err = m.Attach(q, 0, func(r gsql.Tuple) error { rows[i] = append(rows[i], r); return nil }); err != nil {
				t.Fatalf("attach %q: %v", q, err)
			}
		}
		if size == 0 {
			for _, tp := range tuples {
				var nfe *gsql.NonFiniteValueError
				if err := m.Push(tp); err != nil && !errors.As(err, &nfe) {
					t.Fatal(err)
				}
			}
		} else {
			for _, b := range flowBatches(t, tuples, size) {
				if _, err := m.PushBatch(b); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, h := range handles {
			ckpt, err := h.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ckpt, wantCkpt[i]) {
				t.Errorf("query %d, batch %d: checkpoint differs from the standalone scalar run", i, size)
			}
		}
		if err := m.CloseAll(); err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			requireSameBits(t, want[i], rows[i], fmt.Sprintf("query %d, batch %d", i, size))
		}
	}
}

// TestMultiBatchMatchesScalar: the shared pass is frame-size invariant.
// Push (one-row frames) and PushBatch at 7, 64 and 4096 rows give every
// member the same rows and checkpoint bytes.
func TestMultiBatchMatchesScalar(t *testing.T) {
	e := parallelEngine(t)
	tuples := trace(15_000, 0, 43)

	var wantRows []*[]gsql.Tuple
	var wantCkpts [][]byte
	for _, size := range []int{1, 7, 64, 4096} {
		m, handles, rows := multiAttach(t, e, gsql.Options{}, multiQueries)
		if size == 1 {
			for _, tp := range tuples {
				if err := m.Push(tp); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for _, b := range toBatches(t, tuples, size) {
				if _, err := m.PushBatch(b); err != nil {
					t.Fatal(err)
				}
			}
		}
		ckpts := make([][]byte, len(handles))
		for i, h := range handles {
			var err error
			if ckpts[i], err = h.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.CloseAll(); err != nil {
			t.Fatal(err)
		}
		if wantRows == nil {
			wantRows, wantCkpts = rows, ckpts
			continue
		}
		for i := range multiQueries {
			requireIdentical(t, *wantRows[i], *rows[i], fmt.Sprintf("query %d, frames of %d vs 1", i, size))
			if !bytes.Equal(wantCkpts[i], ckpts[i]) {
				t.Errorf("query %d: checkpoint with frames of %d differs from one-row frames", i, size)
			}
		}
	}
}

// TestMultiCheckpointRestoreMidStream: kill-and-recover. Checkpoint every
// attached query mid-stream, rebuild a fresh MultiRun from the checkpoints,
// finish the stream, and require bit-identical final state against
// standalone runs recovered the same way.
func TestMultiCheckpointRestoreMidStream(t *testing.T) {
	e := parallelEngine(t)
	tuples := trace(16_000, 0, 47)
	half := len(tuples) / 2

	m1, handles, _ := multiAttach(t, e, gsql.Options{}, multiQueries)
	for _, tp := range tuples[:half] {
		if err := m1.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	ckpts := make([][]byte, len(handles))
	for i, h := range handles {
		var err error
		if ckpts[i], err = h.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	m2, err := gsql.NewMultiRun(e, "TCP", gsql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	restored := make([]*gsql.MultiHandle, len(multiQueries))
	rows := make([]*[]gsql.Tuple, len(multiQueries))
	for i, q := range multiQueries {
		got := &[]gsql.Tuple{}
		h, err := m2.Restore(q, 0, ckpts[i], func(r gsql.Tuple) error { *got = append(*got, r); return nil })
		if err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		restored[i], rows[i] = h, got
	}
	for _, tp := range tuples[half:] {
		if err := m2.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	finals := make([][]byte, len(restored))
	for i, h := range restored {
		if finals[i], err = h.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m2.CloseAll(); err != nil {
		t.Fatal(err)
	}

	for i, q := range multiQueries {
		st, err := e.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		mid := standaloneCkptAfter(t, st, tuples[:half])
		run, err := st.Restore(mid, func(gsql.Tuple) error { return nil }, gsql.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var want []gsql.Tuple
		run2, err := st.Restore(mid, func(r gsql.Tuple) error { want = append(want, r); return nil }, gsql.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_ = run
		for _, tp := range tuples[half:] {
			if err := run2.Push(tp); err != nil {
				t.Fatal(err)
			}
		}
		wantCkpt, err := run2.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if err := run2.Close(); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, want, *rows[i], fmt.Sprintf("query %d post-restore", i))
		if !bytes.Equal(wantCkpt, finals[i]) {
			t.Errorf("query %d: final checkpoint differs after recovery", i)
		}
	}
}

func standaloneCkptAfter(t *testing.T, st *gsql.Statement, tuples []gsql.Tuple) []byte {
	t.Helper()
	run := st.Start(func(gsql.Tuple) error { return nil }, gsql.Options{})
	for _, tp := range tuples {
		if err := run.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, err := run.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return ckpt
}

// multiEpochOpts builds an exponential-decay epoch supervisor over the
// ftime column, rolling every 100 stream seconds.
func multiEpochOpts() (gsql.Options, decay.Forward) {
	m := decay.NewForward(decay.NewExp(0.05), 0)
	opts := gsql.Options{Epoch: &gsql.EpochConfig{
		Model: m,
		Every: 100,
		Time:  func(t gsql.Tuple) (float64, bool) { return t[1].AsFloat(), true },
	}}
	return opts, m
}

var multiEpochQueries = []string{
	`select tb, dstIP, fdcount(ftime), fdsum(ftime, float(len)) from TCP group by time/60 as tb, dstIP`,
	`select tb, fdcount(ftime) from TCP where len > 200 group by time/60 as tb`,
	`select tb, dstIP, fdavg(ftime, float(len)) from TCP group by time/60 as tb, dstIP`,
}

// TestMultiEpochRollDifferential: the shared epoch supervisor must roll
// every member at the same tuple of the sequence a standalone supervisor
// would — checkpoints stamp the epoch counter and landmark, so byte
// equality proves it. Exercised over the scalar and batch paths, including
// a mid-stream kill-and-recover across a rolled landmark.
func TestMultiEpochRollDifferential(t *testing.T) {
	opts, model := multiEpochOpts()
	e := parallelEngine(t)
	if err := udaf.RegisterAll(e, udaf.Config{Decay: model}); err != nil {
		t.Fatal(err)
	}
	tuples := trace(20_000, 0, 53)

	t.Run("scalar", func(t *testing.T) {
		m, handles, rows := multiAttach(t, e, opts, multiEpochQueries)
		for _, tp := range tuples {
			if err := m.Push(tp); err != nil {
				t.Fatal(err)
			}
		}
		ckpts := make([][]byte, len(handles))
		for i, h := range handles {
			var err error
			if ckpts[i], err = h.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.CloseAll(); err != nil {
			t.Fatal(err)
		}
		for i, q := range multiEpochQueries {
			wantRows, wantCkpt := standaloneRun(t, e, q, tuples, opts)
			requireIdentical(t, wantRows, *rows[i], fmt.Sprintf("epoch query %d", i))
			if !bytes.Equal(wantCkpt, ckpts[i]) {
				t.Errorf("epoch query %d: checkpoint differs (landmark or epoch drift)", i)
			}
		}
	})

	t.Run("batch", func(t *testing.T) {
		m, handles, rows := multiAttach(t, e, opts, multiEpochQueries)
		for _, b := range toBatches(t, tuples, 333) {
			if _, err := m.PushBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		ckpts := make([][]byte, len(handles))
		for i, h := range handles {
			var err error
			if ckpts[i], err = h.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.CloseAll(); err != nil {
			t.Fatal(err)
		}
		for i, q := range multiEpochQueries {
			st, err := e.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			var want []gsql.Tuple
			run := st.Start(func(r gsql.Tuple) error { want = append(want, r); return nil }, opts)
			for _, b := range toBatches(t, tuples, 333) {
				if _, err := run.PushBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			wantCkpt, err := run.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if err := run.Close(); err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, want, *rows[i], fmt.Sprintf("epoch batch query %d", i))
			if !bytes.Equal(wantCkpt, ckpts[i]) {
				t.Errorf("epoch batch query %d: checkpoint differs", i)
			}
		}
	})

	t.Run("kill-and-recover", func(t *testing.T) {
		half := len(tuples) / 2
		m1, handles, _ := multiAttach(t, e, opts, multiEpochQueries)
		for _, tp := range tuples[:half] {
			if err := m1.Push(tp); err != nil {
				t.Fatal(err)
			}
		}
		ckpts := make([][]byte, len(handles))
		for i, h := range handles {
			var err error
			if ckpts[i], err = h.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}

		m2, err := gsql.NewMultiRun(e, "TCP", opts)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]*[]gsql.Tuple, len(multiEpochQueries))
		restored := make([]*gsql.MultiHandle, len(multiEpochQueries))
		for i, q := range multiEpochQueries {
			got := &[]gsql.Tuple{}
			h, err := m2.Restore(q, 0, ckpts[i], func(r gsql.Tuple) error { *got = append(*got, r); return nil })
			if err != nil {
				t.Fatalf("epoch restore %d: %v", i, err)
			}
			restored[i], rows[i] = h, got
		}
		for _, tp := range tuples[half:] {
			if err := m2.Push(tp); err != nil {
				t.Fatal(err)
			}
		}
		for i, q := range multiEpochQueries {
			final, err := restored[i].Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			st, err := e.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			var want []gsql.Tuple
			run, err := st.Restore(ckpts[i], func(r gsql.Tuple) error { want = append(want, r); return nil }, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, tp := range tuples[half:] {
				if err := run.Push(tp); err != nil {
					t.Fatal(err)
				}
			}
			wantCkpt, err := run.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, want, *rows[i], fmt.Sprintf("epoch recover query %d", i))
			if !bytes.Equal(wantCkpt, final) {
				t.Errorf("epoch recover query %d: final checkpoint differs", i)
			}
		}
	})
}

// TestMultiShardedRefused: every member is a serial run, so a non-zero shard
// count is refused with the typed error before parse or admission touch the
// catalog, and the serial members riding the feed still match standalone
// runs bit for bit.
func TestMultiShardedRefused(t *testing.T) {
	e := parallelEngine(t)
	tuples := trace(20_000, 0, 59)
	serialQ := multiQueries[0]
	shardedQ := `select tb, dstIP, count(*), sum(len), avg(float(len)) from TCP where len > 200 group by time/60 as tb, dstIP`

	for _, mode := range []string{"scalar", "batch"} {
		t.Run(mode, func(t *testing.T) {
			m, err := gsql.NewMultiRun(e, "TCP", gsql.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var serialGot, lateGot []gsql.Tuple
			hs, err := m.Attach(serialQ, 0, func(r gsql.Tuple) error { serialGot = append(serialGot, r); return nil })
			if err != nil {
				t.Fatal(err)
			}
			ckpt, err := hs.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			queries, used, stats := m.Queries(), m.AdmitUsed(), m.MultiStats()
			refused := func(what string, err error) {
				t.Helper()
				var sue *gsql.ShardedUnsupportedError
				if !errors.As(err, &sue) || sue.Shards != 2 {
					t.Fatalf("%s with shards=2: error = %v, want *ShardedUnsupportedError{Shards: 2}", what, err)
				}
				if m.Queries() != queries || m.AdmitUsed() != used || m.MultiStats() != stats {
					t.Fatalf("refused %s changed the catalog: %d queries, %v admitted, %+v (was %d, %v, %+v)",
						what, m.Queries(), m.AdmitUsed(), m.MultiStats(), queries, used, stats)
				}
			}
			nop := func(gsql.Tuple) error { return nil }
			_, err = m.Attach(shardedQ, 2, nop)
			refused("Attach", err)
			_, err = m.Restore(serialQ, 2, ckpt, nop)
			refused("Restore", err)
			// A text that does not even parse is refused for its shard count
			// first: nothing is looked at before the check.
			_, err = m.Attach("select from", 2, nop)
			refused("Attach of an unparsable text", err)

			// The refused text attaches fine as a serial member.
			if _, err := m.Attach(shardedQ, 0, func(r gsql.Tuple) error { lateGot = append(lateGot, r); return nil }); err != nil {
				t.Fatal(err)
			}
			if mode == "scalar" {
				for _, tp := range tuples {
					if err := m.Push(tp); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				for _, b := range toBatches(t, tuples, 256) {
					if _, err := m.PushBatch(b); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := m.CloseAll(); err != nil {
				t.Fatal(err)
			}
			wantSerial, _ := standaloneRun(t, e, serialQ, tuples, gsql.Options{})
			requireIdentical(t, wantSerial, serialGot, "resident member")
			wantLate, _ := standaloneRun(t, e, shardedQ, tuples, gsql.Options{})
			requireIdentical(t, wantLate, lateGot, "member attached after the refusals")
		})
	}
}

// TestMultiDedupAndStats: identical texts share one compiled plan but keep
// independent runs, and the sharing scoreboard reflects it.
func TestMultiDedupAndStats(t *testing.T) {
	e := parallelEngine(t)
	tuples := trace(5_000, 0, 61)

	m, handles, rows := multiAttach(t, e, gsql.Options{}, multiQueries)
	s := m.MultiStats()
	if s.Queries != len(multiQueries) {
		t.Errorf("Queries = %d, want %d", s.Queries, len(multiQueries))
	}
	// multiQueries holds one exact duplicate pair.
	if s.DistinctTexts != len(multiQueries)-1 {
		t.Errorf("DistinctTexts = %d, want %d", s.DistinctTexts, len(multiQueries)-1)
	}
	// Three distinct WHERE clauses plus the unfiltered class.
	if s.Classes != 4 {
		t.Errorf("Classes = %d, want 4", s.Classes)
	}

	for _, tp := range tuples {
		if err := m.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, *rows[0], *rows[4], "duplicate attaches")

	s = m.MultiStats()
	if s.Tuples != uint64(len(tuples)) {
		t.Errorf("Tuples = %d, want %d", s.Tuples, len(tuples))
	}

	// Detaching one duplicate keeps the shared plan alive; detaching the
	// second drops it.
	handles[4].Detach()
	if s := m.MultiStats(); s.Queries != len(multiQueries)-1 || s.DistinctTexts != len(multiQueries)-1 {
		t.Errorf("after first detach: Queries=%d DistinctTexts=%d", s.Queries, s.DistinctTexts)
	}
	handles[0].Detach()
	if s := m.MultiStats(); s.DistinctTexts != len(multiQueries)-2 {
		t.Errorf("after both detaches: DistinctTexts = %d, want %d", s.DistinctTexts, len(multiQueries)-2)
	}
	// The runtime keeps running for the remaining members.
	if err := m.Push(pkt2(7000, 1, 80, 500)); err != nil {
		t.Fatalf("push after detach: %v", err)
	}
}

// TestMultiHeartbeat: a heartbeat fans one bucket advance to every member.
func TestMultiHeartbeat(t *testing.T) {
	e := parallelEngine(t)
	m, _, rows := multiAttach(t, e, gsql.Options{}, multiQueries[:3])
	for _, tp := range []gsql.Tuple{pkt2(10, 1, 80, 300), pkt2(20, 2, 80, 100)} {
		if err := m.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Heartbeat(gsql.Int(130)); err != nil {
		t.Fatal(err)
	}
	for i := range multiQueries[:3] {
		if len(*rows[i]) == 0 {
			t.Errorf("query %d: heartbeat closed no bucket", i)
		}
	}
	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiAttachErrors: plan failures surface at Attach and leave the
// runtime and its catalogs unpoisoned.
func TestMultiAttachErrors(t *testing.T) {
	e := parallelEngine(t)
	m, err := gsql.NewMultiRun(e, "TCP", gsql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		`select nonsense from`,
		`select tb, count(*) from UDP group by time/60 as tb`,
		`select tb, count(*) from TCP where nosuchcol > 3 group by time/60 as tb`,
	} {
		if _, err := m.Attach(bad, 0, func(gsql.Tuple) error { return nil }); err == nil {
			t.Errorf("attach %q succeeded, want error", bad)
		}
	}
	if s := m.MultiStats(); s.Queries != 0 || s.DistinctTexts != 0 {
		t.Errorf("failed attaches leaked catalog state: %+v", s)
	}
	// Restore with a checkpoint from a different query must fail the
	// fingerprint check.
	st, err := e.Prepare(multiQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	ck, err := st.Start(func(gsql.Tuple) error { return nil }, gsql.Options{}).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Restore(multiQueries[2], 0, ck, func(gsql.Tuple) error { return nil }); err == nil {
		t.Error("restore with a foreign checkpoint succeeded, want fingerprint error")
	}
}

func nan() float64 {
	f := 0.0
	return f / f
}
