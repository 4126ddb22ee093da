package gsql_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"forwarddecay/gsql"
)

// Planted-failure differential suite: rows that fail in WHERE, in a group
// key or in a slot-1 aggregate argument, folded through Run.Push,
// Run.PushBatch and a two-member MultiRun, against the closure fold
// (gsql.OraclePush). A failed row must cost exactly what it costs there:
// the same error at the same row, after the same effects — a bucket it
// closes, a group it births, and for an argument failure the steps of the
// slots before it.

// plantedQueries fail, in order: in WHERE (a boxed string-to-int compare,
// evaluated only where len = 100), in a group key (len = 100 divides by
// zero), and in slot 1's argument — once where ln(x) fails on a negative x,
// once where both ln(x) and its right operand can fail. Each has a sibling
// with the same WHERE and key list, which shares its key table in a
// MultiRun.
var plantedQueries = []struct{ name, query, sibling string }{
	{"where",
		"select tb, host, count(*), sum(len) from FLOW where (len = 100 and host > len) or len > 0 group by time/1 as tb, host",
		"select tb, host, max(x) from FLOW where (len = 100 and host > len) or len > 0 group by time/1 as tb, host"},
	{"key",
		"select tb, host, k, count(*), sum(len) from FLOW group by time/1 as tb, host, 1000 / (len - 100) > 0 as k",
		"select tb, host, k, max(x) from FLOW group by time/1 as tb, host, 1000 / (len - 100) > 0 as k"},
	{"arg",
		"select tb, host, sum(len), sum(ln(x)) from FLOW group by time/1 as tb, host",
		"select tb, host, count(*), max(len) from FLOW group by time/1 as tb, host"},
	{"operands",
		"select tb, host, count(*), sum(ln(x) + 1000 / (len - 100)) from FLOW group by time/1 as tb, host",
		"select tb, host, count(*), max(len) from FLOW group by time/1 as tb, host"},
}

// plantedTape is a FLOW tape of 500 rows, a bucket every 40, where len is
// never 100 and x is positive but at the planted rows: several per frame
// of 64 — on the first row of a bucket, on a row that births its group, a
// right operand's failure on the row before its left operand's, both on one
// row — and two non-finite rows. With every, each row fails (len = 100 and
// x < 0).
func plantedTape(every bool) []gsql.Tuple {
	tape := make([]gsql.Tuple, 500)
	for r := range tape {
		tape[r] = gsql.Tuple{gsql.Int(int64(r / 40)), gsql.Float(float64(r) / 40),
			gsql.Str(fmt.Sprintf("h%d", r*7%5)), gsql.Bool(r%3 == 0),
			gsql.Int(int64(101 + r*37%900)), gsql.Float(float64(1 + r%17))}
		if every {
			tape[r][4], tape[r][5] = gsql.Int(100), gsql.Float(-1)
		}
	}
	if every {
		return tape
	}
	for _, r := range []int{3, 40, 41, 77, 120, 200, 333, 399, 400, 479} {
		tape[r][4] = gsql.Int(100)
	}
	for _, r := range []int{5, 80, 81, 120, 130, 201, 256, 440, 499} {
		tape[r][5] = gsql.Float(-2.5)
	}
	tape[130][2], tape[131][2] = gsql.Str("born"), gsql.Str("born")
	tape[7][5], tape[260][5] = gsql.Float(math.NaN()), gsql.Float(math.Inf(1))
	return tape
}

// plantedOutcome is what a run shows after a tape: its rows, checkpoint,
// runtime counters, rejected rows and every failed row with its error.
type plantedOutcome struct {
	rows     []gsql.Tuple
	ckpt     []byte
	stats    gsql.RuntimeStats
	rejected int
	fails    []string
}

// finishPlanted checkpoints and closes a run into o.
func finishPlanted(t *testing.T, run *gsql.Run, o *plantedOutcome) {
	t.Helper()
	var err error
	if o.ckpt, err = run.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	o.stats = run.RuntimeStats()
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
}

// plantedOracle folds the tape through the closure fold, going on past each
// failed row.
func plantedOracle(t *testing.T, st *gsql.Statement, tape []gsql.Tuple) *plantedOutcome {
	t.Helper()
	o := &plantedOutcome{}
	run := st.Start(func(r gsql.Tuple) error { o.rows = append(o.rows, r); return nil }, gsql.Options{})
	var nfe *gsql.NonFiniteValueError
	for r, tp := range tape {
		switch err := gsql.OraclePush(run, tp); {
		case errors.As(err, &nfe):
			o.rejected++
		case err != nil:
			o.fails = append(o.fails, fmt.Sprintf("%d: %v", r, err))
		}
	}
	finishPlanted(t, run, o)
	return o
}

// plantedStandalone folds the tape through Run.Push (frame 1) or
// Run.PushBatch in frames of the given size. A PushBatch that fails stops
// at the failed row, which its tuple count names; the next frame starts at
// the row after it.
func plantedStandalone(t *testing.T, st *gsql.Statement, tape []gsql.Tuple, frame int) *plantedOutcome {
	t.Helper()
	o := &plantedOutcome{}
	run := st.Start(func(r gsql.Tuple) error { o.rows = append(o.rows, r); return nil }, gsql.Options{})
	var nfe *gsql.NonFiniteValueError
	for pos := 0; pos < len(tape); {
		if frame == 1 {
			switch err := run.Push(tape[pos]); {
			case errors.As(err, &nfe):
				o.rejected++
			case err != nil:
				o.fails = append(o.fails, fmt.Sprintf("%d: %v", pos, err))
			}
			pos++
			continue
		}
		end := min(pos+frame, len(tape))
		before, _ := run.Stats()
		rej, err := run.PushBatch(schemaBatches(t, flowSchema(), tape[pos:end], frame)[0])
		o.rejected += rej
		if err == nil {
			pos = end
			continue
		}
		after, _ := run.Stats()
		row := pos + int(after-before) - 1
		o.fails = append(o.fails, fmt.Sprintf("%d: %v", row, err))
		pos = row + 1
	}
	finishPlanted(t, run, o)
	return o
}

func requirePlanted(t *testing.T, want, got *plantedOutcome, label string) {
	t.Helper()
	if !slices.Equal(want.fails, got.fails) {
		t.Fatalf("%s: failed rows\n%q\nwant\n%q", label, got.fails, want.fails)
	}
	if want.rejected != got.rejected || want.stats != got.stats {
		t.Fatalf("%s: rejected %d, stats %+v; want %d, %+v", label, got.rejected, got.stats, want.rejected, want.stats)
	}
	if !bytes.Equal(want.ckpt, got.ckpt) {
		t.Fatalf("%s: checkpoint differs", label)
	}
	requireSameBits(t, want.rows, got.rows, label)
}

// TestPlantedFailures: on both tapes, each query's Run.Push and
// Run.PushBatch at frames of 1, 7, 64 and 4096 fail the oracle's rows with
// its errors and end with its rows, checkpoint bytes and runtime counters.
// The sharded runtime, which stops at a run's first failed row, fails it
// as a serial Run does (plantedParallel).
// In a MultiRun beside its sibling, at the same frames, each member ends
// with its own oracle's rows, checkpoint, tuple and eviction counts, and its
// error count; the two share one key table throughout, however their rows
// fail. With a breaker of one, a failing member is fenced at the oracle's
// first failed row, with its error.
func TestPlantedFailures(t *testing.T) {
	e := flowEngine(t)
	for _, every := range []bool{false, true} {
		tape := plantedTape(every)
		for _, pq := range plantedQueries {
			queries := []string{pq.query, pq.sibling}
			want := make([]*plantedOutcome, len(queries))
			for i, q := range queries {
				st, err := e.Prepare(q)
				if err != nil {
					t.Fatalf("prepare %q: %v", q, err)
				}
				want[i] = plantedOracle(t, st, tape)
				if i == 0 && len(want[i].fails) == 0 {
					t.Fatalf("%s: the tape never fails it", pq.name)
				}
			}
			st, _ := e.Prepare(pq.query)
			for _, frame := range []int{1, 7, 64, 4096} {
				label := fmt.Sprintf("%s every=%v frame %d", pq.name, every, frame)
				requirePlanted(t, want[0], plantedStandalone(t, st, tape, frame), label)
				plantedMulti(t, e, queries, want, tape, frame, label)
			}
			plantedFence(t, e, queries, want, tape, pq.name)
			if !every {
				plantedParallel(t, st, tape, pq.name)
			}
		}
	}
}

// plantedParallel folds the tape, with its planted rows before row 200 made
// clean, through a ParallelRun of two shards and through Run.PushBatch, in
// frames of 1, 7 and 64. The first planted failure (row 200, the first of a
// bucket, or row 201), mid-frame at 7 and 64, must stop both with the same
// error after the same rows — among them the bucket that an argument
// failure's row closes before it fails — and the same rejected rows.
func plantedParallel(t *testing.T, st *gsql.Statement, tape []gsql.Tuple, label string) {
	t.Helper()
	late := make([]gsql.Tuple, len(tape))
	for r, tp := range tape {
		late[r] = slices.Clone(tp)
		if r < 200 {
			late[r][4], late[r][5] = gsql.Int(int64(101+r*37%900)), gsql.Float(float64(1+r%17))
		}
	}
	for _, frame := range []int{1, 7, 64} {
		l := fmt.Sprintf("%s sharded frame %d", label, frame)
		var want, got []gsql.Tuple
		run := st.Start(func(r gsql.Tuple) error { want = append(want, r); return nil }, gsql.Options{})
		pr, err := st.StartParallel(func(r gsql.Tuple) error { got = append(got, r); return nil }, gsql.ParallelOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		var runErr, prErr error
		runRej, prRej := 0, 0
		for _, b := range flowBatches(t, late, frame) {
			var rej int
			if runErr == nil {
				rej, runErr = run.PushBatch(b)
				runRej += rej
			}
			if prErr == nil {
				rej, prErr = pr.PushBatch(b)
				prRej += rej
			}
		}
		closeErr := pr.Close()
		if runErr == nil || prErr == nil || runErr.Error() != prErr.Error() || fmt.Sprint(closeErr) != fmt.Sprint(prErr) {
			t.Fatalf("%s: Run failed with %v, ParallelRun with %v (Close %v)", l, runErr, prErr, closeErr)
		}
		if runRej != prRej {
			t.Fatalf("%s: Run rejected %d rows, ParallelRun %d", l, runRej, prRej)
		}
		if len(want) == 0 {
			t.Fatalf("%s: no row before the failure", l)
		}
		requireSameBits(t, want, got, l)
	}
}

// plantedMulti folds the tape into a MultiRun holding queries, which share
// one key table, and compares each member with its oracle.
func plantedMulti(t *testing.T, e *gsql.Engine, queries []string, want []*plantedOutcome, tape []gsql.Tuple, frame int, label string) {
	t.Helper()
	m, err := gsql.NewMultiRun(e, "FLOW", gsql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]*gsql.MultiHandle, len(queries))
	rows := make([][]gsql.Tuple, len(queries))
	for i, q := range queries {
		if hs[i], err = m.Attach(q, 0, func(r gsql.Tuple) error { rows[i] = append(rows[i], r); return nil }); err != nil {
			t.Fatalf("attach %q: %v", q, err)
		}
	}
	table := hs[0].QueryStats().KeyTable
	shared := func(at int) {
		if n := m.MultiStats().KeyTables; n != 1 {
			t.Fatalf("%s: %d key tables after row %d", label, n, at)
		}
		for _, h := range hs {
			if id := h.QueryStats().KeyTable; id != table {
				t.Fatalf("%s: member on table %d after row %d, want %d", label, id, at, table)
			}
		}
	}
	shared(0)
	for pos := 0; pos < len(tape); pos += frame {
		end := min(pos+frame, len(tape))
		if frame == 1 {
			err = m.Push(tape[pos])
			var nfe *gsql.NonFiniteValueError
			if errors.As(err, &nfe) {
				err = nil
			}
		} else {
			_, err = m.PushBatch(schemaBatches(t, flowSchema(), tape[pos:end], frame)[0])
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		shared(end)
	}
	for i, h := range hs {
		l := fmt.Sprintf("%s member %d", label, i)
		ckpt, err := h.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		qs := h.QueryStats()
		n, ev := h.Stats()
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		w := want[i]
		if qs.Errors != uint64(len(w.fails)) || n != w.stats.TuplesIn || ev != w.stats.Evictions || qs.Quarantined {
			t.Fatalf("%s: %d errors over %d tuples, %d evictions (fenced %v); want %d over %d, %d",
				l, qs.Errors, n, ev, qs.Quarantined, len(w.fails), w.stats.TuplesIn, w.stats.Evictions)
		}
		if !bytes.Equal(w.ckpt, ckpt) {
			t.Fatalf("%s: checkpoint differs", l)
		}
		requireSameBits(t, w.rows, rows[i], l)
	}
}

// plantedFence folds the tape into a MultiRun of queries under a breaker of
// one: a member that fails is fenced at the oracle's first failed row, with
// its error, and one that never fails is not fenced.
func plantedFence(t *testing.T, e *gsql.Engine, queries []string, want []*plantedOutcome, tape []gsql.Tuple, label string) {
	t.Helper()
	fenced := map[string]string{}
	iso := &gsql.IsolateConfig{BreakerErrors: 1, OnQuarantine: func(ev gsql.QuarantineEvent) {
		fenced[ev.Text] = fmt.Sprintf("%d: %v", ev.Tuples-1, ev.Err)
	}}
	m, err := gsql.NewMultiRun(e, "FLOW", gsql.Options{Isolate: iso})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := m.Attach(q, 0, func(gsql.Tuple) error { return nil }); err != nil {
			t.Fatalf("attach %q: %v", q, err)
		}
	}
	for _, b := range flowBatches(t, tape, 64) {
		if _, err := m.PushBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	for i, q := range queries {
		first := ""
		if len(want[i].fails) > 0 {
			first = want[i].fails[0]
		}
		if fenced[q] != first {
			t.Fatalf("%s member %d: fenced at %q, want %q", label, i, fenced[q], first)
		}
	}
}
