package gsql

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// mkEngine returns an engine with the packet schema registered as TCP.
func mkEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	if err := e.RegisterStream(PacketSchema("TCP")); err != nil {
		t.Fatal(err)
	}
	return e
}

// pkt builds a packet tuple: (time, ftime, srcIP, dstIP, srcPort, destPort,
// proto, len).
func pkt(sec int64, dst int64, dport int64, ln int64) Tuple {
	return Tuple{Int(sec), Float(float64(sec)), Int(100), Int(dst), Int(4242), Int(dport), Int(6), Int(ln)}
}

// execute runs st over tuples pushed as one batch and collects its rows.
func execute(st *Statement, tuples []Tuple, opts Options) ([]Tuple, error) {
	var out []Tuple
	run := st.Start(func(row Tuple) error { out = append(out, row); return nil }, opts)
	b, err := NewBatch(st.p.schema)
	if err != nil {
		return nil, err
	}
	for _, t := range tuples {
		if err := b.Append(t); err != nil {
			return nil, err
		}
	}
	if _, err := run.PushBatch(b); err != nil {
		return out, err
	}
	return out, run.Close()
}

func execAll(t *testing.T, e *Engine, query string, tuples []Tuple, opts Options) []Tuple {
	t.Helper()
	st, err := e.Prepare(query)
	if err != nil {
		t.Fatalf("prepare %q: %v", query, err)
	}
	rows, err := execute(st, tuples, opts)
	if err != nil {
		t.Fatalf("execute %q: %v", query, err)
	}
	return rows
}

func TestSimpleCountPerBucket(t *testing.T) {
	tuples := []Tuple{
		pkt(10, 1, 80, 100),
		pkt(20, 1, 80, 100),
		pkt(30, 2, 80, 100),
		pkt(70, 1, 80, 100), // second bucket
		pkt(80, 1, 80, 100),
	}
	rows := execAll(t, mkEngine(t), `select tb, dstIP, count(*) from TCP group by time/60 as tb, dstIP`, tuples, Options{})
	// Bucket 0: dst1 ×2, dst2 ×1. Bucket 1: dst1 ×2.
	want := []string{"0 1 2", "0 2 1", "1 1 2"}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows %v, want %d", len(rows), rows, len(want))
	}
	for i, row := range rows {
		got := fmt.Sprintf("%s %s %s", row[0], row[1], row[2])
		if got != want[i] {
			t.Errorf("row %d = %q, want %q", i, got, want[i])
		}
	}
}

func TestPaperDecayedCountQuery(t *testing.T) {
	// The §IV-A query: quadratic forward decay inside a 60 s bucket,
	// expressed entirely in the query language.
	q := `select tb, dstIP, destPort,
	        sum(len*(time % 60)*(time % 60))/3600 from TCP
	      group by time/60 as tb, dstIP, destPort`
	tuples := []Tuple{
		pkt(605, 1, 80, 4), // t%60 = 5, weight 25/3600
		pkt(607, 1, 80, 8),
		pkt(603, 1, 80, 3),
		pkt(608, 1, 80, 6),
		pkt(604, 1, 80, 4),
	}
	rows := execAll(t, mkEngine(t), q, tuples, Options{})
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	// Σ len·(t%60)² = 4·25 + 8·49 + 3·9 + 6·64 + 4·16 = 967; /3600 (int) = 0.
	// Integer semantics: sum is int, division truncates — like GS/C.
	if got := rows[0][3].AsInt(); got != 967/3600 {
		t.Errorf("decayed sum (int semantics) = %v, want %d", rows[0][3], 967/3600)
	}

	// With float weights the normalized decayed sum appears exactly;
	// float() forces float arithmetic.
	qf := `select tb, dstIP, destPort,
	         sum(float(len)*(time % 60)*(time % 60))/3600 from TCP
	       group by time/60 as tb, dstIP, destPort`
	rows = execAll(t, mkEngine(t), qf, tuples, Options{})
	if got, want := rows[0][3].AsFloat(), 967.0/3600.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("decayed sum = %v, want %v", got, want)
	}
}

func TestWhereFilter(t *testing.T) {
	tuples := []Tuple{
		pkt(1, 1, 80, 100),
		pkt(2, 1, 443, 200),
		pkt(3, 1, 80, 300),
	}
	rows := execAll(t, mkEngine(t), `select destPort, sum(len) from TCP where destPort = 80 group by destPort`, tuples, Options{})
	if len(rows) != 1 || rows[0][1].AsInt() != 400 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestHaving(t *testing.T) {
	tuples := []Tuple{
		pkt(1, 1, 80, 1), pkt(2, 1, 80, 1), pkt(3, 1, 80, 1),
		pkt(4, 2, 80, 1),
	}
	rows := execAll(t, mkEngine(t), `select dstIP, count(*) from TCP group by dstIP having count(*) > 2`, tuples, Options{})
	if len(rows) != 1 || rows[0][0].AsInt() != 1 || rows[0][1].AsInt() != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAggregateVariety(t *testing.T) {
	tuples := []Tuple{
		pkt(1, 1, 80, 10),
		pkt(2, 1, 80, 30),
		pkt(3, 1, 80, 20),
	}
	rows := execAll(t, mkEngine(t),
		`select dstIP, count(*), sum(len), min(len), max(len), avg(len) from TCP group by dstIP`,
		tuples, Options{})
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	r := rows[0]
	if r[1].AsInt() != 3 || r[2].AsInt() != 60 || r[3].AsInt() != 10 || r[4].AsInt() != 30 {
		t.Errorf("count/sum/min/max = %v %v %v %v", r[1], r[2], r[3], r[4])
	}
	if math.Abs(r[5].AsFloat()-20) > 1e-12 {
		t.Errorf("avg = %v", r[5])
	}
}

func TestNoGroupByGlobalAggregate(t *testing.T) {
	tuples := []Tuple{pkt(1, 1, 80, 5), pkt(2, 2, 80, 7)}
	rows := execAll(t, mkEngine(t), `select count(*), sum(len) from TCP`, tuples, Options{})
	if len(rows) != 1 || rows[0][0].AsInt() != 2 || rows[0][1].AsInt() != 12 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestTwoLevelMatchesSingleLevel runs the same query with and without the
// two-level split on a large skewed stream; results must be identical.
func TestTwoLevelMatchesSingleLevel(t *testing.T) {
	var tuples []Tuple
	for i := int64(0); i < 50000; i++ {
		dst := i % 997 // far more groups than low-level slots at 256
		tuples = append(tuples, pkt(i/1000, dst, 80, 40+(i%1400)))
	}
	q := `select tb, dstIP, count(*), sum(len) from TCP group by time/10 as tb, dstIP`
	split := execAll(t, mkEngine(t), q, tuples, Options{LowLevelSlots: 256})
	single := execAll(t, mkEngine(t), q, tuples, Options{DisableTwoLevel: true})
	if len(split) != len(single) {
		t.Fatalf("row counts differ: %d vs %d", len(split), len(single))
	}
	for i := range split {
		for j := range split[i] {
			if split[i][j] != single[i][j] {
				t.Fatalf("row %d col %d: %v vs %v", i, j, split[i][j], single[i][j])
			}
		}
	}
	// The low table must actually have evicted (collisions happened).
	st, _ := mkEngine(t).Prepare(q)
	var n int
	run := st.Start(func(Tuple) error { n++; return nil }, Options{LowLevelSlots: 256})
	for _, tu := range tuples {
		if err := run.Push(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ev := run.Stats(); ev == 0 {
		t.Error("expected low-level evictions with 256 slots and ~1000 groups")
	}
}

func TestBucketCloseEmitsPromptly(t *testing.T) {
	st, err := mkEngine(t).Prepare(`select tb, count(*) from TCP group by time/60 as tb`)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Tuple
	run := st.Start(func(r Tuple) error { rows = append(rows, r); return nil }, Options{})
	run.Push(pkt(10, 1, 80, 1))
	run.Push(pkt(20, 1, 80, 1))
	if len(rows) != 0 {
		t.Fatalf("bucket emitted early: %v", rows)
	}
	run.Push(pkt(61, 1, 80, 1)) // closes bucket 0
	if len(rows) != 1 || rows[0][1].AsInt() != 2 {
		t.Fatalf("after bucket close: %v", rows)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1][1].AsInt() != 1 {
		t.Fatalf("after Close: %v", rows)
	}
}

func TestScalarFunctionsInQueries(t *testing.T) {
	tuples := []Tuple{pkt(4, 1, 80, 100)}
	rows := execAll(t, mkEngine(t),
		`select dstIP, sum(float(len)*exp(1)), max(sqrt(len)), min(pow(len, 2)) from TCP group by dstIP`,
		tuples, Options{})
	r := rows[0]
	if math.Abs(r[1].AsFloat()-100*math.E) > 1e-9 {
		t.Errorf("exp: %v", r[1])
	}
	if math.Abs(r[2].AsFloat()-10) > 1e-12 {
		t.Errorf("sqrt: %v", r[2])
	}
	if math.Abs(r[3].AsFloat()-10000) > 1e-9 {
		t.Errorf("pow: %v", r[3])
	}
}

func TestPrepareErrors(t *testing.T) {
	e := mkEngine(t)
	bad := map[string]string{
		"unknown stream":    `select count(*) from UDPX`,
		"unknown column":    `select count(nosuch) from TCP`,
		"bare column":       `select dstIP, count(*) from TCP group by time/60`,
		"agg in where":      `select count(*) from TCP where count(*) > 1`,
		"agg in group":      `select count(*) from TCP group by count(*)`,
		"nested agg":        `select sum(count(*)) from TCP`,
		"group without agg": `select dstIP from TCP group by dstIP`,
		"unknown func":      `select nosuchfn(len) from TCP`,
		"arity":             `select sum(len, len) from TCP`,
	}
	for name, q := range bad {
		if _, err := e.Prepare(q); err == nil {
			t.Errorf("%s: expected error for %q", name, q)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	e := mkEngine(t)
	st, err := e.Prepare(`select dstIP, sum(len/(time-1)) from TCP group by dstIP`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = execute(st, []Tuple{pkt(1, 1, 80, 10)}, Options{})
	if err == nil {
		t.Error("expected division-by-zero error")
	}
}

func TestUDAFIntegration(t *testing.T) {
	e := mkEngine(t)
	// A trivial non-mergeable UDAF: collects the count of distinct arg
	// values exactly.
	spec := AggSpec{
		Name: "exactdistinct", MinArgs: 1, MaxArgs: 1,
		New: func() Aggregator { return &distinctAgg{seen: map[Value]bool{}} },
	}
	if err := e.RegisterUDAF(spec); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterUDAF(spec); err == nil {
		t.Error("duplicate UDAF registration must fail")
	}
	st, err := e.Prepare(`select tb, exactdistinct(dstIP) from TCP group by time/60 as tb`)
	if err != nil {
		t.Fatal(err)
	}
	if st.p.mergeable {
		t.Error("query with non-mergeable UDAF must not be mergeable")
	}
	tuples := []Tuple{
		pkt(1, 1, 80, 1), pkt(2, 2, 80, 1), pkt(3, 1, 80, 1), pkt(4, 3, 80, 1),
	}
	rows, err := execute(st, tuples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1].AsInt() != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

type distinctAgg struct{ seen map[Value]bool }

func (d *distinctAgg) Step(args []Value) error { d.seen[args[0]] = true; return nil }
func (d *distinctAgg) Final() Value            { return Int(int64(len(d.seen))) }

func TestMergeableUDAFRunsTwoLevel(t *testing.T) {
	e := mkEngine(t)
	err := e.RegisterUDAF(AggSpec{
		Name: "sumsq", MinArgs: 1, MaxArgs: 1, Mergeable: true,
		New: func() Aggregator { return &sumsqAgg{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	var tuples []Tuple
	for i := int64(0); i < 20000; i++ {
		tuples = append(tuples, pkt(i/1000, i%503, 80, i%7))
	}
	q := `select tb, dstIP, sumsq(len) from TCP group by time/10 as tb, dstIP`
	split := execAll(t, e, q, tuples, Options{LowLevelSlots: 128})
	single := execAll(t, e, q, tuples, Options{DisableTwoLevel: true})
	if len(split) != len(single) {
		t.Fatalf("row counts differ: %d vs %d", len(split), len(single))
	}
	for i := range split {
		if math.Abs(split[i][2].AsFloat()-single[i][2].AsFloat()) > 1e-9 {
			t.Fatalf("row %d: %v vs %v", i, split[i], single[i])
		}
	}
}

type sumsqAgg struct{ s float64 }

func (a *sumsqAgg) Step(args []Value) error { v := args[0].AsFloat(); a.s += v * v; return nil }
func (a *sumsqAgg) Final() Value            { return Float(a.s) }
func (a *sumsqAgg) Merge(o Aggregator) error {
	oa, ok := o.(*sumsqAgg)
	if !ok {
		return fmt.Errorf("bad merge")
	}
	a.s += oa.s
	return nil
}

func TestMergeableDeclarationValidated(t *testing.T) {
	e := mkEngine(t)
	err := e.RegisterUDAF(AggSpec{
		Name: "bogus", MinArgs: 1, MaxArgs: 1, Mergeable: true,
		New: func() Aggregator { return &distinctAgg{seen: map[Value]bool{}} },
	})
	if err == nil {
		t.Error("declaring a non-Merger aggregate mergeable must fail")
	}
}

func TestStatementMetadata(t *testing.T) {
	e := mkEngine(t)
	st, err := e.Prepare(`select tb, dstIP, count(*) as pkts from TCP group by time/60 as tb, dstIP`)
	if err != nil {
		t.Fatal(err)
	}
	cols := st.Columns()
	if len(cols) != 3 || cols[2] != "pkts" {
		t.Errorf("columns = %v", cols)
	}
	if st.p.temporalIdx < 0 || !st.p.mergeable {
		t.Errorf("temporal=%v mergeable=%v", st.p.temporalIdx, st.p.mergeable)
	}
	if st.Describe() == "" || st.p.text == "" {
		t.Error("empty Describe/text")
	}
	// A non-temporal grouping (no monotone column) is detected.
	st2, err := e.Prepare(`select dstIP, count(*) from TCP group by dstIP`)
	if err != nil {
		t.Fatal(err)
	}
	if st2.p.temporalIdx >= 0 {
		t.Error("dstIP grouping must not be temporal")
	}
	// time % 60 is not monotone and must not define buckets.
	st3, err := e.Prepare(`select m, count(*) from TCP group by time%60 as m`)
	if err != nil {
		t.Fatal(err)
	}
	if st3.p.temporalIdx >= 0 {
		t.Error("time%60 must not be temporal")
	}
}

func TestAliasReuseInSelectAndOutputArithmetic(t *testing.T) {
	tuples := []Tuple{pkt(65, 1, 80, 10), pkt(70, 1, 80, 20)}
	rows := execAll(t, mkEngine(t),
		`select tb*60, sum(len)/count(*) from TCP group by time/60 as tb`,
		tuples, Options{})
	if len(rows) != 1 || rows[0][0].AsInt() != 60 || rows[0][1].AsInt() != 15 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestDirectEmitMatchesProjection: a plan writes rows straight from the
// group only when there is no HAVING and every output item is a bare group
// expression or an aggregate slot named once, keeps no output kernels then,
// and its rows are the closure fold's (which projects every row through the
// select-item closures) to the bit.
func TestDirectEmitMatchesProjection(t *testing.T) {
	e := mkEngine(t)
	var tuples []Tuple
	for i := int64(0); i < 300; i++ {
		tuples = append(tuples, pkt(i/50, i%7, 80+i%3, 40+i))
	}
	for _, c := range []struct {
		query  string
		direct bool
	}{
		{"select tb, dstIP, count(*), sum(len) from TCP group by time/1 as tb, dstIP", true},
		{"select max(len), dstIP, tb, min(ftime), dstIP from TCP group by time/1 as tb, dstIP", true},
		{"select time/1, avg(len) from TCP group by time/1", true},
		{"select tb, count(*), count(*) from TCP group by time/1 as tb", false},
		{"select tb, count(*) from TCP group by time/1 as tb having count(*) > 1", false},
		{"select tb, sum(len)/count(*) from TCP group by time/1 as tb", false},
		{"select tb + 1, count(*) from TCP group by time/1 as tb", false},
	} {
		st, err := e.Prepare(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.p.outDirect != nil; got != c.direct {
			t.Errorf("%q: direct emit %v, want %v", c.query, got, c.direct)
		}
		if got := st.p.out == nil; got != c.direct {
			t.Errorf("%q: output kernels dropped %v, want %v", c.query, got, c.direct)
		}
		rows, err := execute(st, tuples, Options{LowLevelSlots: 4})
		if err != nil {
			t.Fatal(err)
		}
		var want []Tuple
		oracle := st.Start(func(row Tuple) error { want = append(want, row); return nil }, Options{LowLevelSlots: 4})
		for _, tp := range tuples {
			if err := oracle.oraclePush(tp); err != nil {
				t.Fatal(err)
			}
		}
		if err := oracle.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%#v", rows), fmt.Sprintf("%#v", want); got != want {
			t.Errorf("%q:\ndirect     %s\nclosures   %s", c.query, got, want)
		}
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(""); err == nil {
		t.Error("empty schema name must fail")
	}
	if _, err := NewSchema("s", Column{Name: "a", Type: TInt}, Column{Name: "A", Type: TInt}); err == nil {
		t.Error("duplicate columns must fail")
	}
	if _, err := NewSchema("s", Column{Name: "", Type: TInt}); err == nil {
		t.Error("empty column name must fail")
	}
	e := NewEngine()
	s := MustSchema("dup", Column{Name: "x", Type: TInt})
	if err := e.RegisterStream(s); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterStream(s); err == nil {
		t.Error("duplicate stream registration must fail")
	}
}

// TestMistypedTupleDemotesWordKeys: a group value not typed as the schema (a
// float, NULL or bool in an int column) has no word key. Folded through the
// closure fold, which takes such tuples, the run turns to byte keys for
// good, its live groups included, and is from then on the run that keyed by
// bytes from the start, to the bit: rows, checkpoints and Stats, with
// evictions forced by a 4-slot low table. A run restored from a checkpoint
// holding mistyped keys turns too, and finishes the tape through Push as
// the byte-keyed run does.
func TestMistypedTupleDemotesWordKeys(t *testing.T) {
	e := mkEngine(t)
	st, err := e.Prepare("select tb, dstIP, count(*), sum(len) from TCP group by time/1 as tb, dstIP")
	if err != nil {
		t.Fatal(err)
	}
	tape := make([]Tuple, 400)
	for i := range tape {
		tape[i] = pkt(int64(i/100), int64(i%13), 80, int64(100+i))
	}
	tape[150][3] = Float(3)
	tape[310][3] = Null
	tape[320][3] = Float(5)
	tape[330][3] = Bool(true)
	var rows []Tuple
	opts := Options{LowLevelSlots: 4}
	start := func(words bool) *Run {
		r := st.Start(func(row Tuple) error { rows = append(rows, row); return nil }, opts)
		if !words {
			r.tab.demote() // byte keys from the first tuple
		}
		return r
	}
	fold := func(r *Run, tape []Tuple, push func(*Run, Tuple) error) {
		for _, tu := range tape {
			if err := push(r, tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	oracle, push := (*Run).oraclePush, (*Run).Push
	// finish checkpoints and closes r, and renders what it and the rows
	// emitted since the last finish show of the run.
	finish := func(r *Run, stats bool) string {
		ck, err := r.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("%#v\n%x", rows, ck)
		if stats {
			tuples, evictions := r.Stats()
			out += fmt.Sprintf("\n%d %d", tuples, evictions)
		}
		rows = rows[:0]
		return out
	}

	byteRun := start(false)
	fold(byteRun, tape, oracle)
	want := finish(byteRun, true)
	wordRun := start(true)
	for i, tu := range tape {
		fold(wordRun, []Tuple{tu}, oracle)
		if wordRun.tab.words != (i < 150) {
			t.Fatalf("after tuple %d: words %v", i, wordRun.tab.words)
		}
	}
	if _, ev := wordRun.Stats(); ev == 0 {
		t.Fatal("the 4-slot table never evicted")
	}
	if got := finish(wordRun, true); got != want {
		t.Fatalf("word-keyed run:\n%s\nbyte-keyed run:\n%s", got, want)
	}

	byteRun = start(false)
	fold(byteRun, tape[:350], oracle)
	ck, err := byteRun.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	rows = rows[:0]
	fold(byteRun, tape[350:], oracle)
	want = finish(byteRun, false)
	restored, err := st.Restore(ck, byteRun.sink, opts)
	if err != nil {
		t.Fatal(err)
	}
	if restored.tab.words {
		t.Fatal("restoring mistyped keys left the run word-keyed")
	}
	fold(restored, tape[350:], push)
	if got := finish(restored, false); got != want {
		t.Fatalf("restored run:\n%s\nbyte-keyed run:\n%s", got, want)
	}
}

// TestPushRefusesMistypedTuples: Run.Push and MultiRun.Push refuse a tuple
// shorter than the schema, and one with a value not of its column's type,
// with Batch.Append's error; the refused tuple changes no group state and
// no counter of either.
func TestPushRefusesMistypedTuples(t *testing.T) {
	e := mkEngine(t)
	q := "select tb, dstIP, count(*), sum(len) from TCP group by time/60 as tb, dstIP"
	st, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	run := st.Start(func(Tuple) error { return nil }, Options{})
	m, err := NewMultiRun(e, "TCP", Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Attach(q, 0, func(Tuple) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []Tuple{pkt(1, 2, 80, 100), pkt(1, 3, 80, 200)} {
		if err := run.Push(tp); err != nil {
			t.Fatal(err)
		}
		if err := m.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	// state renders everything a push could move: both runs' checkpoints
	// and counters (Checkpoint's own counter aside).
	state := func() string {
		rs := run.RuntimeStats()
		rs.Checkpoints = 0
		ck, err := run.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		mck, err := h.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v %x\n%+v %+v %x", rs, ck, m.MultiStats(), h.QueryStats(), mck)
	}
	mistyped := pkt(1, 4, 80, 100)
	mistyped[7] = Float(100)
	for _, tp := range []Tuple{{Int(1)}, mistyped} {
		b, err := NewBatch(PacketSchema("TCP"))
		if err != nil {
			t.Fatal(err)
		}
		want := b.Append(tp)
		before := state()
		rerr, merr := run.Push(tp), m.Push(tp)
		if want == nil || fmt.Sprint(rerr) != want.Error() || fmt.Sprint(merr) != want.Error() {
			t.Fatalf("%v: Run.Push %v, MultiRun.Push %v; want %v", tp, rerr, merr, want)
		}
		if after := state(); after != before {
			t.Fatalf("%v changed state:\n%s\nwas\n%s", tp, after, before)
		}
	}
}

// TestEmitAcrossRecordBatches: a flush of more groups than one record batch
// holds (recRows) emits the rows and the error of the closure fold: HAVING
// dropping groups in every batch, a select item failing on one group past
// the first batch, and a sink stopping in the second batch.
func TestEmitAcrossRecordBatches(t *testing.T) {
	e := mkEngine(t)
	var tuples []Tuple
	for i := range 3*recRows + 17 {
		tuples = append(tuples, pkt(1, int64(i), 80, 100+int64(i%7)), pkt(2, int64(i), 80, int64(i)))
	}
	for _, c := range []struct {
		q         string
		stopAt    int
		wantRows  int // at least
		wantError string
	}{
		{`select dstIP, count(*), sum(len) * 2, min(len) < 50 from TCP group by dstIP having sum(len) % 3 != 0`, 0, 2 * recRows, ""},
		{`select dstIP, count(*), 1000 / (dstIP - 600) from TCP group by dstIP`, 0, recRows + 1, "division by zero"},
		{`select dstIP, count(*), sum(len) / 2 from TCP group by dstIP`, recRows + 10, recRows + 10, "stop"},
	} {
		st, err := e.Prepare(c.q)
		if err != nil {
			t.Fatal(err)
		}
		fold := func(push func(*Run) error) ([]Tuple, error) {
			var rows []Tuple
			run := st.Start(func(r Tuple) error {
				if rows = append(rows, r); len(rows) == c.stopAt {
					return SinkStop()
				}
				return nil
			}, Options{})
			if err := push(run); err != nil {
				return rows, err
			}
			return rows, run.Close()
		}
		want, wantErr := fold(func(r *Run) error {
			for _, tp := range tuples {
				if err := r.oraclePush(tp); err != nil {
					return err
				}
			}
			return nil
		})
		got, gotErr := fold(func(r *Run) error {
			b, err := NewBatch(r.p.schema)
			if err != nil {
				return err
			}
			for _, tp := range tuples {
				if err := b.Append(tp); err != nil {
					return err
				}
			}
			_, err = r.PushBatch(b)
			return err
		})
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !strings.Contains(fmt.Sprint(wantErr), c.wantError) {
			t.Fatalf("%q: error %v, closure fold %v, want one naming %q", c.q, gotErr, wantErr, c.wantError)
		}
		if len(want) < c.wantRows {
			t.Fatalf("%q: %d rows before the end, want at least %d", c.q, len(want), c.wantRows)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d rows, closure fold %d", c.q, len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				if !sameBits(got[i][j], want[i][j]) {
					t.Fatalf("%q row %d col %d: %v, closure fold %v", c.q, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}
