package gsql_test

import (
	"fmt"
	"strings"
	"testing"

	"forwarddecay/gsql"
	"forwarddecay/netgen"
	"forwarddecay/sketch"
)

// parallelEngine returns an engine with the packet schema registered.
func parallelEngine(t *testing.T) *gsql.Engine {
	t.Helper()
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		t.Fatal(err)
	}
	return e
}

// trace materializes n packet tuples; ooo > 0 shuffles delivery through a
// buffer of that size (timestamps stay correct, arrival order does not).
func trace(n, ooo int, seed uint64) []gsql.Tuple {
	cfg := netgen.DefaultConfig(5000, seed)
	cfg.Hosts = 50 // few enough hosts that groups repeat within a bucket
	cfg.OutOfOrder = ooo
	g := netgen.New(cfg)
	out := make([]gsql.Tuple, n)
	for i := range out {
		out[i] = netgen.Tuple(g.Next())
	}
	return out
}

// serialRows runs the statement serially and collects rows.
func serialRows(t *testing.T, st *gsql.Statement, tuples []gsql.Tuple, opts gsql.Options) []gsql.Tuple {
	t.Helper()
	var rows []gsql.Tuple
	run := st.Start(func(row gsql.Tuple) error { rows = append(rows, row); return nil }, opts)
	b, err := gsql.NewBatch(gsql.PacketSchema("TCP"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples {
		if err := b.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := run.PushBatch(b); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if err := run.Close(); err != nil {
		t.Fatalf("serial close: %v", err)
	}
	return rows
}

// parallelFrames are the frame sizes the sharded suites push at.
var parallelFrames = []int{1, 7, 64, 4096}

// parallelRows runs the statement under the sharded runtime, pushing the
// tuples in frames of the given size through one reused batch, and collects
// rows.
func parallelRows(t *testing.T, st *gsql.Statement, tuples []gsql.Tuple, shards, frame int) []gsql.Tuple {
	t.Helper()
	var rows []gsql.Tuple
	pr, err := st.StartParallel(func(row gsql.Tuple) error { rows = append(rows, row); return nil },
		gsql.ParallelOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	b, err := gsql.NewBatch(gsql.PacketSchema("TCP"))
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(tuples); lo += frame {
		b.Reset()
		for _, tp := range tuples[lo:min(lo+frame, len(tuples))] {
			if err := b.Append(tp); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := pr.PushBatch(b); err != nil {
			pr.Close()
			t.Fatalf("parallel push: %v", err)
		}
	}
	if err := pr.Close(); err != nil {
		t.Fatalf("parallel close: %v", err)
	}
	return rows
}

// requireIdentical asserts two result sets are bit-identical (same rows,
// same order, same values — including float payloads).
func requireIdentical(t *testing.T, serial, parallel []gsql.Tuple, label string) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("%s: serial emitted %d rows, parallel %d", label, len(serial), len(parallel))
	}
	for i := range serial {
		if len(serial[i]) != len(parallel[i]) {
			t.Fatalf("%s row %d: width %d vs %d", label, i, len(serial[i]), len(parallel[i]))
		}
		for j := range serial[i] {
			if serial[i][j] != parallel[i][j] {
				t.Fatalf("%s row %d col %d: serial %v, parallel %v", label, i, j, serial[i][j], parallel[i][j])
			}
		}
	}
}

// TestParallelEquivalenceExact: for every builtin aggregate (count, sum,
// avg, min, max — integer and float arguments), WHERE and HAVING clauses,
// the sharded runtime must produce output bit-identical to the serial run at
// every shard count and frame size. Hash routing pins each group to one
// shard, so even float accumulation order matches.
func TestParallelEquivalenceExact(t *testing.T) {
	queries := []string{
		`select tb, dstIP, destPort, count(*), sum(len), avg(float(len)), min(len), max(len)
		   from TCP group by time/60 as tb, dstIP, destPort`,
		`select tb, dstIP, count(*), sum(float(len)*(time % 60)*(time % 60))/3600
		   from TCP group by time/60 as tb, dstIP`,
		`select tb, proto, count(*) from TCP where len > 200 group by time/60 as tb, proto`,
		`select tb, dstIP, count(*), avg(float(len)) from TCP
		   group by time/60 as tb, dstIP having count(*) > 3`,
	}
	e := parallelEngine(t)
	tuples := trace(30_000, 0, 11)
	for qi, q := range queries {
		st, err := e.Prepare(q)
		if err != nil {
			t.Fatalf("prepare %q: %v", q, err)
		}
		want := serialRows(t, st, tuples, gsql.Options{})
		if len(want) == 0 {
			t.Fatalf("query %d produced no rows; workload too small", qi)
		}
		for _, shards := range []int{1, 2, 4} {
			for _, frame := range parallelFrames {
				got := parallelRows(t, st, tuples, shards, frame)
				requireIdentical(t, want, got, fmt.Sprintf("query %d, %d shards, frame %d", qi, shards, frame))
			}
		}
	}
}

// TestParallelEquivalenceOutOfOrder: out-of-order delivery must not break
// equivalence — flush points are driven by the same tuples in both runtimes,
// so late tuples land in (and re-open groups within) the same emission
// windows.
func TestParallelEquivalenceOutOfOrder(t *testing.T) {
	e := parallelEngine(t)
	const q = `select tb, dstIP, count(*), sum(len), avg(float(len))
	             from TCP group by time/60 as tb, dstIP`
	st, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, ooo := range []int{16, 512} {
		tuples := trace(20_000, ooo, 23)
		want := serialRows(t, st, tuples, gsql.Options{})
		for _, shards := range []int{1, 2, 4} {
			for _, frame := range parallelFrames {
				got := parallelRows(t, st, tuples, shards, frame)
				requireIdentical(t, want, got, fmt.Sprintf("ooo=%d, %d shards, frame %d", ooo, shards, frame))
			}
		}
	}
}

// ssTopAgg is a mergeable heavy-hitter UDAF over a SpaceSaving summary,
// reporting the top key — a stand-in for the paper's sshh UDAF that keeps
// this test free of the udaf package.
type ssTopAgg struct{ ss *sketch.SpaceSaving }

func (a *ssTopAgg) Step(args []gsql.Value) error {
	a.ss.Update(uint64(args[0].AsInt()), 1)
	return nil
}

func (a *ssTopAgg) Final() gsql.Value {
	top := a.ss.Top(1)
	if len(top) == 0 {
		return gsql.Null
	}
	return gsql.Int(int64(top[0].Key))
}

func (a *ssTopAgg) Merge(o gsql.Aggregator) error {
	a.ss.Merge(o.(*ssTopAgg).ss)
	return nil
}

// kmvAgg is a mergeable distinct-count UDAF over a KMV sketch. KMV merge is
// a union, so sharded execution is exact, not merely approximate.
type kmvAgg struct{ s *sketch.KMV }

func (a *kmvAgg) Step(args []gsql.Value) error {
	a.s.Insert(uint64(args[0].AsInt()))
	return nil
}

func (a *kmvAgg) Final() gsql.Value { return gsql.Float(a.s.Estimate()) }

func (a *kmvAgg) Merge(o gsql.Aggregator) error {
	a.s.Merge(o.(*kmvAgg).s)
	return nil
}

// registerSketchUDAFs installs the two test UDAFs.
func registerSketchUDAFs(t *testing.T, e *gsql.Engine) {
	t.Helper()
	if err := e.RegisterUDAF(gsql.AggSpec{
		Name: "sstop", MinArgs: 1, MaxArgs: 1, Mergeable: true,
		New: func() gsql.Aggregator { return &ssTopAgg{ss: sketch.NewSpaceSavingK(64)} },
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterUDAF(gsql.AggSpec{
		Name: "kmvdistinct", MinArgs: 1, MaxArgs: 1, Mergeable: true,
		New: func() gsql.Aggregator { return &kmvAgg{s: sketch.NewKMV(128)} },
	}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelSketchUDAFGrouped: mergeable sketch UDAFs under a grouped
// query are routed whole-group to one shard, so sharded output is exactly
// the serial output.
func TestParallelSketchUDAFGrouped(t *testing.T) {
	e := parallelEngine(t)
	registerSketchUDAFs(t, e)
	const q = `select tb, proto, sstop(dstIP), kmvdistinct(dstIP)
	             from TCP group by time/60 as tb, proto`
	st, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	tuples := trace(20_000, 0, 47)
	want := serialRows(t, st, tuples, gsql.Options{})
	got := parallelRows(t, st, tuples, 4, 256)
	requireIdentical(t, want, got, "grouped sketch UDAFs")
}

// TestParallelSketchUDAFGlobal: with no non-temporal group column the
// runtime falls back to round-robin routing and the shard partials combine
// through the sketches' Merge. KMV union is exact; the SpaceSaving merge
// must still agree on the (heavily skewed) top key within its documented
// additive error — here the top key is unambiguous.
func TestParallelSketchUDAFGlobal(t *testing.T) {
	e := parallelEngine(t)
	registerSketchUDAFs(t, e)
	const q = `select tb, sstop(dstIP), kmvdistinct(dstIP) from TCP group by time/60 as tb`
	st, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	tuples := trace(30_000, 0, 53)
	want := serialRows(t, st, tuples, gsql.Options{})
	got := parallelRows(t, st, tuples, 4, 64)
	if len(want) != len(got) {
		t.Fatalf("row counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		// Bucket and top heavy hitter agree exactly; the KMV union estimate
		// is identical because merge reconstructs the same k smallest hashes.
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("row %d col %d: serial %v, parallel %v", i, j, want[i][j], got[i][j])
			}
		}
	}
}

// TestParallelRejectsNonMergeable: a query containing any non-mergeable
// aggregate cannot run under the LFTA/HFTA split and must be rejected up
// front (the serial path still accepts it).
func TestParallelRejectsNonMergeable(t *testing.T) {
	e := parallelEngine(t)
	if err := e.RegisterUDAF(gsql.AggSpec{
		Name: "lastval", MinArgs: 1, MaxArgs: 1, Mergeable: false,
		New: func() gsql.Aggregator { return &lastValAgg{} },
	}); err != nil {
		t.Fatal(err)
	}
	st, err := e.Prepare(`select tb, lastval(len) from TCP group by time/60 as tb`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(st.Describe(), "mergeable=true") {
		t.Fatal("statement with non-mergeable UDAF reported Mergeable")
	}
	if _, err := st.StartParallel(func(gsql.Tuple) error { return nil }, gsql.ParallelOptions{}); err == nil {
		t.Fatal("StartParallel accepted a non-mergeable query")
	} else if !strings.Contains(err.Error(), "non-mergeable") {
		t.Fatalf("unhelpful rejection: %v", err)
	}
	// The serial path still runs it.
	rows := serialRows(t, st, trace(2_000, 0, 3), gsql.Options{})
	if len(rows) == 0 {
		t.Fatal("serial fallback produced no rows")
	}
}

// lastValAgg is an intentionally non-mergeable aggregate (last value wins,
// which has no well-defined partial combine).
type lastValAgg struct{ v gsql.Value }

func (a *lastValAgg) Step(args []gsql.Value) error { a.v = args[0]; return nil }
func (a *lastValAgg) Final() gsql.Value            { return a.v }

// TestParallelLifecycleErrors: use after Close fails, double Close is safe,
// sink errors (SinkStop) propagate out of the flush that raised them, and a
// batch of another stream is refused.
func TestParallelLifecycleErrors(t *testing.T) {
	e := parallelEngine(t)
	st, err := e.Prepare(`select tb, count(*) from TCP group by time/60 as tb`)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := st.StartParallel(func(gsql.Tuple) error { return nil }, gsql.ParallelOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.PushBatch(oneRow(t, pkt2(10, 1, 80, 100))); err != nil {
		t.Fatal(err)
	}
	if err := pr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pr.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if _, err := pr.PushBatch(oneRow(t, pkt2(20, 1, 80, 100))); err == nil {
		t.Fatal("PushBatch after Close succeeded")
	}

	// A sink that stops: the error surfaces from the flush (here, Close).
	pr2, err := st.StartParallel(func(gsql.Tuple) error { return gsql.SinkStop() }, gsql.ParallelOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr2.PushBatch(oneRow(t, pkt2(10, 1, 80, 100))); err != nil {
		t.Fatal(err)
	}
	if err := pr2.Close(); err == nil {
		t.Fatal("sink stop did not propagate")
	}

	// A batch of another stream is refused, and poisons the run.
	pr3, err := st.StartParallel(func(gsql.Tuple) error { return nil }, gsql.ParallelOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	other, err := gsql.NewBatch(gsql.MustSchema("UDP", gsql.Column{Name: "time", Type: gsql.TInt}))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Append(gsql.Tuple{gsql.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := pr3.PushBatch(other); err == nil {
		t.Fatal("batch of another stream accepted")
	}
	if _, err := pr3.PushBatch(oneRow(t, pkt2(10, 1, 80, 100))); err == nil {
		t.Fatal("poisoned run accepted a batch")
	}
	if err := pr3.Close(); err == nil {
		t.Fatal("Close of a poisoned run returned nil")
	}
}

// oneRow returns a packet batch holding tp alone.
func oneRow(t *testing.T, tp gsql.Tuple) *gsql.Batch {
	t.Helper()
	return toBatches(t, []gsql.Tuple{tp}, 1)[0]
}

// TestParallelShardErrorSurfaces: an error raised inside a shard worker (an
// aggregate argument failing, here integer division by zero) must surface at
// the next flush and poison the run.
func TestParallelShardErrorSurfaces(t *testing.T) {
	e := parallelEngine(t)
	st, err := e.Prepare(`select tb, dstIP, sum(len/(len - 64)) from TCP group by time/60 as tb, dstIP`)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := st.StartParallel(func(gsql.Tuple) error { return nil }, gsql.ParallelOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var tuples []gsql.Tuple
	for i := 0; i < 32; i++ {
		ln := int64(100 + i)
		if i == 17 {
			ln = 64 // divides by zero inside the shard
		}
		tuples = append(tuples, pkt2(int64(10+i), int64(i%4), 80, ln))
	}
	for _, b := range toBatches(t, tuples, 4) {
		if _, err := pr.PushBatch(b); err != nil {
			break // surfaced early via a flush — also acceptable
		}
	}
	if err := pr.Close(); err == nil {
		t.Fatal("shard-side error did not surface at Close")
	} else if !strings.Contains(err.Error(), "division") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// pkt2 builds a packet tuple for the lifecycle tests (mirrors the internal
// test helper, which this external package cannot reach).
func pkt2(sec, dst, dport, ln int64) gsql.Tuple {
	return gsql.Tuple{gsql.Int(sec), gsql.Float(float64(sec)), gsql.Int(100), gsql.Int(dst),
		gsql.Int(4242), gsql.Int(dport), gsql.Int(6), gsql.Int(ln)}
}
