package gsql_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/gsql"
	"forwarddecay/internal/core"
	"forwarddecay/udaf"
)

// Differential property suite for the columnar batch path: PushBatch must be
// bit-for-bit equivalent to pushing the same tuples one by one under the
// standard caller policy (skip-and-continue on *NonFiniteValueError, stop on
// anything else) — identical result rows, identical tuple accounting,
// identical errors, identical checkpoints-as-restored — across the serial
// and sharded runtimes, with and without epoch rollovers, at every batch
// size worth worrying about.

// toBatches slices packet tuples into columnar batches of the given size.
func toBatches(t *testing.T, tuples []gsql.Tuple, size int) []*gsql.Batch {
	t.Helper()
	return schemaBatches(t, gsql.PacketSchema("TCP"), tuples, size)
}

// schemaBatches slices tuples of schema s into batches of the given size.
func schemaBatches(t testing.TB, s *gsql.Schema, tuples []gsql.Tuple, size int) []*gsql.Batch {
	t.Helper()
	var out []*gsql.Batch
	for lo := 0; lo < len(tuples); lo += size {
		hi := min(lo+size, len(tuples))
		b, err := gsql.NewBatch(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range tuples[lo:hi] {
			if err := b.Append(tp); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, b)
	}
	return out
}

// scalarPushAll drives a run through the closure fold (gsql.OraclePush) the
// way every scalar caller does: non-finite rejects are counted and skipped,
// any other error surfaces. Returns rows, reject count, tuple count and the
// first non-reject error.
func scalarPushAll(t *testing.T, st *gsql.Statement, tuples []gsql.Tuple, opts gsql.Options) (rows []gsql.Tuple, rejected int, pushed uint64, pushErr error) {
	t.Helper()
	run := st.Start(func(row gsql.Tuple) error { rows = append(rows, row); return nil }, opts)
	for _, tp := range tuples {
		if err := gsql.OraclePush(run, tp); err != nil {
			var nfe *gsql.NonFiniteValueError
			if errors.As(err, &nfe) {
				rejected++
				continue
			}
			pushed, _ = run.Stats()
			return rows, rejected, pushed, err
		}
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	pushed, _ = run.Stats()
	return rows, rejected, pushed, nil
}

// batchPushAll drives the same workload through PushBatch.
func batchPushAll(t *testing.T, st *gsql.Statement, tuples []gsql.Tuple, size int, opts gsql.Options) (rows []gsql.Tuple, rejected int, pushed uint64, pushErr error) {
	t.Helper()
	run := st.Start(func(row gsql.Tuple) error { rows = append(rows, row); return nil }, opts)
	for _, b := range toBatches(t, tuples, size) {
		rej, err := run.PushBatch(b)
		rejected += rej
		if err != nil {
			pushed, _ = run.Stats()
			return rows, rejected, pushed, err
		}
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	pushed, _ = run.Stats()
	return rows, rejected, pushed, nil
}

// requireSameOutcome asserts the two drive styles agreed on everything
// observable: rows, rejects, tuple accounting and error.
func requireSameOutcome(t *testing.T, label string,
	sRows []gsql.Tuple, sRej int, sN uint64, sErr error,
	bRows []gsql.Tuple, bRej int, bN uint64, bErr error) {
	t.Helper()
	requireIdentical(t, sRows, bRows, label)
	if sRej != bRej {
		t.Fatalf("%s: scalar rejected %d, batch %d", label, sRej, bRej)
	}
	if sN != bN {
		t.Fatalf("%s: scalar counted %d tuples, batch %d", label, sN, bN)
	}
	switch {
	case (sErr == nil) != (bErr == nil):
		t.Fatalf("%s: scalar err %v, batch err %v", label, sErr, bErr)
	case sErr != nil && sErr.Error() != bErr.Error():
		t.Fatalf("%s: scalar err %q, batch err %q", label, sErr, bErr)
	}
}

var batchSizes = []int{1, 7, 64, 256}

// TestPushBatchEquivalenceSerial: the serial batch path over the builtin
// aggregates, compiled WHERE/HAVING and mixed int/float expressions — in
// arrival order and shuffled — is bit-identical to scalar pushes.
func TestPushBatchEquivalenceSerial(t *testing.T) {
	queries := []string{
		`select tb, dstIP, destPort, count(*), sum(len), avg(float(len)), min(len), max(len)
		   from TCP group by time/60 as tb, dstIP, destPort`,
		`select tb, dstIP, count(*), sum(float(len)*(time % 60)*(time % 60))/3600
		   from TCP group by time/60 as tb, dstIP`,
		`select tb, proto, count(*) from TCP where len > 200 and destPort = 80
		   group by time/60 as tb, proto`,
		`select tb, dstIP, count(*), avg(float(len)) from TCP
		   group by time/60 as tb, dstIP having count(*) > 3`,
	}
	e := parallelEngine(t)
	for _, ooo := range []int{0, 64} {
		tuples := trace(20_000, ooo, 11)
		for qi, q := range queries {
			st, err := e.Prepare(q)
			if err != nil {
				t.Fatalf("prepare %q: %v", q, err)
			}
			for _, opts := range []gsql.Options{{}, {DisableTwoLevel: true}} {
				sRows, sRej, sN, sErr := scalarPushAll(t, st, tuples, opts)
				if len(sRows) == 0 {
					t.Fatalf("query %d produced no rows; workload too small", qi)
				}
				for _, size := range batchSizes {
					bRows, bRej, bN, bErr := batchPushAll(t, st, tuples, size, opts)
					requireSameOutcome(t,
						fmt.Sprintf("query %d, ooo %d, twoLevel %v, batch %d", qi, ooo, !opts.DisableTwoLevel, size),
						sRows, sRej, sN, sErr, bRows, bRej, bN, bErr)
				}
			}
		}
	}
}

// fdEngine registers the packet stream plus the epoch-aware fd* aggregates
// under an exponential forward-decay model.
func fdEngine(t *testing.T, m decay.Forward) *gsql.Engine {
	t.Helper()
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		t.Fatal(err)
	}
	cfg := udaf.Config{SampleSize: 50, Epsilon: 0.01, Phi: 0.01, Window: 60, Seed: 1, Decay: m}
	if err := udaf.RegisterAll(e, cfg); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPushBatchEquivalenceEpoch: decayed aggregates under an epoch
// supervisor whose period forces mid-batch landmark rolls. The batch path
// must segment at exactly the scalar roll points — including when the batch
// is not timestamp-sorted and when the epoch time comes from the TimeColumn
// fast path — and reproduce the scalar results bit-for-bit.
func TestPushBatchEquivalenceEpoch(t *testing.T) {
	m := decay.NewForward(decay.NewExp(0.5), 0)
	e := fdEngine(t, m)
	st, err := e.Prepare(`select tb, dstIP, count(*), fdcount(ftime), fdsum(ftime, float(len))
	   from TCP where len > 0 group by time/2 as tb, dstIP`)
	if err != nil {
		t.Fatal(err)
	}
	for _, ooo := range []int{0, 32} {
		tuples := trace(20_000, ooo, 5) // ~4s of stream time at 5000 pkt/s
		for _, timeCol := range []string{"", "ftime"} {
			epoch := func() *gsql.EpochConfig {
				return &gsql.EpochConfig{
					Model:      m,
					Every:      0.25, // ~16 rolls across the trace, most mid-batch
					Time:       func(tp gsql.Tuple) (float64, bool) { return tp[1].AsFloat(), true },
					TimeColumn: timeCol,
				}
			}
			sRows, sRej, sN, sErr := scalarPushAll(t, st, tuples, gsql.Options{Epoch: epoch()})
			if len(sRows) == 0 {
				t.Fatal("epoch workload produced no rows")
			}
			for _, size := range batchSizes {
				bRows, bRej, bN, bErr := batchPushAll(t, st, tuples, size, gsql.Options{Epoch: epoch()})
				requireSameOutcome(t,
					fmt.Sprintf("ooo %d, timeCol %q, batch %d", ooo, timeCol, size),
					sRows, sRej, sN, sErr, bRows, bRej, bN, bErr)
			}
		}
	}
}

// TestPushBatchNonFinite: NaN and ±Inf floats at batch edges and interiors
// are rejected row-by-row with the same counts and the same surviving
// results as the scalar path's per-tuple *NonFiniteValueError skips.
func TestPushBatchNonFinite(t *testing.T) {
	e := parallelEngine(t)
	st, err := e.Prepare(`select tb, dstIP, count(*), sum(len) from TCP
	   where len > 0 group by time/60 as tb, dstIP`)
	if err != nil {
		t.Fatal(err)
	}
	tuples := trace(2_000, 0, 3)
	poison := []struct {
		idx int
		v   float64
	}{
		{0, math.NaN()}, {1, math.Inf(1)}, {63, math.NaN()}, {64, math.Inf(-1)},
		{100, math.NaN()}, {255, math.Inf(1)}, {256, math.NaN()}, {1999, math.Inf(-1)},
	}
	for _, p := range poison {
		tp := append(gsql.Tuple(nil), tuples[p.idx]...)
		tp[1] = gsql.Float(p.v)
		tuples[p.idx] = tp
	}
	sRows, sRej, sN, sErr := scalarPushAll(t, st, tuples, gsql.Options{})
	if sRej != len(poison) {
		t.Fatalf("scalar path rejected %d, want %d", sRej, len(poison))
	}
	for _, size := range batchSizes {
		bRows, bRej, bN, bErr := batchPushAll(t, st, tuples, size, gsql.Options{})
		requireSameOutcome(t, fmt.Sprintf("batch %d", size),
			sRows, sRej, sN, sErr, bRows, bRej, bN, bErr)
	}
}

// TestPushBatchErrorReplay: a mid-batch expression error (integer division
// by zero in the WHERE clause) must surface with the scalar path's exact
// message and with the tuple counter stopped at the scalar row.
func TestPushBatchErrorReplay(t *testing.T) {
	e := parallelEngine(t)
	st, err := e.Prepare(`select tb, count(*) from TCP
	   where 100/(len-150) > -1000000 group by time/60 as tb`)
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]gsql.Tuple, 200)
	for i := range tuples {
		tuples[i] = pkt2(int64(i/50), int64(i%16), 80, 100+int64(i%100))
	}
	tuples[137] = pkt2(2, 5, 80, 150) // divides by zero
	sRows, sRej, sN, sErr := scalarPushAll(t, st, tuples, gsql.Options{})
	if sErr == nil {
		t.Fatal("scalar path did not hit the division error")
	}
	for _, size := range batchSizes {
		bRows, bRej, bN, bErr := batchPushAll(t, st, tuples, size, gsql.Options{})
		requireSameOutcome(t, fmt.Sprintf("batch %d", size),
			sRows, sRej, sN, sErr, bRows, bRej, bN, bErr)
	}
}

// flowSchema is a packet stream with the operand and key classes the packet
// schema lacks: a string and a bool column, and a float column x that
// carries edge values.
func flowSchema() *gsql.Schema {
	return gsql.MustSchema("FLOW",
		gsql.Column{Name: "time", Type: gsql.TInt, Monotone: true},
		gsql.Column{Name: "ftime", Type: gsql.TFloat, Monotone: true},
		gsql.Column{Name: "host", Type: gsql.TString},
		gsql.Column{Name: "up", Type: gsql.TBool},
		gsql.Column{Name: "len", Type: gsql.TInt},
		gsql.Column{Name: "x", Type: gsql.TFloat},
	)
}

func flowEngine(t *testing.T) *gsql.Engine {
	t.Helper()
	e := gsql.NewEngine()
	if err := e.RegisterStream(flowSchema()); err != nil {
		t.Fatal(err)
	}
	return e
}

// flowEdges are the x values every 13th row carries: signed zeros,
// subnormals, the largest finite magnitudes, exp's overflow and underflow
// bounds, and the non-finite values the finite check rejects.
var flowEdges = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e308, -1e308, 709.78, 710,
	-745.1, -746, 0.5, -0.5, -2.5, math.Inf(1), math.NaN()}

// flowTuples maps a packet trace onto the FLOW stream; between edge rows x
// is a benign positive function of len.
func flowTuples(n int, seed uint64) []gsql.Tuple {
	out := make([]gsql.Tuple, n)
	for r, p := range trace(n, 0, seed) {
		x := float64(p[7].I) / 100
		if r%13 == 12 {
			x = flowEdges[(r/13)%len(flowEdges)]
		}
		out[r] = gsql.Tuple{p[0], p[1], gsql.Str(fmt.Sprintf("h%d", p[3].I%7)),
			gsql.Bool(p[5].I%2 == 0), p[7], gsql.Float(x)}
	}
	return out
}

// positiveX copies a FLOW tape with every x that is not positive and finite
// replaced by 1.5, so ln, log2 and sqrt of x cannot fail on it.
func positiveX(tuples []gsql.Tuple) []gsql.Tuple {
	out := make([]gsql.Tuple, len(tuples))
	for r, tp := range tuples {
		tp = append(gsql.Tuple(nil), tp...)
		if !(tp[5].F > 0 && tp[5].F < math.Inf(1)) {
			tp[5] = gsql.Float(1.5)
		}
		out[r] = tp
	}
	return out
}

// flowBatches slices FLOW tuples into batches of the given size.
func flowBatches(t *testing.T, tuples []gsql.Tuple, size int) []*gsql.Batch {
	t.Helper()
	return schemaBatches(t, flowSchema(), tuples, size)
}

// requireSameBits is requireIdentical to the bit: NaN payloads compare
// equal to themselves and -0 differs from +0.
func requireSameBits(t *testing.T, want, got []gsql.Tuple, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: want %d rows, got %d", label, len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s row %d: width %d vs %d", label, i, len(want[i]), len(got[i]))
		}
		for j, w := range want[i] {
			g := got[i][j]
			if w.T != g.T || w.I != g.I || w.S != g.S || math.Float64bits(w.F) != math.Float64bits(g.F) {
				t.Fatalf("%s row %d col %d: want %#v, got %#v", label, i, j, w, g)
			}
		}
	}
}

// kernelCase is one builtin over one operand, with the WHERE clause that
// keeps it inside its domain.
type kernelCase struct{ call, domain string }

var kernelCases = []kernelCase{
	{"exp(x)", ""}, {"exp(len)", ""}, {"exp(-len)", ""}, {"exp(up)", ""},
	{"exp(float(time%60)/10)", ""},
	{"floor(x)", ""}, {"ceil(x * 3)", ""}, {"floor(up)", ""}, {"ceil(len)", ""},
	{"abs(x)", ""}, {"abs(len - 800)", ""}, {"abs(up)", ""},
	{"pow(x, 0.5)", ""}, {"pow(len, x)", ""}, {"pow(up, len)", ""},
	{"ln(x)", "x > 0"}, {"ln(len)", ""}, {"ln(up)", "up"},
	{"log2(x)", "x > 0"}, {"log2(len - 39)", ""},
	{"sqrt(x)", "x >= 0"}, {"sqrt(len - 40)", ""}, {"sqrt(up)", ""},
}

// kernelQuery aggregates a builtin by a string and a time key.
func kernelQuery(c kernelCase, where string) string {
	if where != "" {
		where = " where " + where
	}
	return fmt.Sprintf("select tb, host, count(*), sum(%s), max(%s) from FLOW%s group by time/1 as tb, host",
		c.call, c.call, where)
}

// TestPushBatchBuiltinKernels: every builtin's column kernel, on int, bool
// and float operands through their edge values, folds bit-for-bit like the
// closure fold — and the domain errors of ln/log2/sqrt surface with the
// scalar message, the scalar tuple count and the scalar rows before the
// failing row.
func TestPushBatchBuiltinKernels(t *testing.T) {
	e := flowEngine(t)
	tuples := flowTuples(12_000, 17)
	// The domain-error tape: x stays positive except at one row, after
	// several buckets have been emitted.
	poisoned := positiveX(tuples)
	poisoned[10_321][5] = gsql.Float(-2.5)

	drive := func(label, q string, tape []gsql.Tuple, wantErr bool) {
		st, err := e.Prepare(q)
		if err != nil {
			t.Fatalf("prepare %q: %v", q, err)
		}
		sRows, sRej, sN, sErr := scalarPushAll(t, st, tape, gsql.Options{})
		if (sErr != nil) != wantErr {
			t.Fatalf("%s: scalar err %v, want error %v", label, sErr, wantErr)
		}
		if len(sRows) == 0 {
			t.Fatalf("%s: no rows before the end of the tape", label)
		}
		for _, size := range []int{1, 7, 64, 256} {
			var bRows []gsql.Tuple
			run := st.Start(func(row gsql.Tuple) error { bRows = append(bRows, row); return nil }, gsql.Options{})
			bRej, bErr := 0, error(nil)
			for _, b := range flowBatches(t, tape, size) {
				rej, err := run.PushBatch(b)
				bRej += rej
				if err != nil {
					bErr = err
					break
				}
			}
			if bErr == nil {
				if err := run.Close(); err != nil {
					t.Fatal(err)
				}
			}
			bN, _ := run.Stats()
			l := fmt.Sprintf("%s, batch %d", label, size)
			requireSameBits(t, sRows, bRows, l)
			if sRej != bRej || sN != bN {
				t.Fatalf("%s: scalar rejected %d of %d tuples, batch %d of %d", l, sRej, sN, bRej, bN)
			}
			if (sErr == nil) != (bErr == nil) || sErr != nil && sErr.Error() != bErr.Error() {
				t.Fatalf("%s: scalar err %v, batch err %v", l, sErr, bErr)
			}
		}
	}
	for _, c := range kernelCases {
		drive(c.call, kernelQuery(c, c.domain), tuples, false)
	}
	for _, call := range []string{"ln(x)", "log2(x)", "sqrt(x)"} {
		drive(call+" domain error", kernelQuery(kernelCase{call: call}, ""), poisoned, true)
	}
}

// TestMultiBatchBuiltinKernels: two members of one MultiRun sharing a
// builtin (one predicate class, the same argument expression) fold through
// MultiRun.PushBatch exactly as standalone runs fold through the closure
// fold —
// rows and checkpoint bytes — and on a poisoned tape every member's failed
// rows cost it only themselves, whatever the frame size.
func TestMultiBatchBuiltinKernels(t *testing.T) {
	e := flowEngine(t)
	tuples := flowTuples(4_000, 19)
	members := func(c kernelCase) []string {
		where := ""
		if c.domain != "" {
			where = " where " + c.domain
		}
		return []string{
			fmt.Sprintf("select tb, host, sum(%s) from FLOW%s group by time/1 as tb, host", c.call, where),
			fmt.Sprintf("select tb, up, count(*), max(%s) from FLOW%s group by time/1 as tb, up", c.call, where),
		}
	}
	attach := func(qs []string) (*gsql.MultiRun, []*gsql.MultiHandle, []*[]gsql.Tuple) {
		m, err := gsql.NewMultiRun(e, "FLOW", gsql.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hs := make([]*gsql.MultiHandle, len(qs))
		rows := make([]*[]gsql.Tuple, len(qs))
		for i, q := range qs {
			got := &[]gsql.Tuple{}
			if hs[i], err = m.Attach(q, 0, func(r gsql.Tuple) error { *got = append(*got, r); return nil }); err != nil {
				t.Fatalf("attach %q: %v", q, err)
			}
			rows[i] = got
		}
		return m, hs, rows
	}
	// finish checkpoints every member, then closes the runtime.
	finish := func(m *gsql.MultiRun, hs []*gsql.MultiHandle) [][]byte {
		ckpts := make([][]byte, len(hs))
		for i, h := range hs {
			var err error
			if ckpts[i], err = h.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.CloseAll(); err != nil {
			t.Fatal(err)
		}
		return ckpts
	}

	for _, c := range kernelCases {
		qs := members(c)
		m, hs, rows := attach(qs)
		for _, b := range flowBatches(t, tuples, 64) {
			if _, err := m.PushBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		ckpts := finish(m, hs)
		for i, q := range qs {
			want, wantCkpt := flowStandalone(t, e, q, tuples)
			requireSameBits(t, want, *rows[i], fmt.Sprintf("%s member %d", c.call, i))
			if !bytes.Equal(wantCkpt, ckpts[i]) {
				t.Errorf("%s member %d: checkpoint differs from the standalone scalar run", c.call, i)
			}
		}
	}

	// The frame-size differential. Seeded poison rows at random positions —
	// a negative x for ln, log2 and sqrt, in WHERE and in aggregate arguments; a
	// len of 100 for a division by zero, with one burst that trips the
	// breaker, and one whose failures only the WHERE member's rejected rows
	// separate, which trips it too — and a sink that refuses seeded calls.
	// At every frame size,
	// Push's one-row frames included, each member must match a standalone
	// closure-fold run that goes on past its errors: rows, checkpoint, tuple
	// count and error counters, and the breaker's trip row.
	const breaker = 3
	poisoned := positiveX(tuples)
	for r, tp := range poisoned { // a bucket every 100 rows: 40 flushes
		tp[0], tp[1] = gsql.Int(int64(r/100)), gsql.Float(float64(r)/100)
	}
	rng := core.NewRNG(23)
	for i := 0; i < len(poisoned)/50; i++ {
		if r := rng.Intn(len(poisoned)); i%2 == 0 {
			poisoned[r][5] = gsql.Float(-2.5)
		} else {
			poisoned[r][4] = gsql.Int(100)
		}
	}
	for r := len(poisoned) * 3 / 4; r < len(poisoned)*3/4+breaker; r++ {
		poisoned[r][4] = gsql.Int(100)
	}
	for r := 0; r < 2*breaker-1; r++ {
		poisoned[len(poisoned)/4+r][5] = gsql.Float([]float64{-2.5, 0.5}[r%2])
	}
	refused := map[int]bool{}
	for len(refused) < 6 {
		refused[1+rng.Intn(200)] = true
	}
	poisonQs := []string{
		"select tb, host, sum(ln(x)) from FLOW group by time/1 as tb, host",
		"select tb, up, count(*), max(sqrt(x)), min(log2(x)) from FLOW group by time/1 as tb, up",
		"select tb, host, count(*) from FLOW where ln(x) > 0 group by time/1 as tb, host",
		"select tb, sum(len / (len - 100)) from FLOW group by time/1 as tb",
		"select tb, host, count(*), sum(len) from FLOW group by time/1 as tb, host",
	}
	sinkFor := func(i int, rows *[]gsql.Tuple) func(gsql.Tuple) error {
		calls := 0
		return func(r gsql.Tuple) error {
			calls++
			if i == len(poisonQs)-1 && refused[calls] {
				return errors.New("sink refused the row")
			}
			*rows = append(*rows, r)
			return nil
		}
	}
	want := make([]memberOutcome, len(poisonQs))
	for i, q := range poisonQs {
		want[i] = memberOracle(t, e, q, poisoned, breaker, func(rows *[]gsql.Tuple) func(gsql.Tuple) error { return sinkFor(i, rows) })
		if want[i].errs == 0 {
			t.Fatalf("member %d: the tape never fails it", i)
		}
	}
	if !want[3].fenced || !want[2].fenced || want[0].fenced || want[1].fenced {
		t.Fatal("the bursts do not trip exactly the breakers they aim at")
	}
	for _, size := range []int{1, 7, 64, 4096} {
		m, err := gsql.NewMultiRun(e, "FLOW", gsql.Options{Isolate: &gsql.IsolateConfig{BreakerErrors: breaker}})
		if err != nil {
			t.Fatal(err)
		}
		hs := make([]*gsql.MultiHandle, len(poisonQs))
		rows := make([][]gsql.Tuple, len(poisonQs))
		for i, q := range poisonQs {
			if hs[i], err = m.Attach(q, 0, sinkFor(i, &rows[i])); err != nil {
				t.Fatalf("attach %q: %v", q, err)
			}
		}
		if size == 1 {
			for _, tp := range poisoned {
				if err := m.Push(tp); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for _, b := range flowBatches(t, poisoned, size) {
				if _, err := m.PushBatch(b); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, h := range hs {
			l := fmt.Sprintf("frame %d member %d", size, i)
			w := want[i]
			ckpt, err := h.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			closeErr := h.Close()
			requireSameBits(t, w.rows, rows[i], l)
			if !bytes.Equal(w.ckpt, ckpt) {
				t.Errorf("%s: checkpoint differs from the standalone run", l)
			}
			qs := h.QueryStats()
			if qs.Errors != w.errs || qs.ConsecErrors != w.consec || qs.Tuples != w.tuples || qs.Quarantined != w.fenced {
				t.Errorf("%s: %d errors (streak %d) over %d tuples, fenced %v; standalone %d (streak %d) over %d, fenced %v",
					l, qs.Errors, qs.ConsecErrors, qs.Tuples, qs.Quarantined, w.errs, w.consec, w.tuples, w.fenced)
			}
			if fmt.Sprint(closeErr) != fmt.Sprint(w.closeErr) {
				t.Errorf("%s: close error %v, standalone %v", l, closeErr, w.closeErr)
			}
		}
	}
}

// memberOutcome is what a catalog member shows after a tape: its rows,
// checkpoint, error counters and tuple count, and whether it was fenced.
type memberOutcome struct {
	rows     []gsql.Tuple
	ckpt     []byte
	errs     uint64
	consec   int
	tuples   uint64
	fenced   bool
	closeErr error
}

// memberOracle runs q alone through the closure fold (gsql.OraclePush) the
// way the catalog runs a member: a failed row is counted and the run goes on with the next one, a
// row that folds ends the streak (one its WHERE rejects folds nothing and
// leaves it), and breaker consecutive failures fence the run at that row.
// Non-finite rows are skipped, as every scalar caller does.
func memberOracle(t *testing.T, e *gsql.Engine, q string, tape []gsql.Tuple, breaker int,
	sink func(*[]gsql.Tuple) func(gsql.Tuple) error) memberOutcome {
	t.Helper()
	st, err := e.Prepare(q)
	if err != nil {
		t.Fatalf("prepare %q: %v", q, err)
	}
	var o memberOutcome
	run := st.Start(sink(&o.rows), gsql.Options{})
	where := gsql.OracleWhere(st)
	var nfe *gsql.NonFiniteValueError
	for _, tp := range tape {
		err := gsql.OraclePush(run, tp)
		switch {
		case err == nil:
			if where != nil {
				if v, _ := where(tp); !v.Truthy() {
					continue
				}
			}
			o.consec = 0
			continue
		case errors.As(err, &nfe):
			continue
		}
		o.errs++
		o.consec++
		if o.consec >= breaker {
			o.fenced = true
			break
		}
	}
	if o.ckpt, err = run.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	o.tuples, _ = run.Stats()
	if !o.fenced {
		o.closeErr = run.Close()
	}
	return o
}

// flowStandalone runs one FLOW query through the closure fold, skipping the
// non-finite rows as every scalar caller does, and returns its rows and
// final checkpoint.
func flowStandalone(t *testing.T, e *gsql.Engine, q string, tuples []gsql.Tuple) ([]gsql.Tuple, []byte) {
	t.Helper()
	st, err := e.Prepare(q)
	if err != nil {
		t.Fatalf("prepare %q: %v", q, err)
	}
	var rows []gsql.Tuple
	run := st.Start(func(r gsql.Tuple) error { rows = append(rows, r); return nil }, gsql.Options{})
	for _, tp := range tuples {
		if err := gsql.OraclePush(run, tp); err != nil {
			var nfe *gsql.NonFiniteValueError
			if !errors.As(err, &nfe) {
				t.Fatalf("standalone push: %v", err)
			}
		}
	}
	ckpt, err := run.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	return rows, ckpt
}

// TestPushBatchCheckpointEquivalence: a checkpoint cut at a batch boundary
// restores into a run whose continuation matches the uninterrupted closure
// fold bit-for-bit (the query's aggregates are order-insensitive, so a
// kill-recover cycle emits exactly the uninterrupted rows).
func TestPushBatchCheckpointEquivalence(t *testing.T) {
	e := parallelEngine(t)
	st, err := e.Prepare(ckptQueryExact)
	if err != nil {
		t.Fatal(err)
	}
	tuples := trace(12_000, 0, 7)
	const cut = 7_936 // 31 × 256: a batch boundary for every size used
	want, _, _, err := scalarPushAll(t, st, tuples, gsql.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, size := range []int{64, 256} {
		var rows []gsql.Tuple
		sink := func(row gsql.Tuple) error { rows = append(rows, row); return nil }
		run := st.Start(sink, gsql.Options{})
		for _, b := range toBatches(t, tuples[:cut], size) {
			if _, err := run.PushBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		ckpt, err := run.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		restored, err := st.Restore(ckpt, sink, gsql.Options{})
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		for _, b := range toBatches(t, tuples[cut:], size) {
			if _, err := restored.PushBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := restored.Close(); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, want, rows, fmt.Sprintf("batch %d kill-recover", size))
	}
}

// TestPushBatchEquivalenceParallel: the sharded batch path (coordinator-side
// vectorized WHERE/group kernels, gv-shipping, epoch quiesce between
// segments) reproduces the sharded scalar Push output bit-for-bit at every
// shard count. The baseline is parallel scalar Push, not the serial run:
// fd* aggregates under epoch shifts are merge-order sensitive at the last
// ULP between the serial and sharded runtimes (a pre-existing property of
// the two-level merge, independent of batching), and the batch path's
// contract is "identical to Pushing the same rows into the same runtime".
func TestPushBatchEquivalenceParallel(t *testing.T) {
	m := decay.NewForward(decay.NewExp(0.5), 0)
	e := fdEngine(t, m)
	queries := []string{
		`select tb, dstIP, destPort, count(*), sum(len), min(len), max(len)
		   from TCP where len > 100 group by time/60 as tb, dstIP, destPort`,
		`select tb, dstIP, count(*), fdcount(ftime), fdsum(ftime, float(len))
		   from TCP group by time/2 as tb, dstIP`,
	}
	epoch := func() *gsql.EpochConfig {
		return &gsql.EpochConfig{
			Model:      m,
			Every:      0.25,
			Time:       func(tp gsql.Tuple) (float64, bool) { return tp[1].AsFloat(), true },
			TimeColumn: "ftime",
		}
	}
	tuples := trace(20_000, 0, 13)
	for qi, q := range queries {
		st, err := e.Prepare(q)
		if err != nil {
			t.Fatalf("prepare %q: %v", q, err)
		}
		for _, shards := range []int{1, 2, 4} {
			popts := func() gsql.ParallelOptions {
				po := gsql.ParallelOptions{Shards: shards, BatchSize: 64}
				if qi == 1 {
					po.Epoch = epoch()
				}
				return po
			}
			var want []gsql.Tuple
			pr, err := st.StartParallel(func(row gsql.Tuple) error { want = append(want, row); return nil }, popts())
			if err != nil {
				t.Fatal(err)
			}
			for _, tp := range tuples {
				if err := pr.Push(tp); err != nil {
					t.Fatal(err)
				}
			}
			if err := pr.Close(); err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("query %d produced no rows", qi)
			}
			for _, size := range []int{64, 256} {
				var rows []gsql.Tuple
				pb, err := st.StartParallel(func(row gsql.Tuple) error { rows = append(rows, row); return nil }, popts())
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range toBatches(t, tuples, size) {
					if _, err := pb.PushBatch(b); err != nil {
						t.Fatal(err)
					}
				}
				if err := pb.Close(); err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, want, rows,
					fmt.Sprintf("query %d, %d shards, batch %d", qi, shards, size))
			}
		}
	}
}

// TestPushBatchSteadyStateAllocs guards the batch hot path's allocation-free
// property: once groups and kernel scratch exist, a whole PushBatch cycle —
// finite scan, vectorized WHERE, group kernels, keys written from the kernel
// columns, key runs, batched aggregate stepping — must not allocate, for
// numeric keys as for string keys, and with a builtin's kernel (exp) in an
// aggregate argument.
func TestPushBatchSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	cases := []struct {
		name   string
		e      *gsql.Engine
		schema *gsql.Schema
		query  string
		tuples []gsql.Tuple
	}{
		{"numeric-key", parallelEngine(t), gsql.PacketSchema("TCP"), `select tb, dstIP, count(*), sum(len), avg(float(len))
		   from TCP where len > 0 and destPort = 80 group by time/60 as tb, dstIP`, nil},
		{"string-key-exp", flowEngine(t), flowSchema(), `select tb, host, up, count(*), sum(float(len)*exp(float(time%60)/10))
		   from FLOW where len > 0 group by time/60 as tb, host, up`, flowTuples(64, 23)},
		{"decayed", fdEngine(t, decay.NewForward(decay.NewExp(0.1), 0)), gsql.PacketSchema("TCP"),
			`select tb, fdcount(ftime), fdsum(ftime, float(len)), fdavg(ftime, float(len)), fdvar(ftime, float(len)),
			   fdhh(dstIP, ftime) from TCP group by time/60 as tb`, nil},
	}
	for i := 0; i < 64; i++ {
		cases[0].tuples = append(cases[0].tuples, pkt2(30, int64(i%16), 80, 100+int64(i)))
		fd := pkt2(30, int64(i%16), 80, 100+int64(i))
		fd[1] = gsql.Float(30 + float64(i/2)/32) // runs of two equal timestamps
		cases[2].tuples = append(cases[2].tuples, fd)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, err := c.e.Prepare(c.query)
			if err != nil {
				t.Fatal(err)
			}
			run := st.Start(func(gsql.Tuple) error { return nil }, gsql.Options{})
			b, err := gsql.NewBatch(c.schema)
			if err != nil {
				t.Fatal(err)
			}
			for _, tp := range c.tuples {
				if err := b.Append(tp); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := run.PushBatch(b); err != nil { // warm groups + scratch
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(500, func() {
				if _, err := run.PushBatch(b); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("steady-state PushBatch allocates %.2f objects/op, want 0", avg)
			}
			if err := run.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
