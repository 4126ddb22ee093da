package gsql_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/gsql"
	"forwarddecay/internal/codec"
	"forwarddecay/internal/codec/codectest"
	"forwarddecay/udaf"
)

// FuzzCheckpointDecode drives the checkpoint decoder with arbitrary bytes.
// Contract: corrupt input returns an error — never a panic, never a partial
// run, never an allocation past the codectest bound — and input that does
// decode yields a run that can push tuples and close. Almost every mutation
// of a sealed checkpoint fails the integrity hash, so each input is also
// restored re-sealed: the mutator then reaches the header, group-entry and
// aggregate-blob parsers behind the hash. Seeded with real checkpoints
// (empty, mid-window, fdpct) and their bodies.
func FuzzCheckpointDecode(f *testing.F) {
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		f.Fatal(err)
	}
	st, err := e.Prepare(`select tb, dstIP, count(*), sum(len), avg(float(len)), min(len), max(len)
	  from TCP group by time/60 as tb, dstIP`)
	if err != nil {
		f.Fatal(err)
	}
	nop := func(gsql.Tuple) error { return nil }

	run := st.Start(nop, gsql.Options{})
	ckpt0, err := run.Checkpoint() // empty-state checkpoint
	if err != nil {
		f.Fatal(err)
	}
	for _, tp := range trace(3_000, 0, 41) {
		if err := run.Push(tp); err != nil {
			f.Fatal(err)
		}
	}
	ckpt1, err := run.Checkpoint() // mid-window, populated
	if err != nil {
		f.Fatal(err)
	}
	pct, pctBody, mixed := quantileCheckpoints(f)
	for _, ck := range [][]byte{ckpt0, ckpt1, codec.Seal(pctBody)} {
		f.Add(ck)
		f.Add(ck[:len(ck)-8])
	}
	f.Add(mixed)
	f.Add([]byte{})
	f.Add([]byte("FDC"))

	// fdpct's restored partials may carry a decay model or a domain of their
	// own: Restore refuses them only where it merges two (duplicate
	// entries), and otherwise the flush's merge with a partial born after
	// the restore reports them. Closing such a run may fail — never panic.
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, codec.Seal(bytes.Clone(data))} {
			for _, st := range []*gsql.Statement{st, pct} {
				var r *gsql.Run
				codectest.Allocs(t, len(in), func() { r, err = st.Restore(in, nop, gsql.Options{}) })
				if err == nil {
					if err := r.Push(pkt2(100, 1, 80, 50)); err != nil {
						t.Fatalf("restored run rejects a valid tuple: %v", err)
					}
					if err := r.Close(); err != nil && st != pct {
						t.Fatalf("restored run fails to close: %v", err)
					}
				}
			}
		}
	})
}

// quantileCheckpoints prepares fdpct over a 2^16 value domain and returns
// it with two checkpoint bodies (unsealed): one of a run over a one-group
// tape, and one that holds two partials of that group — that run's, and the
// same tape's over a 2^10 domain. Restore folds the two through Merge,
// which must refuse the mismatch.
func quantileCheckpoints(tb testing.TB) (st *gsql.Statement, body, mixed []byte) {
	prepare := func(u uint64) *gsql.Statement {
		e := gsql.NewEngine()
		if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
			tb.Fatal(err)
		}
		cfg := udaf.Config{Decay: decay.NewForward(decay.NewExp(0.01), 0), QuantileU: u}
		if err := udaf.RegisterAll(e, cfg); err != nil {
			tb.Fatal(err)
		}
		st, err := e.Prepare(`select dstIP, fdpct(len, ftime) from TCP group by dstIP`)
		if err != nil {
			tb.Fatal(err)
		}
		return st
	}
	bodyOf := func(st *gsql.Statement, tape []gsql.Tuple) []byte {
		run := st.Start(func(gsql.Tuple) error { return nil }, gsql.Options{})
		for _, tp := range tape {
			if err := run.Push(tp); err != nil {
				tb.Fatal(err)
			}
		}
		ck, err := run.Checkpoint()
		if err != nil {
			tb.Fatal(err)
		}
		return ck[:len(ck)-8]
	}
	st = prepare(1 << 16)
	var tape []gsql.Tuple
	for sec := int64(0); sec < 200; sec++ {
		tape = append(tape, pkt2(sec, 1, 80, sec*37%1500))
	}
	body, narrow := bodyOf(st, tape), bodyOf(prepare(1<<10), tape)
	at := len(bodyOf(st, nil)) // the entries start after the header and their count
	mixed = append(codec.AppendU64(bytes.Clone(body[:at-8]), 2), body[at:]...)
	return st, body, append(mixed, narrow[at:]...)
}

// FuzzQuery drives the lexer, parser and planner with arbitrary query
// text, and the two row paths with every query that prepares. Prepare must
// reject garbage with an error, never panic, for any byte sequence —
// including invalid UTF-8 and deeply nested expressions. A prepared query is
// a batch ≡ scalar oracle: one fixed three-batch tape folded through
// PushBatch and, row by row, through the closure fold (gsql.OraclePush,
// whose rows go through the HAVING and select-item closures) must emit the
// same rows to the bit, fail with the same error text and count the same
// Stats() — once at the default low-table size and once at 4 slots, where
// collisions, evictions, high-table lookups and flush merges run on every
// bucket, and once more into sinks that stop at their second row, mid-flush
// wherever a flush emits two rows or more. Each time the query also folds
// twice, beside a count(*) sibling on its key list, through one MultiRun,
// where the three share a key table (fuzzShared). Every prepared statement,
// catalog member and class predicate has a kernel plan.
func FuzzQuery(f *testing.F) {
	seeds := []string{
		`select tb, dstIP, count(*) from TCP group by time/60 as tb, dstIP`,
		`select tb, dstIP, count(*), sum(len), avg(float(len)), min(len), max(len)
		   from TCP group by time/60 as tb, dstIP having count(*) > 3`,
		`select tb, proto, count(*) from TCP where len > 200 and proto = 6 group by time/60 as tb, proto`,
		`select tb, sum(float(len)*(time % 60))/60 from TCP group by time/60 as tb`,
		`select`, `select * from`, `((((((`, `select "unterminated`,
		`select 1e309 from TCP group by time/60 as tb`,
		// Every builtin, and string, bool, float and dynamically typed keys.
		`select tb, host, count(*), sum(float(len)*exp(float(time%60)/10)) from TCP group by time/1 as tb, host`,
		`select up, count(*), avg(ln(float(len))), max(log2(len)), min(sqrt(float(len) - 100)) from TCP group by up`,
		`select fb, count(*), sum(pow(ftime, 0.5)), max(abs(srcPort - destPort)) from TCP group by floor(ftime) as fb`,
		`select tb, len > 500, min(ceil(ftime * 3)), sum(abs(up)), max(int(ftime)) from TCP group by time/1 as tb, len > 500`,
		`select tb, -host, count(*) from TCP where host != 'h3' group by time/1 as tb, -host`,
		`select tb, 'k', count(*), sum(1000 / len) from TCP group by time/1 as tb, 'k'`,
		`select h, count(*) from TCP where up and exp(len) > 1e300 group by host as h having count(*) > 1`,
		// Word keys: negative ints, both float zeros, bools, five columns.
		`select tb, srcPort - destPort, count(*), sum(len) from TCP group by time/1 as tb, srcPort - destPort`,
		`select fz, count(*), min(ftime), max(len) from TCP group by -(float(len - 500)*0) as fz`,
		`select up, len > 500, count(*), avg(len), max(ftime) from TCP group by up, len > 500`,
		`select tb, srcIP, dstIP, srcPort, destPort, count(*), sum(len), min(ftime)
		   from TCP group by time/1 as tb, srcIP, dstIP, srcPort, destPort`,
		// Planted failures: slot 1's argument on the first 80 rows (slot 0
		// steps them), and a boxed compare in WHERE on the zero-length row.
		`select tb, host, sum(len), sum(ln(ftime - 2)) from TCP group by time/1 as tb, host`,
		`select tb, host, count(*) from TCP where (len = 0 and host > len) or len > 0 group by time/1 as tb, host`,
		// The projection: HAVING failing on a bucket's first group of three
		// rows, after groups it emits and groups it drops; computed outputs
		// over string and NULL finals; a select item failing on the first
		// group of four rows HAVING keeps.
		`select tb, dstIP, count(*) from TCP group by time/1 as tb, dstIP having 1/(count(*) - 3) >= 0`,
		`select tb, up, min(host) < 'h2', max(host) = min(host), -max(host), sum(ftime*0.0/0.0) + 1,
		   not avg(ftime*0.0/0.0), min(host) from TCP group by time/1 as tb, up`,
		`select tb, dstIP, count(*), count(*) > 4 or max(host) > count(*)
		   from TCP group by time/1 as tb, dstIP having count(*) > 1`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	e := gsql.NewEngine()
	schema := fuzzSchema()
	if err := e.RegisterStream(schema); err != nil {
		f.Fatal(err)
	}
	tape, batches := fuzzTape(f, schema)
	f.Fuzz(func(t *testing.T, query string) {
		// Bound pathological inputs: the parser is recursive-descent, so a
		// megabyte of '(' would legitimately exhaust the stack. Real queries
		// are tiny; the contract is no panic on any plausible input size.
		if len(query) > 4096 {
			return
		}
		st, err := e.Prepare(query)
		if err != nil {
			if !strings.Contains(err.Error(), "gsql") {
				t.Fatalf("error without package prefix: %v", err)
			}
			return
		}
		if !gsql.VecPlanned(st) {
			t.Fatalf("%q: prepared without a kernel plan", query)
		}
		for _, opts := range []gsql.Options{{}, {LowLevelSlots: 4}} {
			fuzzSameFold(t, st, query, tape, batches, opts, 0)
			fuzzShared(t, e, query, tape, batches, opts)
		}
		fuzzSameFold(t, st, query, tape, batches, gsql.Options{}, 2)
	})
}

// stepAggs is every registered aggregate with its arity; stepArgs are
// argument expressions over fuzzSchema, by static type: int, float (one a
// run of equal values per bucket, two sometimes ±Inf, one always NaN), bool,
// string and dynamically typed.
var (
	stepAggs = []struct {
		name string
		n    int
	}{
		{"count", 0}, {"count", 1}, {"sum", 1}, {"avg", 1}, {"min", 1}, {"max", 1},
		{"prisamp", 2}, {"wrsamp", 2}, {"ressamp", 1}, {"aggsamp", 1}, {"sshh", 2}, {"unaryhh", 1},
		{"swhh", 3}, {"ehsum", 2}, {"fdquant", 2}, {"fddistinct", 2},
		{"fdcount", 1}, {"fdsum", 2}, {"fdavg", 2}, {"fdvar", 2}, {"fdmin", 2}, {"fdmax", 2},
		{"fdhh", 2}, {"fdpct", 2}, {"fdcard", 2}, {"fdprisamp", 2}, {"fdwrsamp", 2},
	}
	stepArgs = []string{
		"len", "srcPort - destPort", "dstIP", "time",
		"ftime", "float(len)", "float(time)", "float(len)/float(len%7)", "exp(float(len))", "ftime*0.0/0.0",
		"up", "len > 500", "host", "'k'", "-host", "host + len",
	}
)

// FuzzStepColumns is the column-step oracle over every registered
// aggregate: a query of one aggregate over fuzzed arguments — beside the
// fd* moments over its first two, which share one frame, when mix is odd —
// folds FuzzQuery's tape through the closure fold (Step per row) and through
// PushBatch and a MultiRun (StepCols per key run), which must agree on rows
// to the bit, errors, Stats() and checkpoint bytes (fuzzSameFold,
// fuzzShared).
func FuzzStepColumns(f *testing.F) {
	for ai := range stepAggs {
		f.Add(uint8(ai), uint8(ai), uint8(ai+4), uint8(ai+10), uint8(ai))
	}
	e := gsql.NewEngine()
	schema := fuzzSchema()
	if err := e.RegisterStream(schema); err != nil {
		f.Fatal(err)
	}
	if err := udaf.RegisterAll(e, udaf.Config{Decay: decay.NewForward(decay.NewExp(0.5), 0), SampleSize: 4}); err != nil {
		f.Fatal(err)
	}
	tape, batches := fuzzTape(f, schema)
	f.Fuzz(func(t *testing.T, ai, a0, a1, a2, mix uint8) {
		spec := stepAggs[int(ai)%len(stepAggs)]
		args := []string{stepArgs[int(a0)%len(stepArgs)], stepArgs[int(a1)%len(stepArgs)], stepArgs[int(a2)%len(stepArgs)]}
		call := spec.name + "(" + strings.Join(args[:spec.n], ", ") + ")"
		if spec.n == 0 {
			call = spec.name + "(*)"
		}
		if mix%2 == 1 {
			ts, v := args[0], args[1]
			call += fmt.Sprintf(", fdcount(%[1]s), fdsum(%[1]s, %[2]s), fdavg(%[1]s, %[2]s), fdvar(%[1]s, %[2]s)", ts, v)
		}
		query := "select tb, " + call + " from TCP group by time/1 as tb"
		st, err := e.Prepare(query)
		if err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		for _, opts := range []gsql.Options{{}, {LowLevelSlots: 4}} {
			fuzzSameFold(t, st, query, tape, batches, opts, 0)
			fuzzShared(t, e, query, tape, batches, opts)
		}
	})
}

// fuzzSameFold folds FuzzQuery's tape through the closure fold
// (gsql.OraclePush) and through PushBatch under opts and requires the same
// rows to the bit, the same error and the same Stats(). With stopAt > 0 both
// sinks return SinkStop on their stopAt-th row.
func fuzzSameFold(t *testing.T, st *gsql.Statement, query string, tape []gsql.Tuple, batches []*gsql.Batch, opts gsql.Options, stopAt int) {
	var sRows, bRows []gsql.Tuple
	collect := func(rows *[]gsql.Tuple) func(gsql.Tuple) error {
		return func(r gsql.Tuple) error {
			if *rows = append(*rows, r); len(*rows) == stopAt {
				return gsql.SinkStop()
			}
			return nil
		}
	}
	scalar := st.Start(collect(&sRows), opts)
	batch := st.Start(collect(&bRows), opts)
	sRej, sErr := 0, error(nil)
	for _, tp := range tape {
		if err := gsql.OraclePush(scalar, tp); err != nil {
			var nfe *gsql.NonFiniteValueError
			if errors.As(err, &nfe) {
				sRej++
				continue
			}
			sErr = err
			break
		}
	}
	bRej, bErr := 0, error(nil)
	for _, b := range batches {
		rej, err := batch.PushBatch(b)
		bRej += rej
		if err != nil {
			bErr = err
			break
		}
	}
	if sErr == nil {
		sErr = scalar.Close()
	}
	if bErr == nil {
		bErr = batch.Close()
	}
	if (sErr == nil) != (bErr == nil) || sErr != nil && sErr.Error() != bErr.Error() {
		t.Fatalf("%q %+v stop at %d: Push err %v, PushBatch err %v", query, opts, stopAt, sErr, bErr)
	}
	sN, sEv := scalar.Stats()
	bN, bEv := batch.Stats()
	if sRej != bRej || sN != bN || sEv != bEv {
		t.Fatalf("%q %+v stop at %d: Push rejected %d, counted %d, evicted %d; PushBatch %d, %d, %d",
			query, opts, stopAt, sRej, sN, sEv, bRej, bN, bEv)
	}
	requireSameBits(t, sRows, bRows, fmt.Sprintf("%q %+v stop at %d: Push vs PushBatch", query, opts, stopAt))
}

// fuzzShared attaches query twice, beside a count(*) sibling with its WHERE
// and key list, to one MultiRun fed FuzzQuery's batches: every member's
// rows, checkpoint, Stats() and close error must be those of a standalone
// run through the closure fold that, as a catalog member does, goes on past
// a failed row.
func fuzzShared(t *testing.T, e *gsql.Engine, query string, tape []gsql.Tuple, batches []*gsql.Batch, opts gsql.Options) {
	queries := []string{query, query}
	if i := indexFold(query, " from "); i >= 0 {
		rest := query[i:]
		if j := indexFold(rest, " having "); j >= 0 {
			rest = rest[:j]
		}
		if _, err := e.Prepare("select count(*)" + rest); err == nil {
			queries = append(queries, "select count(*)"+rest)
		}
	}
	m, err := gsql.NewMultiRun(e, "TCP", opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]*gsql.MultiHandle, len(queries))
	rows := make([][]gsql.Tuple, len(queries))
	for i, q := range queries {
		if hs[i], err = m.Attach(q, 0, func(r gsql.Tuple) error { rows[i] = append(rows[i], r); return nil }); err != nil {
			t.Fatalf("%q: attach: %v", q, err)
		}
	}
	if !gsql.CatalogVecPlanned(m) {
		t.Fatalf("%q: a catalog member or class predicate has no kernel plan", query)
	}
	for _, b := range batches {
		if _, err := m.PushBatch(b); err != nil {
			t.Fatalf("%q: PushBatch: %v", query, err)
		}
	}
	for i, q := range queries {
		ckpt, ckErr := hs[i].Checkpoint()
		n, ev := hs[i].Stats()
		closeErr := hs[i].Close()

		st, err := e.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		var want []gsql.Tuple
		run := st.Start(func(r gsql.Tuple) error { want = append(want, r); return nil }, opts)
		for _, tp := range tape {
			_ = gsql.OraclePush(run, tp) // a failed row costs a member only itself
		}
		wantCkpt, wantCkErr := run.Checkpoint()
		wn, wev := run.Stats()
		wantClose := run.Close()
		label := fmt.Sprintf("%q %+v: member %d (%q) vs its standalone run", query, opts, i, q)
		if fmt.Sprint(ckErr) != fmt.Sprint(wantCkErr) || !bytes.Equal(ckpt, wantCkpt) {
			t.Fatalf("%s: checkpoints differ (errors %v, %v)", label, ckErr, wantCkErr)
		}
		if n != wn || ev != wev || fmt.Sprint(closeErr) != fmt.Sprint(wantClose) {
			t.Fatalf("%s: Stats %d/%d vs %d/%d, close error %v vs %v", label, n, ev, wn, wev, closeErr, wantClose)
		}
		requireSameBits(t, want, rows[i], label)
	}
}

// indexFold is strings.Index under ASCII case folding, in s's own byte
// offsets (strings.ToLower may change the length of invalid UTF-8).
func indexFold(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if strings.EqualFold(s[i:i+len(sub)], sub) {
			return i
		}
	}
	return -1
}

// fuzzSchema is the packet stream with a string and a bool column added, so
// fuzzed queries reach string and bool keys and operands.
func fuzzSchema() *gsql.Schema {
	cols := append([]gsql.Column(nil), gsql.PacketSchema("TCP").Cols...)
	cols = append(cols, gsql.Column{Name: "host", Type: gsql.TString}, gsql.Column{Name: "up", Type: gsql.TBool})
	return gsql.MustSchema("TCP", cols...)
}

// fuzzTape is FuzzQuery's fixed tape: a packet trace spanning several
// one-second buckets, with a non-finite row in the second batch and a
// zero-length packet (a divisor of zero) in the third, as tuples and as
// three batches.
func fuzzTape(f *testing.F, s *gsql.Schema) ([]gsql.Tuple, []*gsql.Batch) {
	const perBatch = 100
	var tape []gsql.Tuple
	for r, p := range trace(3*perBatch, 0, 53) {
		tp := append(p, gsql.Str(fmt.Sprintf("h%d", p[3].I%5)), gsql.Bool(p[7].I > 500))
		tp[0] = gsql.Int(int64(r / 40)) // a new bucket every 40 rows
		tp[1] = gsql.Float(float64(r) / 40)
		tape = append(tape, tp)
	}
	tape[perBatch+17][1] = gsql.Float(math.NaN())
	tape[2*perBatch+31][7] = gsql.Int(0)
	return tape, schemaBatches(f, s, tape, perBatch)
}
