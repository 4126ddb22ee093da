package gsql

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"forwarddecay/decay"
)

// FuzzCanonicalize guards the property the multi-query runtime's sharing
// rests on: the canonical form (the AST's lowercased, fully parenthesized
// String()) is a fixed point of parsing. Canonical keys name predicate
// classes (the WHERE) and key-table identities (the group key list). Any
// text that parses must re-parse from its canonical form to the same
// canonical form — otherwise two spellings of one filter or key list could
// land in different classes or tables, or worse, two different ones in the
// same.
func FuzzCanonicalize(f *testing.F) {
	seeds := []string{
		`select tb, count(*) from TCP group by time/60 as tb`,
		`select tb, dstIP, sum(len), avg(float(len)) from TCP where len > 200 group by time/60 as tb, dstIP`,
		`select TB, COUNT(*) from tcp WHERE (LEN*8) > 256 and destPort=80 group by TIME / 60 as TB`,
		`select tb, count(*) from TCP where not (len < 10 or len > 1000) group by time/60 as tb having count(*) > 2`,
		`select tb, dstIP % 2, min(len), max(len) from TCP group by time/60 as tb, dstIP % 2`,
		`select t, sum(len + 0) from TCP where proto = 6 and len - 1 >= 0 group by time as t`,
		// Once canonicalized to where '''' and then to where ''': a string
		// literal's embedded quotes were not doubled again.
		`select tb, count(*) from TCP where '''''' group by time/60 as tb`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	isAgg := func(name string) bool { _, ok := builtinAggs()[name]; return ok }
	f.Fuzz(func(t *testing.T, src string) {
		ast, err := parseQuery(src, isAgg)
		if err != nil {
			return // unparseable input is out of scope
		}
		canon := ast.String()
		ast2, err := parseQuery(canon, isAgg)
		if err != nil {
			t.Fatalf("canonical form does not re-parse:\n  src   = %q\n  canon = %q\n  err   = %v", src, canon, err)
		}
		if again := ast2.String(); again != canon {
			t.Fatalf("canonicalization is not idempotent:\n  src    = %q\n  canon  = %q\n  canon2 = %q", src, canon, again)
		}
		if ast.where != nil {
			if k1, k2 := exprKey(ast.where), exprKey(ast2.where); k1 != k2 {
				t.Fatalf("WHERE class keys diverge across a round trip: %q vs %q", k1, k2)
			}
		}
		for i, g := range ast.group {
			if k1, k2 := exprKey(g.e), exprKey(ast2.group[i].e); k1 != k2 {
				t.Fatalf("group keys diverge across a round trip: %q vs %q", k1, k2)
			}
		}
	})
}

// TestMultiSharedPushAllocs: the steady-state shared pass must not
// allocate — neither when the class predicate rejects the tuple for all
// members in one branch, nor when it passes and fans out into every
// member's fold.
func TestMultiSharedPushAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	e := mkEngine(t)
	m, err := NewMultiRun(e, "TCP", Options{})
	if err != nil {
		t.Fatal(err)
	}
	nop := func(Tuple) error { return nil }
	queries := []string{
		`select tb, dstIP, count(*), sum(len) from TCP where destPort = 80 group by time/60 as tb, dstIP`,
		`select tb, dstIP, avg(float(len)) from TCP where destPort = 80 group by time/60 as tb, dstIP`,
		`select tb, count(*) from TCP where destPort = 80 and len > 0 group by time/60 as tb`,
		`select tb, dstIP, max(len) from TCP group by time/60 as tb, dstIP`,
	}
	for _, q := range queries {
		if _, err := m.Attach(q, 0, nop); err != nil {
			t.Fatalf("attach %q: %v", q, err)
		}
	}
	// Warm up: materialize every group the steady state will touch.
	hit := make([]Tuple, 8)
	miss := make([]Tuple, 8)
	for i := range hit {
		hit[i] = pkt(30, int64(i), 80, int64(100+i))
		miss[i] = pkt(30, int64(i), 443, int64(100+i))
	}
	for i := 0; i < 64; i++ {
		if err := m.Push(hit[i%len(hit)]); err != nil {
			t.Fatal(err)
		}
		if err := m.Push(miss[i%len(miss)]); err != nil {
			t.Fatal(err)
		}
	}

	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		if err := m.Push(miss[i%len(miss)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Errorf("class-rejected shared push allocates %.2f objects/op, want 0", avg)
	}

	i = 0
	avg = testing.AllocsPerRun(2000, func() {
		if err := m.Push(hit[i%len(hit)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Errorf("fan-out shared push allocates %.2f objects/op, want 0", avg)
	}
}

// TestMultiFailedRestoreLeavesNoClass: a Restore (or a Revive's restore
// attempt) that fails on a query whose WHERE is new to the catalog must take
// the predicate class it created back out — no memberless class or key
// table.
func TestMultiFailedRestoreLeavesNoClass(t *testing.T) {
	e := mkEngine(t)
	m, err := NewMultiRun(e, "TCP", Options{Isolate: &IsolateConfig{BreakerErrors: 2}})
	if err != nil {
		t.Fatal(err)
	}
	nop := func(Tuple) error { return nil }
	for _, q := range []string{
		`select tb, count(*) from TCP where len > 10 group by time/60 as tb`,
		`select tb, sum(len) from TCP group by time/60 as tb`,
	} {
		if _, err := m.Attach(q, 0, nop); err != nil {
			t.Fatal(err)
		}
	}
	// shape is the catalog's population: what a failed attach must not move.
	type shape struct{ queries, texts, classes, keyed, listed, tables int }
	shapeOf := func() shape {
		s := m.MultiStats()
		return shape{s.Queries, s.DistinctTexts, s.Classes, len(m.classByKey), len(m.classes), s.KeyTables}
	}
	base := shapeOf()

	fresh := `select tb, count(*) from TCP where destPort * 3 > 100 group by time/60 as tb`
	if _, err := m.Restore(fresh, 0, []byte("not a checkpoint"), nop); err == nil {
		t.Fatal("restore of a garbage checkpoint succeeded")
	}
	if got := shapeOf(); got != base {
		t.Fatalf("failed Restore: catalog %+v, want %+v", got, base)
	}

	// Revive of a query whose retained partials no longer restore: the failed
	// restore attempt must not leave its class behind for the fresh start to
	// stack on, so a detach afterwards lands back on the baseline.
	h, err := m.Attach(`select tb, sum(len / (len - len)) from TCP where destPort * 5 > 100 group by time/60 as tb`, 0, nop)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := m.Push(pkt(int64(i), 1, 80, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if q := h.QueryStats().Quarantined; !q {
		t.Fatal("poison not quarantined")
	}
	h.e.retained = []byte("torn mid-write")
	if err := h.Revive(); err != nil {
		t.Fatalf("revive with a torn retained checkpoint: %v", err)
	}
	if got := shapeOf(); got.listed != base.listed+1 || got.classes != got.listed || got.keyed != got.listed {
		t.Fatalf("after the revive: catalog %+v, want one class over %+v", got, base)
	}
	h.Detach()
	if got := shapeOf(); got != base {
		t.Fatalf("failed restore inside Revive, then Detach: catalog %+v, want %+v", got, base)
	}
}

// TestAdmitEstimateIsPrivate: an attach's admission estimate depends only on
// its own text and on whether its predicate class exists. Beside a query
// that shares its group and argument subtrees but not its WHERE it costs
// what it costs in an empty catalog; beside one with the same WHERE it is
// cheaper by exactly that WHERE's cost less the flat class-read charge.
func TestAdmitEstimateIsPrivate(t *testing.T) {
	e := mkEngine(t)
	nop := func(Tuple) error { return nil }
	q := `select tb, sum(len*8), max(float(len)/3) from TCP where len*2 > 100 group by time/60 as tb`
	estBeside := func(others ...string) float64 {
		t.Helper()
		m, err := NewMultiRun(e, "TCP", Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range others {
			if _, err := m.Attach(o, 0, nop); err != nil {
				t.Fatal(err)
			}
		}
		h, err := m.Attach(q, 0, nop)
		if err != nil {
			t.Fatal(err)
		}
		return h.QueryStats().EstCostNs
	}
	alone := estBeside()
	if got := estBeside(`select tb, sum(len*8), min(float(len)/3) from TCP where destPort*3 > 100 group by time/60 as tb`); got != alone {
		t.Errorf("beside shared group and argument subtrees: estimate %v, want %v as in an empty catalog", got, alone)
	}
	ast, err := e.parse(q)
	if err != nil {
		t.Fatal(err)
	}
	want := alone - (exprCost(ast.where) - costClassRead)
	if got := estBeside(`select tb, count(*) from TCP where len*2 > 100 group by time/60 as tb`); got != want {
		t.Errorf("in an existing predicate class: estimate %v, want %v", got, want)
	}
}

// eqRef is one catalog member of TestMultiEqIndexMatchesKernel beside its
// standalone reference run.
type eqRef struct {
	text      string
	h         *MultiHandle
	ref       *Run
	got, want []Tuple
	done      bool // detached or fenced: compared when it left
}

// TestMultiEqIndexMatchesKernel is the equality index's differential. Per
// seed, a catalog of equality classes on dstIP and destPort — both
// spellings, negative literals, ±(2⁶³−1), a literal no row carries — beside
// classes the index must not take (a float literal, a range, a
// conjunction) and unfiltered members, over batches with non-finite rows
// and epoch-roll segment splits; members attach, detach and are fenced
// between batches, and one is fenced by its sink inside a fold. Per
// segment, every indexed class's selection must be its kernel's bitmap
// with no failed rows; every member's rows and checkpoint bytes must be
// those of a standalone run fed the same batches from its attach (a member
// attached after the first roll restores its reference from its attach-time
// checkpoint, which carries the adopted landmark and epoch).
func TestMultiEqIndexMatchesKernel(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { eqIndexDifferential(t, seed) })
	}
}

func eqIndexDifferential(t *testing.T, seed uint64) {
	e := mkEngine(t)
	const maxI = math.MaxInt64
	opts := Options{Epoch: &EpochConfig{
		Model: decay.NewForward(decay.NewExp(0.05), 0), Every: 7, TimeColumn: "ftime",
	}}
	mopts := opts
	mopts.Isolate = &IsolateConfig{BreakerErrors: 1}
	m, err := NewMultiRun(e, "TCP", mopts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 49))

	// The tape: dstIP and destPort mostly random, often one of the literals
	// (or a neighbour of one, or MinInt64, which no literal spells); every
	// 97th row has a non-finite ftime.
	dstLits := []int64{7, -3, maxI, -maxI, 424242, 9}
	portLits := []int64{80, 443, -1, maxI, 31337}
	pick := func(lits []int64, none int64) int64 {
		switch r := rng.IntN(10); {
		case r < 3:
			if v := lits[rng.IntN(len(lits))]; v != none {
				return v
			}
			return math.MinInt64
		case r < 4:
			return []int64{0, 5, 6, 81, math.MinInt64, -2}[rng.IntN(6)]
		}
		if v := rng.Int64N(1 << 20); v != none {
			return v
		}
		return 1
	}
	tuples := make([]Tuple, 6000)
	for i := range tuples {
		sec := int64(i / 50)
		ft := float64(sec) + float64(i%50)/50
		switch i % 97 {
		case 13:
			ft = math.NaN()
		case 61:
			ft = math.Inf(1)
		}
		tuples[i] = Tuple{Int(sec), Float(ft), Int(rng.Int64N(9)), Int(pick(dstLits, 424242)),
			Int(4242), Int(pick(portLits, 31337)), Int(6), Int(rng.Int64N(1500))}
	}
	var batches []*Batch
	for lo := 0; lo < len(tuples); lo += 500 {
		b, err := NewBatch(m.schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range tuples[lo : lo+500] {
			if err := b.Append(tp); err != nil {
				t.Fatal(err)
			}
		}
		batches = append(batches, b)
	}

	shapes := []string{
		"select tb, count(*), sum(len) from TCP where %s group by time/10 as tb",
		"select tb, dstIP, destPort, count(*) from TCP where %s group by time/10 as tb, dstIP, destPort",
		"select tb, srcIP, max(len), min(len) from TCP where %s group by time/10 as tb, srcIP",
	}
	var eqWheres []string
	for _, c := range []struct {
		col  string
		lits []int64
	}{{"dstIP", dstLits}, {"destPort", portLits}} {
		for _, v := range c.lits {
			switch rng.IntN(4) {
			case 0:
				eqWheres = append(eqWheres, fmt.Sprintf("%s = %d", c.col, v))
			case 1:
				eqWheres = append(eqWheres, fmt.Sprintf("%d = %s", v, c.col))
			default:
				eqWheres = append(eqWheres, fmt.Sprintf("%s = %d", c.col, v), fmt.Sprintf("%d = %s", v, c.col))
			}
		}
	}
	kernelWheres := []string{"dstIP = 5.0", "dstIP >= 5", "dstIP = 5 and len > 100", "destPort = 80.0", "destPort != 80"}

	var refs []*eqRef
	rolled := false
	// indexed records, per class key, whether the class's first member —
	// whose WHERE the class compiles — is an equality the index serves.
	indexed := map[string]bool{}
	attach := func(text string, sinkErrAt int) *eqRef {
		t.Helper()
		q := &eqRef{text: text}
		ast, err := m.parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if ast.where != nil && m.classByKey[exprKey(ast.where)] == nil {
			_, _, indexed[exprKey(ast.where)] = eqTerm(ast.where, m.schema)
		}
		calls := 0
		h, err := m.Attach(text, 0, func(r Tuple) error {
			if calls++; calls == sinkErrAt {
				return errors.New("sink refuses the row")
			}
			q.got = append(q.got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("attach %q: %v", text, err)
		}
		st, err := e.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		sink := func(r Tuple) error { q.want = append(q.want, r); return nil }
		if q.ref = st.Start(sink, opts); rolled {
			ck, err := h.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if q.ref, err = st.Restore(ck, sink, opts); err != nil {
				t.Fatal(err)
			}
		}
		q.h = h
		refs = append(refs, q)
		return q
	}
	// compare checks a member's rows and checkpoint against its reference.
	compare := func(q *eqRef) {
		t.Helper()
		got, err := q.h.Checkpoint()
		if err != nil {
			t.Fatalf("%q: checkpoint: %v", q.text, err)
		}
		want, err := q.ref.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%q: checkpoint differs from the standalone run's", q.text)
		}
		if len(q.got) != len(q.want) {
			t.Fatalf("%q: %d rows, standalone %d", q.text, len(q.got), len(q.want))
		}
		for i := range q.got {
			for j := range q.got[i] {
				a, b := q.got[i][j], q.want[i][j]
				if a.T != b.T || a.I != b.I || a.S != b.S || math.Float64bits(a.F) != math.Float64bits(b.F) {
					t.Fatalf("%q row %d col %d: %v, standalone %v", q.text, i, j, a, b)
				}
			}
		}
	}

	for i, w := range eqWheres {
		attach(fmt.Sprintf(shapes[i%len(shapes)], w), 0)
		if rng.IntN(3) == 0 {
			attach(fmt.Sprintf(shapes[(i+1)%len(shapes)], w), 0)
		}
	}
	for i, w := range kernelWheres {
		attach(fmt.Sprintf(shapes[i%len(shapes)], w), 0)
	}
	attach("select tb, count(*), max(len) from TCP group by time/10 as tb", 0)
	// Fenced between batches, and inside a fold: each the sole member of its
	// class, the second refused by its sink at its second row.
	fenced := attach(fmt.Sprintf(shapes[0], "0 = destPort"), 0)
	inFold := attach(fmt.Sprintf(shapes[0], "-2 = destPort"), 2)

	ep, err := newEpochState(opts.Epoch, m.schema)
	if err != nil {
		t.Fatal(err)
	}
	bx, segs, selected := new(batchExec), 0, 0
	for bi, b := range batches {
		switch bi {
		case 3:
			attach(fmt.Sprintf(shapes[1], "dstIP = 6"), 0)
			// Joins the class `dstIP = 5.0` made: one canonical key, so the
			// float literal's kernel selects for both.
			attach(fmt.Sprintf(shapes[2], "dstIP = 5"), 0)
			attach(fmt.Sprintf(shapes[2], "81 = destPort"), 0)
			attach(fmt.Sprintf(shapes[0], eqWheres[0]), 0)
		case 5:
			// Detach every member of one indexed class and one member of
			// another; a detached member is compared as it left.
			for _, q := range refs {
				if !q.done && (q.text == fmt.Sprintf(shapes[1], "dstIP = 6") || q.text == refs[0].text) {
					compare(q)
					q.h.Detach()
					q.done = true
				}
			}
		case 7:
			compare(fenced)
			fenced.h.Fault(errors.New("fenced between batches"))
			fenced.done = true
		}
		// The segments PushBatch will fold, from a supervisor in step with
		// the runtime's: each indexed class's selection must be its
		// kernel's.
		valid := growBits(nil, b.n)
		b.scanFinite(valid)
		bx.valid = valid
		for lo, skip := 0, false; lo < b.n; {
			hi, newL, roll := bx.scanEpoch(ep, b, lo, skip)
			selected += eqSegmentMatchesKernel(t, m, b, valid, lo, hi, indexed)
			if roll {
				ep.advanced(newL)
			}
			lo, skip, segs = hi, roll, segs+1
		}
		if _, err := m.PushBatch(b); err != nil {
			t.Fatal(err)
		}
		for _, q := range refs {
			if !q.done {
				if _, err := q.ref.PushBatch(b); err != nil {
					t.Fatal(err)
				}
			}
		}
		rolled = rolled || m.landmarkSet
	}
	if segs <= len(batches) || selected == 0 {
		t.Fatalf("%d segments over %d batches, %d rows selected: the tape splits no segment or selects nothing", segs, len(batches), selected)
	}
	if qs := inFold.h.QueryStats(); !qs.Quarantined || qs.Reason != QuarantineBreaker {
		t.Fatalf("the member refused by its sink: %+v, want fenced by the breaker", qs)
	}
	if s := m.MultiStats(); s.IndexedClasses == 0 || s.IndexedClasses >= s.Classes {
		t.Fatalf("stats %+v: want some but not all classes indexed", s)
	}
	for _, q := range refs {
		if !q.done && q != inFold {
			compare(q)
		}
	}
	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}
	for _, q := range refs {
		if !q.done && q != inFold {
			if err := q.ref.Close(); err != nil {
				t.Fatal(err)
			}
			compare(q)
		}
	}
}

// eqSegmentMatchesKernel runs every index pass over rows valid ∩ [lo,hi)
// and checks that each indexed class's selection is its kernel's bitmap,
// with no failed rows, and that the index holds exactly the classes
// indexed marks. It returns the rows selected.
func eqSegmentMatchesKernel(t *testing.T, m *MultiRun, b *Batch, valid []uint64, lo, hi int, indexed map[string]bool) int {
	t.Helper()
	held := 0
	for i := range m.eq {
		if held += m.eq[i].classes; m.eq[i].classes > 0 {
			m.eq[i].selectRows(b, valid, lo, hi)
		}
	}
	if s := m.MultiStats(); s.IndexedClasses != held {
		t.Fatalf("the index holds %d classes, the catalog has %d indexed", held, s.IndexedClasses)
	}
	selected := 0
	want := growBits(nil, b.n)
	for _, cls := range m.classes {
		if cls.key != "" && indexed[cls.key] != (cls.eq != nil) {
			t.Fatalf("class %q: indexed %v, want %v", cls.key, cls.eq != nil, indexed[cls.key])
		}
		if cls.eq == nil {
			continue
		}
		maskRange(want, valid, lo, hi)
		var ctx vctx
		ctx.reset(b, cls.vp.nslots)
		cls.vp.where.run(&ctx, want)
		wb := ctx.bits(cls.vp.where)
		for w := range want {
			want[w] &= wb[w]
		}
		if f := ctx.take(nil, want); len(f) != 0 || len(cls.fails) != 0 {
			t.Fatalf("class %q: the kernel failed %d rows, the index %d", cls.key, len(f), len(cls.fails))
		}
		// The pass clears the words of [lo,hi) and sets only rows in range,
		// as maskRange and the kernel do.
		for r := lo &^ 63; r < min((hi+63)&^63, b.n); r++ {
			if bitGet(want, r) != bitGet(cls.sel, r) {
				t.Fatalf("class %q row %d (dstIP %d, destPort %d): index selects %v, kernel %v",
					cls.key, r, b.cols[3].ints[r], b.cols[5].ints[r], bitGet(cls.sel, r), bitGet(want, r))
			}
		}
		selected += popRange(want, hi) - popRange(want, lo)
	}
	return selected
}

// TestMultiEqIndexTable drives one column's table through random adds and
// removes against a map: every key's slot lists exactly its classes, each
// at its recorded position, and an absent key probes to an empty slot —
// through growth, shared slots and backward-shift deletion.
func TestMultiEqIndexTable(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 49))
	var x eqIndex
	model := map[int64][]*predClass{}
	var live []*predClass
	keys := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
	for i := 0; i < 60; i++ {
		keys = append(keys, rng.Int64())
	}
	for op := 0; op < 4000; op++ {
		if len(live) < 40 && (len(live) == 0 || rng.IntN(2) == 0) {
			c := &predClass{}
			k := keys[rng.IntN(len(keys))]
			x.add(c, k)
			model[k] = append(model[k], c)
			live = append(live, c)
		} else {
			j := rng.IntN(len(live))
			c := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			k := c.eqKey
			x.remove(c)
			if c.eq != nil {
				t.Fatal("a removed class still points at the index")
			}
			cs := model[k]
			for ci := range cs {
				if cs[ci] == c {
					cs = append(cs[:ci], cs[ci+1:]...)
					break
				}
			}
			if model[k] = cs; len(cs) == 0 {
				delete(model, k)
			}
		}
		if x.classes != len(live) || x.used != len(model) {
			t.Fatalf("op %d: %d classes in %d slots, want %d in %d", op, x.classes, x.used, len(live), len(model))
		}
		for _, k := range keys {
			s := x.slots[x.find(k)]
			want := model[k]
			if len(s.cls) != len(want) || len(want) > 0 && s.key != k {
				t.Fatalf("op %d: key %d holds %d classes, want %d", op, k, len(s.cls), len(want))
			}
			for pos, c := range s.cls {
				if c.eqPos != pos || c.eqKey != k || c.eq != &x {
					t.Fatalf("op %d: key %d: class at %d records position %d under key %d", op, k, pos, c.eqPos, c.eqKey)
				}
			}
		}
	}
}

// TestMultiEqIndexPushAllocs: a warmed catalog of 1 000 equality queries
// (64 classes over two columns) folds a batch that closes no bucket with no
// allocation.
func TestMultiEqIndexPushAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	e := mkEngine(t)
	m, err := NewMultiRun(e, "TCP", Options{})
	if err != nil {
		t.Fatal(err)
	}
	nop := func(Tuple) error { return nil }
	for i := 0; i < 1000; i++ {
		q := fmt.Sprintf("select tb, dstIP, count(*), sum(len + %d) from TCP where dstIP = %d group by time/60 as tb, dstIP", i, i/2%32)
		if i%2 == 1 {
			q = fmt.Sprintf("select tb, count(*) from TCP where destPort = %d group by time/60 as tb", 1000+i/2%32)
		}
		if _, err := m.Attach(q, 0, nop); err != nil {
			t.Fatal(err)
		}
	}
	if s := m.MultiStats(); s.IndexedClasses != 64 || s.Classes != 64 {
		t.Fatalf("stats %+v: want 64 classes, all indexed", s)
	}
	b, err := NewBatch(m.schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		if err := b.Append(pkt(30, int64(i%40), int64(1000+i%40), int64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := m.PushBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := m.PushBatch(b); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("indexed catalog PushBatch allocates %.2f objects/op, want 0", avg)
	}
}

// BenchmarkMultiEqSelect prices selecting k `dstIP = literal` classes over
// a 4 096-row batch (3.5 % of rows match one of them): k class kernels
// against one index pass. The index wins at k = 1, so every equality class
// is indexed.
func BenchmarkMultiEqSelect(b *testing.B) {
	e := NewEngine()
	if err := e.RegisterStream(PacketSchema("TCP")); err != nil {
		b.Fatal(err)
	}
	const n = 4096
	rng := rand.New(rand.NewPCG(1, 2))
	for _, k := range []int{1, 16} {
		m, err := NewMultiRun(e, "TCP", Options{})
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; c < k; c++ {
			q := fmt.Sprintf("select tb, count(*) from TCP where dstIP = %d group by time/1 as tb", 1000+c)
			if _, err := m.Attach(q, 0, func(Tuple) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
		bt, err := NewBatch(m.schema)
		if err != nil {
			b.Fatal(err)
		}
		bt.Resize(n)
		for i, d := 0, bt.Ints(3); i < n; i++ {
			if d[i] = rng.Int64N(1 << 30); rng.IntN(1000) < 35 {
				d[i] = int64(1000 + rng.IntN(k))
			}
		}
		m.valid = growBits(m.valid, n)
		fillBits(m.valid, n)
		b.Run(fmt.Sprintf("kernel/classes=%d", k), func(b *testing.B) {
			for range b.N {
				for _, cls := range m.classes {
					eq := cls.eq
					cls.eq = nil
					m.classSelect(cls, bt, 0, n)
					cls.eq = eq
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
		b.Run(fmt.Sprintf("index/classes=%d", k), func(b *testing.B) {
			for range b.N {
				m.eq[3].selectRows(bt, m.valid, 0, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
