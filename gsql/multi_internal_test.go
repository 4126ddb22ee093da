package gsql

import (
	"testing"
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
	if q, _ := h.Quarantined(); !q {
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
