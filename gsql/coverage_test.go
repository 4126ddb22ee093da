package gsql

import (
	"math"
	"testing"
)

// TestComparisonOperatorsEndToEnd exercises every comparison and logical
// operator through compiled WHERE clauses.
func TestComparisonOperatorsEndToEnd(t *testing.T) {
	e := mkEngine(t)
	tuples := []Tuple{
		pkt(1, 1, 80, 10), pkt(2, 2, 443, 20), pkt(3, 3, 80, 30),
	}
	cases := []struct {
		where string
		want  int64
	}{
		{"len = 20", 1},
		{"len != 20", 2},
		{"len < 20", 1},
		{"len <= 20", 2},
		{"len > 20", 1},
		{"len >= 20", 2},
		{"len <> 20", 2},
		{"len > 10 and destPort = 80", 1},
		{"len = 10 or len = 30", 2},
		{"not len = 10", 2},
		{"not (len = 10 or len = 30)", 1},
		{"true", 3},
		{"false", 0},
		{"-len < -15", 2},
		{"len % 20 = 10", 2},
		{"'a' = 'a'", 3},
		{"'a' != 'b'", 3},
		{"'a' < 'b'", 3},
	}
	for _, c := range cases {
		rows := execAll(t, e, "select count(*) from TCP where "+c.where, tuples, Options{})
		// A predicate rejecting every tuple creates no group at all.
		var got int64
		if len(rows) > 0 {
			got = rows[0][0].AsInt()
		}
		if got != c.want {
			t.Errorf("where %q: count %d, want %d", c.where, got, c.want)
		}
	}
}

// TestUnaryMinusAndLiterals covers unary negation over floats and nested
// unaries.
func TestUnaryMinusAndLiterals(t *testing.T) {
	e := mkEngine(t)
	tuples := []Tuple{pkt(1, 1, 80, 10)}
	rows := execAll(t, e, "select max(-len), max(- -len), max(-1.5 * float(len)) from TCP", tuples, Options{})
	if rows[0][0].AsInt() != -10 || rows[0][1].AsInt() != 10 {
		t.Errorf("unary minus: %v", rows[0])
	}
	if math.Abs(rows[0][2].AsFloat()+15) > 1e-12 {
		t.Errorf("float unary: %v", rows[0][2])
	}
}

// TestSelectLiteralAndFunctionOfGroups covers select items built from
// literals and scalar functions of group expressions.
func TestSelectLiteralAndFunctionOfGroups(t *testing.T) {
	e := mkEngine(t)
	tuples := []Tuple{pkt(65, 1, 80, 10), pkt(70, 1, 80, 20)}
	rows := execAll(t, e,
		`select 42, tb, abs(tb - 3), float(tb)/2, 'label', count(*) from TCP group by time/60 as tb`,
		tuples, Options{})
	r := rows[0]
	if r[0].AsInt() != 42 || r[1].AsInt() != 1 || r[2].AsInt() != 2 {
		t.Errorf("row = %v", r)
	}
	if math.Abs(r[3].AsFloat()-0.5) > 1e-12 || r[4].S != "label" || r[5].AsInt() != 2 {
		t.Errorf("row = %v", r)
	}
}

// TestSumMergeTypePromotion exercises the int→float promotion inside the
// two-level merge path.
func TestSumMergeTypePromotion(t *testing.T) {
	e := mkEngine(t)
	// Mixed int and float sum contributions across many groups with a tiny
	// low-level table forces merges of partials in both orders.
	var tuples []Tuple
	for i := int64(0); i < 2000; i++ {
		tuples = append(tuples, pkt(i/50, i%7, 80, 40+i%100))
	}
	q := `select tb, dstIP, sum(len), sum(float(len)/2), min(len), max(len), avg(len), count(len) from TCP group by time/5 as tb, dstIP`
	split := execAll(t, e, q, tuples, Options{LowLevelSlots: 4})
	single := execAll(t, e, q, tuples, Options{DisableTwoLevel: true})
	if len(split) != len(single) {
		t.Fatalf("row counts differ")
	}
	for i := range split {
		for j := range split[i] {
			a, b := split[i][j], single[i][j]
			if a.T == TFloat {
				if math.Abs(a.F-b.F) > 1e-9 {
					t.Fatalf("row %d col %d: %v vs %v", i, j, a, b)
				}
			} else if a != b {
				t.Fatalf("row %d col %d: %v vs %v", i, j, a, b)
			}
		}
	}
}

// TestSinkStopPropagates covers the early-termination sentinel.
func TestSinkStopPropagates(t *testing.T) {
	st, err := mkEngine(t).Prepare(`select tb, count(*) from TCP group by time/10 as tb`)
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	run := st.Start(func(Tuple) error {
		emitted++
		return SinkStop()
	}, Options{})
	var pushErr error
	for i := int64(0); i < 100 && pushErr == nil; i++ {
		pushErr = run.Push(pkt(i, 1, 80, 1))
	}
	if pushErr == nil || pushErr.Error() != SinkStop().Error() {
		t.Fatalf("push error = %v, want sink-stop", pushErr)
	}
	if emitted != 1 {
		t.Fatalf("emitted %d rows after stop", emitted)
	}
}

// TestQueryASTStringWithAllClauses covers the canonical rendering of a
// query with where/group/having and aliases.
func TestQueryASTStringWithAllClauses(t *testing.T) {
	isAgg := func(n string) bool { return n == "count" || n == "sum" }
	src := `select tb as bucket, count(*) from TCP where proto = 6 and len > 0 group by time/60 as tb having count(*) > 1`
	q, err := parseQuery(src, isAgg)
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	for _, frag := range []string{"select", "as bucket", "from TCP", "where", "group by", "as tb", "having"} {
		if !containsFold(s, frag) {
			t.Errorf("canonical form %q missing %q", s, frag)
		}
	}
	// String and boolean literal rendering.
	q2, err := parseQuery(`select count(*) from s where name = 'x' or flag = true`, isAgg)
	if err != nil {
		t.Fatal(err)
	}
	if !containsFold(q2.String(), "'x'") || !containsFold(q2.String(), "true") {
		t.Errorf("literal rendering: %q", q2.String())
	}
}

func containsFold(s, sub string) bool {
	S, Sub := []byte(s), []byte(sub)
	for i := range S {
		if 'A' <= S[i] && S[i] <= 'Z' {
			S[i] += 'a' - 'A'
		}
	}
	for i := range Sub {
		if 'A' <= Sub[i] && Sub[i] <= 'Z' {
			Sub[i] += 'a' - 'A'
		}
	}
	return string(S) != "" && string(Sub) != "" && indexBytes(S, Sub) >= 0
}

func indexBytes(s, sub []byte) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		ok := true
		for j := range sub {
			if s[i+j] != sub[j] {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

// TestScalarFunctionErrors covers the error paths of ln/sqrt and bad
// arity.
func TestScalarFunctionErrors(t *testing.T) {
	e := mkEngine(t)
	st, err := e.Prepare(`select dstIP, max(ln(len - 100)) from TCP group by dstIP`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execute(st, []Tuple{pkt(1, 1, 80, 50)}, Options{}); err == nil {
		t.Error("ln of negative must error at runtime")
	}
	st, err = e.Prepare(`select dstIP, max(sqrt(len - 100)) from TCP group by dstIP`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execute(st, []Tuple{pkt(1, 1, 80, 50)}, Options{}); err == nil {
		t.Error("sqrt of negative must error at runtime")
	}
	if _, err := e.Prepare(`select max(pow(len)) from TCP`); err == nil {
		t.Error("pow arity must be checked at prepare time")
	}
}

// TestHavingRuntimeErrorPropagates covers error propagation from HAVING.
func TestHavingRuntimeErrorPropagates(t *testing.T) {
	e := mkEngine(t)
	st, err := e.Prepare(`select dstIP, count(*) from TCP group by dstIP having count(*) / (count(*) - 1) > 0`)
	if err != nil {
		t.Fatal(err)
	}
	// One tuple per group → count=1 → division by zero in HAVING.
	if _, err := execute(st, []Tuple{pkt(1, 1, 80, 1)}, Options{}); err == nil {
		t.Error("expected runtime error from HAVING")
	}
}
