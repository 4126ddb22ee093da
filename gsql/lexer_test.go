package gsql

import (
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("select tb, destIP, sum(len*2)/3600 from TCP group by time/60 as tb")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
		texts = append(texts, tok.text)
	}
	if texts[0] != "select" || kinds[0] != tokKeyword {
		t.Errorf("first token %q/%d", texts[0], kinds[0])
	}
	joined := strings.Join(texts, " ")
	for _, want := range []string{"destip", "sum", "len", "3600", "tcp", "group", "by", "time", "60", "tb"} {
		if !strings.Contains(strings.ToLower(joined), want) {
			t.Errorf("missing token %q in %q", want, joined)
		}
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := lex("1 2.5 3e4 1.5e-3 .25")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "2.5", "3e4", "1.5e-3", ".25"}
	for i, w := range want {
		if toks[i].kind != tokNumber || toks[i].text != w {
			t.Errorf("token %d = %q (%d), want number %q", i, toks[i].text, toks[i].kind, w)
		}
	}
}

func TestLexStrings(t *testing.T) {
	toks, err := lex("'hello' 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "hello" || toks[1].text != "it's" {
		t.Errorf("string tokens: %q, %q", toks[0].text, toks[1].text)
	}
	if _, err := lex("'unterminated"); err == nil {
		t.Error("expected error for unterminated string")
	}
}

// TestStrLitCanonical: a string literal renders with its embedded quotes
// doubled, so a literal holding a quote canonicalizes to itself and re-parses
// to the same value.
func TestStrLitCanonical(t *testing.T) {
	isAgg := func(name string) bool { _, ok := builtinAggs()[name]; return ok }
	for _, lit := range []string{`'it''s'`, `''''`, `''`, `'plain'`} {
		ast, err := parseQuery("select tb, count(*) from TCP where "+lit+" group by time/60 as tb", isAgg)
		if err != nil {
			t.Fatalf("%s: %v", lit, err)
		}
		if got := ast.where.String(); got != lit {
			t.Errorf("%s canonicalizes to %s", lit, got)
		}
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := lex("<= >= <> != < > = + - * / % ( ) ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"<=", ">=", "<>", "!=", "<", ">", "=", "+", "-", "*", "/", "%", "(", ")", ","}
	for i, w := range want {
		if toks[i].kind != tokOp || toks[i].text != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].text, w)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{"a ! b", "a # b", "a @ b"} {
		if _, err := lex(bad); err == nil {
			t.Errorf("expected lex error for %q", bad)
		}
	}
}

func TestParsePaperQuery(t *testing.T) {
	isAgg := func(n string) bool { return n == "sum" || n == "count" }
	q, err := parseQuery(`select tb, destIP, destPort,
		sum(len*(time % 60)*(time % 60))/3600 from TCP
		group by time/60 as tb, destIP, destPort`, isAgg)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.sel) != 4 || len(q.group) != 3 || q.from != "TCP" {
		t.Fatalf("parsed shape: sel=%d group=%d from=%q", len(q.sel), len(q.group), q.from)
	}
	if q.group[0].alias != "tb" {
		t.Errorf("group alias = %q", q.group[0].alias)
	}
	// The 4th select item is arithmetic around an aggregate.
	if !hasAgg(q.sel[3].e) {
		t.Error("4th select item should contain an aggregate")
	}
	if hasAgg(q.sel[0].e) {
		t.Error("1st select item should not contain an aggregate")
	}
	got := q.sel[3].e.String()
	if !strings.Contains(got, "sum(") || !strings.Contains(got, "% 60") {
		t.Errorf("canonical form %q lost structure", got)
	}
}

func TestParsePrecedence(t *testing.T) {
	q, err := parseQuery("select 1+2*3 from s", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.sel[0].e.String(); got != "(1 + (2 * 3))" {
		t.Errorf("precedence: %q", got)
	}
	q, err = parseQuery("select (1+2)*3 from s", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.sel[0].e.String(); got != "((1 + 2) * 3)" {
		t.Errorf("parens: %q", got)
	}
	q, err = parseQuery("select a from s where x > 1 and y < 2 or not z = 3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.where.String(); got != "(((x > 1) and (y < 2)) or (not (z = 3)))" {
		t.Errorf("logical precedence: %q", got)
	}
}

func TestParseCountStar(t *testing.T) {
	isAgg := func(n string) bool { return n == "count" }
	q, err := parseQuery("select count(*) from s", isAgg)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := q.sel[0].e.(*aggExpr)
	if !ok || !a.star || a.name != "count" {
		t.Errorf("count(*) parsed as %#v", q.sel[0].e)
	}
}

func TestParseHavingAndWhere(t *testing.T) {
	isAgg := func(n string) bool { return n == "count" }
	q, err := parseQuery("select d, count(*) from s where proto = 6 group by d having count(*) > 10", isAgg)
	if err != nil {
		t.Fatal(err)
	}
	if q.where == nil || q.having == nil {
		t.Fatal("where/having missing")
	}
	if !hasAgg(q.having) {
		t.Error("having should reference the aggregate")
	}
}

func TestParseErrors(t *testing.T) {
	isAgg := func(n string) bool { return n == "sum" }
	bad := []string{
		"",
		"select",
		"select a",
		"select a from",
		"select a from s group a",
		"select a from s where",
		"select a, from s",
		"select f( from s",
		"select a from s extra",
		"select sum(a from s",
	}
	for _, src := range bad {
		if _, err := parseQuery(src, isAgg); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestASTStringRoundTrips(t *testing.T) {
	isAgg := func(n string) bool { return n == "sum" || n == "count" }
	src := "select tb, sum(len)/60 as rate from TCP where proto = 6 group by time/60 as tb having sum(len) > 0"
	q, err := parseQuery(src, isAgg)
	if err != nil {
		t.Fatal(err)
	}
	// Reparsing the canonical form must produce the identical canonical form.
	q2, err := parseQuery(q.String(), isAgg)
	if err != nil {
		t.Fatalf("canonical form %q does not reparse: %v", q.String(), err)
	}
	if q.String() != q2.String() {
		t.Errorf("not a fixed point:\n%s\n%s", q, q2)
	}
}
