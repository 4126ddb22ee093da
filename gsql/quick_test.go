package gsql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"forwarddecay/internal/core"
)

// TestQuickIntegerArithmeticMatchesGo property-tests the expression
// evaluator's integer semantics (truncating /, Go's %) against direct Go
// computation over random operands.
func TestQuickIntegerArithmeticMatchesGo(t *testing.T) {
	e := NewEngine()
	s := MustSchema("s", Column{Name: "a", Type: TInt}, Column{Name: "b", Type: TInt})
	if err := e.RegisterStream(s); err != nil {
		t.Fatal(err)
	}
	ops := []struct {
		op string
		fn func(a, b int64) int64
	}{
		{"+", func(a, b int64) int64 { return a + b }},
		{"-", func(a, b int64) int64 { return a - b }},
		{"*", func(a, b int64) int64 { return a * b }},
		{"/", func(a, b int64) int64 { return a / b }},
		{"%", func(a, b int64) int64 { return a % b }},
	}
	f := func(a, b int32, which uint8) bool {
		op := ops[int(which)%len(ops)]
		if (op.op == "/" || op.op == "%") && b == 0 {
			b = 1
		}
		st, err := e.Prepare(fmt.Sprintf("select max(a %s b) from s", op.op))
		if err != nil {
			return false
		}
		rows, err := execute(st, []Tuple{{Int(int64(a)), Int(int64(b))}}, Options{})
		if err != nil || len(rows) != 1 {
			return false
		}
		return rows[0][0].AsInt() == op.fn(int64(a), int64(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Error(err)
	}
}

// randExpr generates a random expression tree over columns a, b and small
// literals.
func randExpr(rng *core.RNG, depth int) expr {
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return &colRef{name: "a", idx: -1}
		case 1:
			return &colRef{name: "b", idx: -1}
		default:
			return &numLit{Int(int64(rng.Intn(9) + 1))}
		}
	}
	ops := []string{"+", "-", "*", "/", "%"}
	return &binExpr{
		op: ops[rng.Intn(len(ops))],
		l:  randExpr(rng, depth-1),
		r:  randExpr(rng, depth-1),
	}
}

// TestQuickCanonicalFormFixedPoint: rendering a random expression and
// reparsing it yields the identical canonical form (parser/printer agree).
func TestQuickCanonicalFormFixedPoint(t *testing.T) {
	f := func(seed uint64, depthRaw uint8) bool {
		rng := core.NewRNG(seed)
		ex := randExpr(rng, 1+int(depthRaw)%4)
		src := "select count(*) from s where " + ex.String() + " > 0"
		isAgg := func(n string) bool { return n == "count" }
		q, err := parseQuery(src, isAgg)
		if err != nil {
			return false
		}
		q2, err := parseQuery(q.String(), isAgg)
		if err != nil {
			return false
		}
		return q.String() == q2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Error(err)
	}
}

// TestQuickTwoLevelEquivalence: for random streams and slot counts, the
// two-level split produces exactly the rows of single-level execution.
func TestQuickTwoLevelEquivalence(t *testing.T) {
	e := NewEngine()
	if err := e.RegisterStream(PacketSchema("TCP")); err != nil {
		t.Fatal(err)
	}
	st, err := e.Prepare(`select tb, dstIP, count(*), sum(len), min(len), max(len), avg(len) from TCP group by time/7 as tb, dstIP`)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64, slotsRaw uint8) bool {
		rng := core.NewRNG(seed)
		n := 500 + int(seed%500)
		tuples := make([]Tuple, n)
		for i := range tuples {
			tuples[i] = pkt(int64(i/20), int64(rng.Intn(40)), 80, int64(40+rng.Intn(1400)))
		}
		slots := 1 << (2 + uint(slotsRaw)%6) // 4..128 slots, forcing evictions
		split, err := execute(st, tuples, Options{LowLevelSlots: slots})
		if err != nil {
			return false
		}
		single, err := execute(st, tuples, Options{DisableTwoLevel: true})
		if err != nil {
			return false
		}
		if len(split) != len(single) {
			return false
		}
		for i := range split {
			for j := range split[i] {
				a, b := split[i][j], single[i][j]
				if a.T != b.T {
					return false
				}
				if a.T == TFloat {
					if d := a.F - b.F; d > 1e-9 || d < -1e-9 {
						return false
					}
				} else if a != b {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(43))}); err != nil {
		t.Error(err)
	}
}

// TestQuickGroupKeyUniqueness: every emitted bucket contains each group
// exactly once.
func TestQuickGroupKeyUniqueness(t *testing.T) {
	e := NewEngine()
	if err := e.RegisterStream(PacketSchema("TCP")); err != nil {
		t.Fatal(err)
	}
	st, err := e.Prepare(`select tb, dstIP, count(*) from TCP group by time/5 as tb, dstIP`)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		rng := core.NewRNG(seed)
		tuples := make([]Tuple, 400)
		for i := range tuples {
			tuples[i] = pkt(int64(i/10), int64(rng.Intn(20)), 80, 100)
		}
		rows, err := execute(st, tuples, Options{LowLevelSlots: 8})
		if err != nil {
			return false
		}
		seen := map[string]bool{}
		var total int64
		for _, r := range rows {
			key := r[0].String() + "|" + r[1].String()
			if seen[key] {
				return false
			}
			seen[key] = true
			total += r[2].AsInt()
		}
		return total == int64(len(tuples))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(44))}); err != nil {
		t.Error(err)
	}
}

// TestQuickLexerNeverPanics feeds random strings to the lexer; it must
// return tokens or an error, never panic.
func TestQuickLexerNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		toks, err := lex(s)
		if err == nil && len(toks) == 0 {
			return false // always at least EOF
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(45))}); err != nil {
		t.Error(err)
	}
}

// TestQuickParserNeverPanics feeds token-ish garbage to the parser.
func TestQuickParserNeverPanics(t *testing.T) {
	words := []string{"select", "from", "where", "group", "by", "as", "and",
		"or", "not", "count", "sum", "(", ")", ",", "+", "*", "/", "%", "=",
		"<", "a", "b", "1", "2.5", "'x'", "*"}
	f := func(seed uint64, nRaw uint8) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := core.NewRNG(seed)
		parts := make([]string, 1+int(nRaw)%25)
		for i := range parts {
			parts[i] = words[rng.Intn(len(words))]
		}
		src := strings.Join(parts, " ")
		_, _ = parseQuery(src, func(n string) bool { return n == "count" || n == "sum" })
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(46))}); err != nil {
		t.Error(err)
	}
}
