package gsql_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/gsql"
	"forwarddecay/udaf"
)

// aggArgKinds names each argument of every aggregate by how the aggregate
// reads it: k is a key or an item, an identity the aggregate never folds as
// a number; t a timestamp; v a value; w a weight or log-weight. The last
// three are its numeric arguments.
var aggArgKinds = map[string][]string{
	"count": {"", "k"}, "sum": {"v"}, "avg": {"v"}, "min": {"v"}, "max": {"v"},
	"prisamp": {"kw"}, "wrsamp": {"kw"}, "ressamp": {"k"}, "aggsamp": {"k"},
	"sshh": {"kw"}, "unaryhh": {"k"}, "swhh": {"ktw"}, "ehsum": {"tv"},
	"fdquant": {"vw"}, "fddistinct": {"kw"},
	"fdcount": {"t"}, "fdsum": {"tv"}, "fdavg": {"tv"}, "fdvar": {"tv"}, "fdmin": {"tv"}, "fdmax": {"tv"},
	"fdhh": {"kt"}, "fdpct": {"vt"}, "fdcard": {"kt"}, "fdprisamp": {"kt"}, "fdwrsamp": {"kt"},
}

// aggArg is the finite argument of row i of kind kind.
func aggArg(kind byte, i int) gsql.Value {
	switch kind {
	case 'k':
		return gsql.Int(int64(i % 3))
	case 't':
		return gsql.Float(float64(10 + i))
	case 'v':
		return gsql.Float(float64(i%4) + 0.5)
	}
	return gsql.Float(0.25 + float64(i%3)/4)
}

// TestAggregatesRefuseNonFiniteArguments steps NaN, +Inf and −Inf through
// each numeric argument of every builtin and every aggregate udaf.RegisterAll
// registers (the fd* family included). Batches refuse non-finite columns,
// but a computed argument (x/0.0, ln of a tiny value) can still be one, so
// each aggregate is driven directly: a row holding one must either fail its
// Step or leave Final() as if the row were absent.
func TestAggregatesRefuseNonFiniteArguments(t *testing.T) {
	e := gsql.NewEngine()
	if err := udaf.RegisterAll(e, udaf.Config{Decay: decay.NewForward(decay.NewExp(0.1), 0), SampleSize: 4}); err != nil {
		t.Fatal(err)
	}
	specs := e.AggSpecs()
	for name := range specs {
		if _, ok := aggArgKinds[name]; !ok {
			t.Fatalf("aggregate %s has no argument kinds: add it to the table", name)
		}
	}
	var names []string
	for name := range specs {
		names = append(names, name)
	}
	slices.Sort(names)
	const rows = 12
	for _, name := range names {
		spec := specs[name]
		for _, kinds := range aggArgKinds[name] {
			if len(kinds) < spec.MinArgs || len(kinds) > spec.MaxArgs {
				t.Fatalf("%s: %d argument kinds outside [%d, %d]", name, len(kinds), spec.MinArgs, spec.MaxArgs)
			}
			row := func(i int) []gsql.Value {
				r := make([]gsql.Value, len(kinds))
				for a := range r {
					r[a] = aggArg(kinds[a], i)
				}
				return r
			}
			want := spec.New()
			for i := range rows {
				if err := want.Step(row(i)); err != nil {
					t.Fatalf("%s: finite row %d: %v", name, i, err)
				}
			}
			for a := range len(kinds) {
				if kinds[a] == 'k' {
					continue
				}
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					got, refused := spec.New(), 0
					for i := range rows {
						if err := got.Step(row(i)); err != nil {
							t.Fatalf("%s: finite row %d: %v", name, i, err)
						}
						poison := row(i)
						poison[a] = gsql.Float(bad)
						if got.Step(poison) != nil {
							refused++
						}
					}
					label := fmt.Sprintf("%s(%s) with %v as argument %d (%d rows refused)", name, kinds, bad, a, refused)
					if w, g := want.Final(), got.Final(); !sameValue(w, g) {
						t.Errorf("%s: Final %v, want %v", label, g, w)
					}
				}
			}
		}
	}
}

// sameValue compares two results bit for bit.
func sameValue(a, b gsql.Value) bool {
	if a.T != b.T {
		return false
	}
	if a.T == gsql.TFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a == b
}
