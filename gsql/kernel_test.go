package gsql

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"forwarddecay/internal/core"
)

// The column kernels of the builtin functions and the batch fold's key
// writer, each checked against the scalar oracle it replaces: per row, the
// kernel's value (or error) must be the scalar closure's to the bit, and the
// key bytes written from the kernel columns must be keyAppend's over the
// scalar group values.

// kernelSchema has one column per operand class the kernels read.
func kernelSchema() *Schema {
	return MustSchema("K",
		Column{Name: "t", Type: TInt, Monotone: true},
		Column{Name: "i", Type: TInt},
		Column{Name: "b", Type: TBool},
		Column{Name: "f", Type: TFloat},
		Column{Name: "g", Type: TFloat},
		Column{Name: "s", Type: TString},
	)
}

// Operand values at the edges of the float functions: signed zeros,
// subnormals, the largest finite magnitudes, the bounds of exp's range, and
// the non-finite values a computed operand can carry.
var (
	edgeFloats = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
		1e-300, 0.5, -0.5, 1, -1, 2.5, -2.5, math.Pi, 709.78, 709.79, 710, -745.1, -746,
		1e308, -1e308, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	edgeInts = []int64{0, 1, -1, 2, -3, 709, 710, -745, -746, 1<<53 + 1, math.MaxInt64, math.MinInt64}
)

// kernelBatch crosses the edge values into rows: f walks the float edges, g
// walks them backwards, i and b cycle on their own periods.
func kernelBatch(t *testing.T, s *Schema) *Batch {
	t.Helper()
	b, err := NewBatch(s)
	if err != nil {
		t.Fatal(err)
	}
	n := len(edgeFloats) * len(edgeInts)
	for r := 0; r < n; r++ {
		row := Tuple{
			Int(int64(r / 8)),
			Int(edgeInts[r%len(edgeInts)]),
			Bool(r%3 == 0),
			Float(edgeFloats[r%len(edgeFloats)]),
			Float(edgeFloats[len(edgeFloats)-1-(r/len(edgeInts))%len(edgeFloats)]),
			Str([]string{"", "a", "b\x00c", "ab"}[r%4]),
		}
		if err := b.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// parseTupleExpr parses src as a tuple-level expression.
func parseTupleExpr(t *testing.T, src string) expr {
	t.Helper()
	q, err := parseQuery("select count(*) from K where "+src, func(n string) bool { return n == "count" })
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q.where
}

// sameBits reports whether two values are identical to the bit (NaN
// payloads and the sign of zero included).
func sameBits(a, b Value) bool {
	return a.T == b.T && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

func TestBuiltinKernelsMatchScalar(t *testing.T) {
	s := kernelSchema()
	b := kernelBatch(t, s)
	names := make([]string, 0, len(builtinFuncs))
	for name := range builtinFuncs {
		names = append(names, name)
	}
	sort.Strings(names)
	var cases []string
	for _, name := range names {
		if builtinFuncs[name].nargs == 1 {
			for _, a := range []string{"i", "b", "f"} {
				cases = append(cases, name+"("+a+")")
			}
			continue
		}
		for _, a := range []string{"f, g", "g, f", "i, f", "f, i", "b, i", "i, i"} {
			cases = append(cases, name+"("+a+")")
		}
	}
	// Kernels feeding kernels, and serve_fwd's decay weight.
	cases = append(cases, "exp(float(i % 60) / 10)", "sqrt(abs(f))", "ln(exp(f))",
		"pow(abs(i), 0.5)", "floor(-f) + ceil(f)", "abs(-i)", "log2(f * g)")

	env := tupleEnv(s)
	// A boxed kernel reads its operands through the context's box, which no
	// column kernel touches: a box left nil after a run means no boxed
	// kernel ran.
	boxed := func(ctx *vctx) bool { return ctx.box != nil }

	row := make(Tuple, len(s.Cols))
	sel := make([]uint64, bitWords(b.Len()))
	for _, src := range cases {
		e := parseTupleExpr(t, src)
		fn, err := env.compile(e)
		if err != nil {
			t.Fatalf("%s: scalar compile: %v", src, err)
		}
		vc := &vecComp{env: env}
		n, err := vc.compile(e)
		if err != nil {
			t.Fatalf("%s: vector compile: %v", src, err)
		}
		if got, want := n.t, env.staticType(e); got != want {
			t.Errorf("%s: kernel type %s, static type %s", src, got, want)
		}
		var ctx vctx
		for r := 0; r < b.Len(); r++ {
			ctx.reset(b, vc.nslots)
			ctx.box = nil
			clear(sel)
			putBit(sel, r, true)
			n.run(&ctx, sel)
			if boxed(&ctx) {
				t.Fatalf("%s: compiled to a boxed kernel, want a column kernel", src)
			}
			b.row(r, row)
			want, werr := fn(row)
			var kerr error
			if fails := ctx.take(nil, nil); len(fails) > 0 {
				kerr = fails[0].err
			}
			switch {
			case werr != nil || kerr != nil:
				if werr == nil || kerr == nil || werr.Error() != kerr.Error() {
					t.Fatalf("%s row %d: scalar err %v, kernel err %v", src, r, werr, kerr)
				}
			default:
				if got := ctx.valueAt(n, r); !sameBits(got, want) {
					t.Fatalf("%s row %d (%v): kernel %#v, scalar %#v", src, r, row, got, want)
				}
			}
		}
	}

	// The check sees a boxed kernel where one is due: an operand that is not
	// statically numeric.
	vc := &vecComp{env: env}
	n, err := vc.compile(parseTupleExpr(t, "exp(s)"))
	if err != nil {
		t.Fatal(err)
	}
	var ctx vctx
	ctx.reset(b, vc.nslots)
	clear(sel)
	putBit(sel, 0, true)
	n.run(&ctx, sel)
	if !boxed(&ctx) {
		t.Error("exp(s) compiled to no boxed kernel; the check is blind")
	}
}

// TestBatchKeysMatchKeyAppend: for every class of group expression — int,
// bool, float, string, dynamically typed, mixed lists and constants — the
// key bytes the batch fold writes from the kernel columns equal keyAppend
// over the scalar group values, and so hash alike. Where the plan keys by
// word, the words written from the kernel columns are the scalar values'
// words, and the word form is the byte form: the same hash, the same order
// as bytes.Compare, and values decoded back to the bit — on the kernel
// rows and on random rows of random 1–6-column word lists.
func TestBatchKeysMatchKeyAppend(t *testing.T) {
	s := kernelSchema()
	b := kernelBatch(t, s)
	e := NewEngine()
	if err := e.RegisterStream(s); err != nil {
		t.Fatal(err)
	}
	lists := []string{
		"i", "t, i % 7", // int
		"b", "f > 0", // bool: a column and a kernel bitmap
		"f", "f * 2", // float: ±0 must stay apart
		"s",           // string
		"-s", "s + i", // dynamically typed
		"t, b, f, s, -s, i > 0, abs(i), exp(f)", // mixed
		"7", "'k'", "1.5", "i, 'k'",             // constants
		"-i", "-f", "i, b", "f, i > 0, -i", // word keys: signs, ±0, bools
		"i, f, b, t, g", "t, -g, i % 7, b, f, 7", // mixed words, 5 and 6 columns
		"true, i", "i, 0.0, -(f * 0)",
	}
	row := make(Tuple, len(s.Cols))
	for _, list := range lists {
		st, err := e.Prepare("select count(*) from K group by " + list)
		if err != nil {
			t.Fatalf("prepare %q: %v", list, err)
		}
		p := st.p
		if p.vec == nil {
			t.Fatalf("%q: plan did not vectorize", list)
		}
		var ctx vctx
		ctx.reset(b, p.vec.nslots)
		sel := allBits(b.Len())
		for _, g := range p.vec.groups {
			g.run(&ctx, sel)
		}
		if fails := ctx.take(nil, nil); len(fails) > 0 {
			t.Fatalf("%q: kernels failed: %v", list, fails[0].err)
		}
		gvBatch := make(Tuple, len(oracleOf(p).groupFns))
		gvScalar := make(Tuple, len(oracleOf(p).groupFns))
		keys := map[string]Value{}
		var words []groupKey
		var byteKeys [][]byte
		for r := 0; r < b.Len(); r++ {
			var got []byte
			for gi, g := range p.vec.groups {
				got = ctx.appendKeyAt(got, g, r)
				gvBatch[gi] = ctx.valueAt(g, r)
			}
			b.row(r, row)
			for gi, fn := range oracleOf(p).groupFns {
				if gvScalar[gi], err = fn(row); err != nil {
					t.Fatalf("%q row %d: %v", list, r, err)
				}
			}
			fromValues := p.keyAppend(nil, gvBatch)
			oracle := p.keyAppend(nil, gvScalar)
			if !bytes.Equal(got, fromValues) || !bytes.Equal(got, oracle) {
				t.Fatalf("%q row %d: batch key %x, keyAppend(valueAt) %x, keyAppend(scalar) %x",
					list, r, got, fromValues, oracle)
			}
			if core.HashBytes(got) != core.HashBytes(oracle) {
				t.Fatalf("%q row %d: hashes differ", list, r)
			}
			if len(oracleOf(p).groupFns) == 1 {
				keys[string(got)] = gvScalar[0]
			}
			if p.keyTypes != nil {
				var k groupKey
				ctx.keyAt(&k, p.vec.groups, r, true)
				checkWordKey(t, p.keyTypes, &k, gvScalar, oracle)
				words, byteKeys = append(words, k), append(byteKeys, oracle)
			}
		}
		wordy := p.keyTypes != nil
		if want := !strings.ContainsAny(list, "s'"); wordy != want {
			t.Errorf("%q: word keys %v, want %v", list, wordy, want)
		}
		checkWordOrder(t, list, words, byteKeys)
		if list == "f" {
			// +0.0 and -0.0 are distinct groups.
			zeros := 0
			for _, v := range keys {
				if v.T == TFloat && v.F == 0 {
					zeros++
				}
			}
			if zeros != 2 {
				t.Errorf("float key: %d distinct zero groups, want 2 (+0 and -0)", zeros)
			}
		}
	}

	// The same property outside any plan, on random rows of random int,
	// bool and float lists of 1–6 columns drawn from the edge values.
	rng := core.NewRNG(511)
	kinds := []Type{TInt, TBool, TFloat}
	for trial := 0; trial < 200; trial++ {
		types := make([]Type, 1+rng.Intn(6))
		for i := range types {
			types[i] = kinds[rng.Intn(len(kinds))]
		}
		appendKey := buildKeyAppender(types)
		var words []groupKey
		var byteKeys [][]byte
		for range 40 {
			gv := make(Tuple, len(types))
			for i, ty := range types {
				switch ty {
				case TInt:
					gv[i] = Int(edgeInts[rng.Intn(len(edgeInts))])
				case TBool:
					gv[i] = Bool(rng.Intn(2) == 0)
				default:
					gv[i] = Float(edgeFloats[rng.Intn(len(edgeFloats))])
				}
			}
			var k groupKey
			for _, v := range gv {
				k.w = append(k.w, keyWord(v))
			}
			canon := appendKey(nil, gv)
			checkWordKey(t, types, &k, gv, canon)
			words, byteKeys = append(words, k), append(byteKeys, canon)
		}
		checkWordOrder(t, fmt.Sprint(types), words, byteKeys)
	}
}

// checkWordKey checks one word key against the group values gv it was
// written for and their canonical bytes: the words are gv's key words, the
// hash is the bytes' hash, and the words decode back to gv to the bit.
func checkWordKey(t *testing.T, types []Type, k *groupKey, gv Tuple, canon []byte) {
	t.Helper()
	if len(k.w) != len(gv) || len(k.b) != 0 {
		t.Fatalf("word key %v %x for %d values", k.w, k.b, len(gv))
	}
	if h := k.hash(types); h != core.HashBytes(canon) {
		t.Fatalf("%v: word hash %#x, HashBytes %#x", gv, h, core.HashBytes(canon))
	}
	g := group{key: *k}
	for i, v := range gv {
		if k.w[i] != keyWord(v) {
			t.Fatalf("%v: word %d is %#x, want %#x", gv, i, k.w[i], keyWord(v))
		}
		if d := g.value(i, types); d != v && !(d.T == TFloat && math.Float64bits(d.F) == math.Float64bits(v.F)) {
			t.Fatalf("%v: column %d decodes to %#v", gv, i, d)
		}
	}
}

// checkWordOrder checks that word keys order pairwise as bytes.Compare
// orders their canonical bytes.
func checkWordOrder(t *testing.T, label string, words []groupKey, byteKeys [][]byte) {
	t.Helper()
	for i := range words {
		for j := range words {
			if c, want := words[i].compare(&words[j]), bytes.Compare(byteKeys[i], byteKeys[j]); c != want {
				t.Fatalf("%s: keys %v and %v compare %d, bytes %d", label, words[i].w, words[j].w, c, want)
			}
			if eq := words[i].equal(&words[j]); eq != (bytes.Equal(byteKeys[i], byteKeys[j])) {
				t.Fatalf("%s: keys %v and %v equal %v", label, words[i].w, words[j].w, eq)
			}
		}
	}
}

// allBits returns an n-bit bitmap with every bit set.
func allBits(n int) []uint64 {
	bm := make([]uint64, bitWords(n))
	for i := 0; i < n; i++ {
		putBit(bm, i, true)
	}
	return bm
}
