package gsql

// Vectorized expression compilation: every expression of a plan compiles to
// a vecNode tree whose kernels evaluate a whole Batch column-at-a-time under
// a selection bitmap. The tuple-level expressions (WHERE, group-by,
// aggregate arguments) run over the stream's batches; HAVING and the select
// items run over the record batch of a bucket's flushed groups (emitter).
// The kernels are the only expression evaluator of every runtime.
//
// Exactness discipline (the closure fold of oracle_test.go is the reference
// the suites hold the kernels to):
//
//   - Kernels perform the primitive operation scalar evaluation defines on
//     the same operand representation (the same int64/float64 ops, the same
//     three-way float compare, and for builtins the very Go function a boxed
//     value goes through, on the same float promotion), so results are
//     bit-identical.
//   - and/or kernels evaluate their right side only under the rows the left
//     side selects, preserving scalar short-circuit semantics.
//   - A kernel that fails on a row (division by zero, a builtin's domain
//     error, a boxed operation's error) records the row and goes on with the
//     next (vctx.fail). Kernels run in scalar evaluation's order — a node's
//     operands before the node, left before right, WHERE before the group
//     keys before the arguments slot by slot, HAVING before the select items
//     in order — so the first failure recorded for a row is the error scalar
//     evaluation gives it. The fold charges that error at the row, after the
//     rows before it (keyTable.fold), the emitter stops at it, and each
//     segment's kernels run once however many of its rows fail.
//
// Boxed kernels cover operands the static type pass cannot pin to a kernel
// representation — dynamically typed values (every record column), or a
// string where a number is expected: each selected row's operands are read
// as Values and handed to the operation scalar evaluation applies
// (numericBinop, compare, a builtin's fn1 or fn).

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// vecPlan is the batch-compiled form of a plan's tuple-level expressions.
// It is immutable after compilation and shared across runs; all evaluation
// state lives in a vctx.
type vecPlan struct {
	where  *vecNode   // selection-bits node, nil when the query has no WHERE
	groups []*vecNode // one per group-by expression
	args   [][]*vecNode
	nslots int
}

// outPlan is the batch-compiled output stage: HAVING and the select items
// over a record batch, whose columns are a flushed group's values and then
// its aggregate finals (emitter).
type outPlan struct {
	having *vecNode // selection-bits node, nil when the query has no HAVING
	items  []*vecNode
	nslots int
}

// vecNode is one compiled expression node. Exactly one storage class holds
// its per-row results: a batch column (col >= 0), a compile-time constant
// (constOK), or a scratch slot in the vctx. Slot nodes of type TBool store
// a bitmap; other types store typed vectors; TNull stores dynamic Values.
type vecNode struct {
	t       Type
	col     int // >= 0: alias of a batch column (eval == nil)
	slot    int
	constOK bool
	constV  Value
	eval    func(ctx *vctx, sel []uint64)
}

// run evaluates the node's subtree for the selected rows. Column and
// constant nodes have nil eval.
func (n *vecNode) run(ctx *vctx, sel []uint64) {
	if n.eval != nil {
		n.eval(ctx, sel)
	}
}

// vctx is the per-run evaluation context: scratch slots for kernel outputs
// and the rows the kernels failed on. Compiled plans are shared across runs,
// so kernels must never capture mutable state — it all lives here: one vctx
// per fold, emitter, heartbeat and BatchPredicate closure.
type vctx struct {
	b     *Batch
	n     int
	slots []vslot
	// box is one row's boxed values: a boxed kernel's operands, or the
	// aggregate arguments of Cols.stepRows.
	box []Value
	// errs lists the rows a kernel failed on since the last reset, each with
	// the first failure recorded for it; failed marks their rows. slot is
	// the aggregate slot whose argument kernels are running, recorded with a
	// failure.
	errs   []rowErr
	failed []uint64
	slot   int
}

// rowErr is one row's failure, in a kernel (slot is the aggregate slot of a
// failed argument) or in a class predicate.
type rowErr struct {
	row, slot int
	err       error
}

type vslot struct {
	ints []int64
	fls  []float64
	strs []string
	vals []Value
	bits []uint64
}

// reset points the context at a batch for a plan of nslots scratch slots,
// forgetting every recorded failure.
func (ctx *vctx) reset(b *Batch, nslots int) {
	ctx.b, ctx.n = b, b.n
	ctx.forget()
	if len(ctx.slots) < nslots {
		ctx.slots = make([]vslot, nslots)
	}
}

// fail records that row r failed with err, unless a kernel that ran before
// failed it first.
func (ctx *vctx) fail(r int, err error) {
	if w := bitWords(ctx.n); len(ctx.failed) < w {
		ctx.failed = make([]uint64, w)
	}
	if bitGet(ctx.failed, r) {
		return
	}
	putBit(ctx.failed, r, true)
	ctx.errs = append(ctx.errs, rowErr{r, ctx.slot, err})
}

// take moves the recorded failures onto dst[:0] in row order and returns
// it; their rows leave sel when sel is not nil.
func (ctx *vctx) take(dst []rowErr, sel []uint64) []rowErr {
	if len(ctx.errs) == 0 {
		return dst[:0]
	}
	slices.SortFunc(ctx.errs, func(a, b rowErr) int { return cmp.Compare(a.row, b.row) })
	dst = append(dst[:0], ctx.errs...)
	if sel != nil {
		for _, f := range dst {
			putBit(sel, f.row, false)
		}
	}
	ctx.forget()
	return dst
}

// forget drops every recorded failure.
func (ctx *vctx) forget() {
	for _, f := range ctx.errs {
		putBit(ctx.failed, f.row, false)
	}
	clear(ctx.errs)
	ctx.errs = ctx.errs[:0]
}

// Slot storage accessors grow lazily to the current batch length and are
// stable for the rest of the batch (producers run before consumers).

func (ctx *vctx) ints(n *vecNode) []int64 {
	s := &ctx.slots[n.slot]
	if cap(s.ints) < ctx.n {
		s.ints = make([]int64, ctx.n)
	}
	return s.ints[:ctx.n]
}

func (ctx *vctx) floats(n *vecNode) []float64 {
	s := &ctx.slots[n.slot]
	if cap(s.fls) < ctx.n {
		s.fls = make([]float64, ctx.n)
	}
	return s.fls[:ctx.n]
}

func (ctx *vctx) strings(n *vecNode) []string {
	s := &ctx.slots[n.slot]
	if cap(s.strs) < ctx.n {
		s.strs = make([]string, ctx.n)
	}
	return s.strs[:ctx.n]
}

func (ctx *vctx) values(n *vecNode) []Value {
	s := &ctx.slots[n.slot]
	if cap(s.vals) < ctx.n {
		s.vals = make([]Value, ctx.n)
	}
	return s.vals[:ctx.n]
}

func (ctx *vctx) bits(n *vecNode) []uint64 {
	s := &ctx.slots[n.slot]
	w := bitWords(ctx.n)
	if cap(s.bits) < w {
		s.bits = make([]uint64, w)
	}
	return s.bits[:w]
}

// Per-row payload accessors. These are value structs, not returned closures:
// a closure returned from a factory is heap-allocated on every kernel
// invocation, which alone broke the batch path's zero-alloc steady state.
// The structs resolve the node's storage class once per kernel call and stay
// on the kernel's stack; at() compiles to a switch over the resolved kind.

const (
	accConst uint8 = iota
	accSlice
	accBits
	accPromote
)

// intAcc reads per-row int64 payloads for a statically int-or-bool node,
// mirroring the payload the scalar evaluator would see in Value.I.
type intAcc struct {
	xs   []int64
	bm   []uint64
	c    int64
	kind uint8
}

func (ctx *vctx) accInt(n *vecNode) intAcc {
	switch {
	case n.constOK:
		return intAcc{kind: accConst, c: n.constV.I}
	case n.col >= 0:
		return intAcc{kind: accSlice, xs: ctx.b.cols[n.col].ints}
	case n.t == TBool:
		return intAcc{kind: accBits, bm: ctx.bits(n)}
	default:
		return intAcc{kind: accSlice, xs: ctx.ints(n)}
	}
}

func (a *intAcc) at(r int) int64 {
	switch a.kind {
	case accSlice:
		return a.xs[r]
	case accBits:
		return int64((a.bm[r>>6] >> uint(r&63)) & 1)
	default:
		return a.c
	}
}

// floatAcc reads per-row float64 payloads for a statically numeric node,
// with the same promotion AsFloat applies on the scalar path.
type floatAcc struct {
	fs   []float64
	ia   intAcc
	c    float64
	kind uint8
}

func (ctx *vctx) accFloat(n *vecNode) floatAcc {
	if n.t == TFloat {
		switch {
		case n.constOK:
			return floatAcc{kind: accConst, c: n.constV.F}
		case n.col >= 0:
			return floatAcc{kind: accSlice, fs: ctx.b.cols[n.col].fls}
		default:
			return floatAcc{kind: accSlice, fs: ctx.floats(n)}
		}
	}
	return floatAcc{kind: accPromote, ia: ctx.accInt(n)}
}

func (a *floatAcc) at(r int) float64 {
	switch a.kind {
	case accSlice:
		return a.fs[r]
	case accPromote:
		return float64(a.ia.at(r))
	default:
		return a.c
	}
}

// strAcc reads per-row string payloads for a statically string node.
type strAcc struct {
	ss   []string
	c    string
	kind uint8
}

func (ctx *vctx) accStr(n *vecNode) strAcc {
	switch {
	case n.constOK:
		return strAcc{kind: accConst, c: n.constV.S}
	case n.col >= 0:
		return strAcc{kind: accSlice, ss: ctx.b.cols[n.col].strs}
	default:
		return strAcc{kind: accSlice, ss: ctx.strings(n)}
	}
}

func (a *strAcc) at(r int) string {
	if a.kind == accSlice {
		return a.ss[r]
	}
	return a.c
}

// valueAt materializes one row of a node as a Value, bit-identical to what
// the scalar evaluator would have returned for that row.
func (ctx *vctx) valueAt(n *vecNode, r int) Value {
	if vs := ctx.valueSlice(n); vs != nil {
		return vs[r]
	}
	if n.constOK {
		return n.constV
	}
	if n.col >= 0 {
		return ctx.b.colValue(n.col, r)
	}
	switch n.t {
	case TInt:
		return Int(ctx.slots[n.slot].ints[r])
	case TFloat:
		return Float(ctx.slots[n.slot].fls[r])
	case TBool:
		bm := ctx.slots[n.slot].bits
		return Bool(bm[r>>6]&(1<<uint(r&63)) != 0)
	default: // TString
		return Str(ctx.slots[n.slot].strs[r])
	}
}

// valueSlice returns the Values of a dynamically typed node's rows — a
// record column, or a boxed kernel's slot — and nil for any other node.
func (ctx *vctx) valueSlice(n *vecNode) []Value {
	switch {
	case n.t != TNull || n.constOK:
		return nil
	case n.col >= 0:
		return ctx.b.cols[n.col].vals
	default:
		return ctx.slots[n.slot].vals
	}
}

// keyAt writes row r's group key into k in the form the run keys by: one
// wordAt per group node, or their canonical bytes (appendKeyAt).
func (ctx *vctx) keyAt(k *groupKey, groups []*vecNode, r int, words bool) {
	k.w, k.b = k.w[:0], k.b[:0]
	for _, n := range groups {
		if words {
			k.w = append(k.w, ctx.wordAt(n, r))
		} else {
			k.b = ctx.appendKeyAt(k.b, n, r)
		}
	}
}

// wordAt returns row r of a statically int, bool or float node as its word,
// straight from the node's column or slot: keyWord of valueAt(n, r) (bools
// normalize to 0/1 as valueAt's Bool does) without building a Value.
func (ctx *vctx) wordAt(n *vecNode, r int) uint64 {
	if n.constOK {
		return keyWord(n.constV)
	}
	if n.col >= 0 {
		c := &ctx.b.cols[n.col]
		switch n.t {
		case TInt:
			return uint64(c.ints[r])
		case TBool:
			return boolWord(c.ints[r] != 0)
		default: // TFloat
			return math.Float64bits(c.fls[r])
		}
	}
	s := &ctx.slots[n.slot]
	switch n.t {
	case TInt:
		return uint64(s.ints[r])
	case TBool:
		return boolWord(bitGet(s.bits, r))
	default: // TFloat
		return math.Float64bits(s.fls[r])
	}
}

// appendKeyAt appends row r of node n in the group-key encoding: byte-
// identical to valueAt(n, r).appendKey without building a Value.
func (ctx *vctx) appendKeyAt(dst []byte, n *vecNode, r int) []byte {
	switch {
	case n.constOK:
		return n.constV.appendKey(dst)
	case n.t == TInt || n.t == TBool || n.t == TFloat:
		return appendKeyWord(dst, n.t, ctx.wordAt(n, r))
	case n.col >= 0: // TString
		return appendKeyStr(dst, ctx.b.cols[n.col].strs[r])
	case n.t == TString:
		return appendKeyStr(dst, ctx.slots[n.slot].strs[r])
	default:
		return ctx.slots[n.slot].vals[r].appendKey(dst)
	}
}

// writeBits evaluates a row predicate over the selected rows, setting or
// clearing the corresponding output bits (bits outside the selection are
// left untouched — consumers always mask with a clean selection).
func writeBits(sel, out []uint64, f func(r int) bool) {
	for w, m := range sel {
		if m == 0 {
			continue
		}
		base := w << 6
		res := out[w] &^ m
		for mm := m; mm != 0; mm &= mm - 1 {
			r := base + bits.TrailingZeros64(mm)
			if f(r) {
				res |= 1 << uint(r&63)
			}
		}
		out[w] = res
	}
}

// --- compilation ---

// vecComp compiles expressions to vecNodes, allocating scratch slots.
type vecComp struct {
	env    *compileEnv
	nslots int
}

// node allocates a slot-backed node.
func (vc *vecComp) node(t Type) *vecNode {
	n := &vecNode{t: t, col: -1, slot: vc.nslots}
	vc.nslots++
	return n
}

func constNode(v Value) *vecNode {
	return &vecNode{t: v.T, col: -1, constOK: true, constV: v}
}

// compileWhere batch-compiles a WHERE clause alone: a predicate class's
// plan.
func compileWhere(env *compileEnv, where expr) (*vecPlan, error) {
	vc := &vecComp{env: env}
	n, err := vc.compile(where)
	if err != nil {
		return nil, err
	}
	return &vecPlan{where: vc.asBits(n), nslots: vc.nslots}, nil
}

// compile builds a vecNode for e. Errors only surface for expressions that
// do not compile at all; everything else vectorizes, worst case as a boxed
// kernel. Under an output environment a subtree matching a group expression
// and an aggregate call each read their record column.
func (vc *vecComp) compile(e expr) (*vecNode, error) {
	if vc.env.subMatch != nil {
		if idx := vc.env.subMatch(e); idx >= 0 {
			return &vecNode{t: TNull, col: idx}, nil
		}
	}
	switch n := e.(type) {
	case *numLit:
		return constNode(n.v), nil
	case *strLit:
		return constNode(Str(n.s)), nil
	case *boolLit:
		return constNode(Bool(n.b)), nil
	case *colRef:
		idx := vc.env.resolve(n.name)
		if idx < 0 {
			return nil, fmt.Errorf("gsql: unknown column %q", n.name)
		}
		return &vecNode{t: vc.env.staticType(n), col: idx}, nil
	case *unExpr:
		return vc.compileUn(n)
	case *binExpr:
		return vc.compileVecBin(n)
	case *callExpr:
		return vc.compileCall(n)
	case *aggExpr:
		if vc.env.aggSlot == nil {
			return nil, fmt.Errorf("gsql: aggregate %s is not allowed here", n.name)
		}
		idx, err := vc.env.aggSlot(n)
		if err != nil {
			return nil, err
		}
		return &vecNode{t: TNull, col: idx}, nil
	default:
		return nil, fmt.Errorf("gsql: cannot compile %T", e)
	}
}

func (vc *vecComp) compileUn(n *unExpr) (*vecNode, error) {
	c, err := vc.compile(n.e)
	if err != nil {
		return nil, err
	}
	switch n.op {
	case "-":
		switch vc.env.staticType(n.e) {
		case TInt:
			return vc.intUn(c, func(x int64) int64 { return -x }), nil
		case TFloat:
			return vc.floatUn(c, func(x float64) float64 { return -x }), nil
		}
		return vc.boxed(vc.env.staticType(n), []*vecNode{c}, func(vs []Value) (Value, error) { return negValue(vs[0]), nil }), nil
	case "not":
		cb := vc.asBits(c)
		out := vc.node(TBool)
		out.eval = func(ctx *vctx, sel []uint64) {
			cb.run(ctx, sel)
			cbm, om := ctx.bits(cb), ctx.bits(out)
			for w := range sel {
				om[w] = sel[w] &^ cbm[w]
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("gsql: unknown unary operator %q", n.op)
}

func (vc *vecComp) compileVecBin(n *binExpr) (*vecNode, error) {
	l, r, err := vc.compile2(n.l, n.r)
	if err != nil {
		return nil, err
	}
	lt, rt := vc.env.staticType(n.l), vc.env.staticType(n.r)
	switch n.op {
	case "+", "-", "*", "/", "%":
		op := n.op[0]
		if !staticNumeric(lt) || !staticNumeric(rt) {
			return vc.boxed(vc.env.staticType(n), []*vecNode{l, r}, func(vs []Value) (Value, error) {
				return numericBinop(op, vs[0], vs[1])
			}), nil
		}
		if lt == TInt && rt == TInt {
			switch op {
			case '+':
				return vc.intBin(l, r, func(x, y int64) int64 { return x + y }), nil
			case '-':
				return vc.intBin(l, r, func(x, y int64) int64 { return x - y }), nil
			case '*':
				return vc.intBin(l, r, func(x, y int64) int64 { return x * y }), nil
			default:
				return vc.intDiv(l, r, op), nil
			}
		}
		// Mixed numeric: both sides promote to float, as arithFloatFn does
		// (float division by zero yields ±Inf, not an error).
		switch op {
		case '+':
			return vc.floatBin(l, r, func(x, y float64) float64 { return x + y }), nil
		case '-':
			return vc.floatBin(l, r, func(x, y float64) float64 { return x - y }), nil
		case '*':
			return vc.floatBin(l, r, func(x, y float64) float64 { return x * y }), nil
		case '/':
			return vc.floatBin(l, r, func(x, y float64) float64 { return x / y }), nil
		default:
			return vc.floatBin(l, r, func(x, y float64) float64 { return math.Mod(x, y) }), nil
		}
	case "=", "!=", "<", "<=", ">", ">=":
		isIntish := func(t Type) bool { return t == TInt || t == TBool }
		switch {
		case isIntish(lt) && isIntish(rt):
			return vc.intPredNode(l, r, intPred(n.op)), nil
		case staticNumeric(lt) && staticNumeric(rt):
			return vc.floatPredNode(l, r, floatPred(n.op)), nil
		case lt == TString && rt == TString:
			return vc.strPredNode(l, r, stringPred(n.op)), nil
		}
		pred := cmpPred(n.op)
		return vc.boxed(TBool, []*vecNode{l, r}, func(vs []Value) (Value, error) {
			c, err := compare(vs[0], vs[1])
			return Bool(pred(c)), err
		}), nil
	case "and":
		lb, rb := vc.asBits(l), vc.asBits(r)
		out := vc.node(TBool)
		out.eval = func(ctx *vctx, sel []uint64) {
			lb.run(ctx, sel)
			lbm, om := ctx.bits(lb), ctx.bits(out)
			for w := range sel {
				om[w] = sel[w] & lbm[w]
			}
			// Scalar short-circuit: the right side only ever evaluates where
			// the left side passed.
			rb.run(ctx, om)
			rbm := ctx.bits(rb)
			for w := range sel {
				om[w] &= rbm[w]
			}
		}
		return out, nil
	case "or":
		lb, rb := vc.asBits(l), vc.asBits(r)
		out := vc.node(TBool)
		out.eval = func(ctx *vctx, sel []uint64) {
			lb.run(ctx, sel)
			lbm, om := ctx.bits(lb), ctx.bits(out)
			for w := range sel {
				om[w] = sel[w] &^ lbm[w]
			}
			// The right side only evaluates where the left side failed.
			rb.run(ctx, om)
			rbm := ctx.bits(rb)
			for w := range sel {
				om[w] = (sel[w] & lbm[w]) | (om[w] & rbm[w])
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("gsql: unknown operator %q", n.op)
}

// compileCall gives a builtin whose arguments are all statically numeric a
// column kernel: float()/int() compile to loads or conversions (the hot
// pattern: avg(float(len))), and the numeric functions to kernels calling
// the very function the scalar closure calls (scalarFunc.f1/f1e/f2/i1) on
// the same floatAcc promotion, so results — exp's included — are
// bit-identical, and a domain error fails the row with the scalar message.
// A call with an argument of no static numeric type is boxed.
func (vc *vecComp) compileCall(n *callExpr) (*vecNode, error) {
	f, ok := vc.env.funcs[n.name]
	if !ok {
		return nil, fmt.Errorf("gsql: unknown function %q", n.name)
	}
	if len(n.args) != f.nargs {
		return nil, fmt.Errorf("gsql: %s expects %d argument(s), got %d", n.name, f.nargs, len(n.args))
	}
	args := make([]*vecNode, len(n.args))
	numeric := true
	for i, a := range n.args {
		var err error
		if args[i], err = vc.compile(a); err != nil {
			return nil, err
		}
		numeric = numeric && staticNumeric(vc.env.staticType(a))
	}
	c, at := args[0], vc.env.staticType(n.args[0])
	switch {
	case !numeric: // boxed, below
	case n.name == "float" && at == TFloat:
		return c, nil // Float(v.F) ≡ identity on a TFloat value
	case n.name == "float":
		out := vc.node(TFloat)
		out.eval = func(ctx *vctx, sel []uint64) {
			c.run(ctx, sel)
			cx, o := ctx.accInt(c), ctx.floats(out)
			forSel(sel, func(i int) bool { o[i] = float64(cx.at(i)); return true })
		}
		return out, nil
	case n.name == "int" && at == TInt:
		return c, nil // Int(v.I) ≡ identity on a TInt value
	case n.name == "int" && at == TBool:
		return vc.intUn(c, func(x int64) int64 { return x }), nil
	case n.name == "int": // int(TFloat)
		out := vc.node(TInt)
		out.eval = func(ctx *vctx, sel []uint64) {
			c.run(ctx, sel)
			cx, o := ctx.accFloat(c), ctx.ints(out)
			forSel(sel, func(i int) bool { o[i] = int64(cx.at(i)); return true })
		}
		return out, nil
	case f.i1 != nil && at == TInt:
		return vc.intUn(c, f.i1), nil
	case f.f1 != nil:
		return vc.floatUn(c, f.f1), nil
	case f.f1e != nil:
		return vc.floatUnErr(c, f.f1e), nil
	case f.f2 != nil:
		return vc.floatBin(c, args[1], f.f2), nil
	}
	fn := f.fn
	if f.fn1 != nil {
		fn = func(vs []Value) (Value, error) { return f.fn1(vs[0]) }
	}
	return vc.boxed(vc.env.staticType(n), args, fn), nil
}

// compile2 compiles both sides of a binary node.
func (vc *vecComp) compile2(le, re expr) (l, r *vecNode, err error) {
	if l, err = vc.compile(le); err != nil {
		return nil, nil, err
	}
	if r, err = vc.compile(re); err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

// asBits converts any node to selection bits under scalar truthiness
// semantics (Value.Truthy). Slot-backed TBool nodes already are bits.
func (vc *vecComp) asBits(n *vecNode) *vecNode {
	if n.t == TBool && !n.constOK && n.col < 0 {
		return n
	}
	c := n
	out := vc.node(TBool)
	switch n.t {
	case TBool, TInt:
		out.eval = func(ctx *vctx, sel []uint64) {
			c.run(ctx, sel)
			x := ctx.accInt(c)
			writeBits(sel, ctx.bits(out), func(i int) bool { return x.at(i) != 0 })
		}
	case TFloat:
		out.eval = func(ctx *vctx, sel []uint64) {
			c.run(ctx, sel)
			x := ctx.accFloat(c)
			writeBits(sel, ctx.bits(out), func(i int) bool { return x.at(i) != 0 })
		}
	case TString:
		out.eval = func(ctx *vctx, sel []uint64) {
			c.run(ctx, sel)
			x := ctx.accStr(c)
			writeBits(sel, ctx.bits(out), func(i int) bool { return x.at(i) != "" })
		}
	default: // dynamic
		out.eval = func(ctx *vctx, sel []uint64) {
			c.run(ctx, sel)
			writeBits(sel, ctx.bits(out), func(i int) bool { return ctx.valueAt(c, i).Truthy() })
		}
	}
	return out
}

// --- kernel builders ---

func (vc *vecComp) intUn(c *vecNode, f func(int64) int64) *vecNode {
	out := vc.node(TInt)
	out.eval = func(ctx *vctx, sel []uint64) {
		c.run(ctx, sel)
		cx, o := ctx.accInt(c), ctx.ints(out)
		forSel(sel, func(i int) bool { o[i] = f(cx.at(i)); return true })
	}
	return out
}

func (vc *vecComp) floatUn(c *vecNode, f func(float64) float64) *vecNode {
	out := vc.node(TFloat)
	out.eval = func(ctx *vctx, sel []uint64) {
		c.run(ctx, sel)
		cx, o := ctx.accFloat(c), ctx.floats(out)
		forSel(sel, func(i int) bool { o[i] = f(cx.at(i)); return true })
	}
	return out
}

// floatUnErr is floatUn for a partial function: a domain error fails its
// row.
func (vc *vecComp) floatUnErr(c *vecNode, f func(float64) (float64, error)) *vecNode {
	out := vc.node(TFloat)
	out.eval = func(ctx *vctx, sel []uint64) {
		c.run(ctx, sel)
		cx, o := ctx.accFloat(c), ctx.floats(out)
		forSel(sel, func(i int) bool {
			x, err := f(cx.at(i))
			if err != nil {
				ctx.fail(i, err)
			}
			o[i] = x
			return true
		})
	}
	return out
}

func (vc *vecComp) intBin(l, r *vecNode, f func(x, y int64) int64) *vecNode {
	out := vc.node(TInt)
	out.eval = func(ctx *vctx, sel []uint64) {
		l.run(ctx, sel)
		r.run(ctx, sel)
		lx, rx, o := ctx.accInt(l), ctx.accInt(r), ctx.ints(out)
		forSel(sel, func(i int) bool { o[i] = f(lx.at(i), rx.at(i)); return true })
	}
	return out
}

// intDiv handles '/' and '%' with the scalar path's zero-divisor errors,
// each failing its row.
func (vc *vecComp) intDiv(l, r *vecNode, op byte) *vecNode {
	out := vc.node(TInt)
	out.eval = func(ctx *vctx, sel []uint64) {
		l.run(ctx, sel)
		r.run(ctx, sel)
		lx, rx, o := ctx.accInt(l), ctx.accInt(r), ctx.ints(out)
		forSel(sel, func(i int) bool {
			y := rx.at(i)
			if y == 0 {
				if op == '/' {
					ctx.fail(i, fmt.Errorf("gsql: integer division by zero"))
				} else {
					ctx.fail(i, fmt.Errorf("gsql: integer modulo by zero"))
				}
				return true
			}
			if op == '/' {
				o[i] = lx.at(i) / y
			} else {
				o[i] = lx.at(i) % y
			}
			return true
		})
	}
	return out
}

func (vc *vecComp) floatBin(l, r *vecNode, f func(x, y float64) float64) *vecNode {
	out := vc.node(TFloat)
	out.eval = func(ctx *vctx, sel []uint64) {
		l.run(ctx, sel)
		r.run(ctx, sel)
		lx, rx, o := ctx.accFloat(l), ctx.accFloat(r), ctx.floats(out)
		forSel(sel, func(i int) bool { o[i] = f(lx.at(i), rx.at(i)); return true })
	}
	return out
}

// Comparison kernels, one per operand class. Each resolves its accessors on
// the stack and writes the comparison bitmap through writeBits.

func (vc *vecComp) intPredNode(l, r *vecNode, p func(x, y int64) bool) *vecNode {
	out := vc.node(TBool)
	out.eval = func(ctx *vctx, sel []uint64) {
		l.run(ctx, sel)
		r.run(ctx, sel)
		lx, rx := ctx.accInt(l), ctx.accInt(r)
		writeBits(sel, ctx.bits(out), func(i int) bool { return p(lx.at(i), rx.at(i)) })
	}
	return out
}

func (vc *vecComp) floatPredNode(l, r *vecNode, p func(x, y float64) bool) *vecNode {
	out := vc.node(TBool)
	out.eval = func(ctx *vctx, sel []uint64) {
		l.run(ctx, sel)
		r.run(ctx, sel)
		lx, rx := ctx.accFloat(l), ctx.accFloat(r)
		writeBits(sel, ctx.bits(out), func(i int) bool { return p(lx.at(i), rx.at(i)) })
	}
	return out
}

func (vc *vecComp) strPredNode(l, r *vecNode, p func(x, y string) bool) *vecNode {
	out := vc.node(TBool)
	out.eval = func(ctx *vctx, sel []uint64) {
		l.run(ctx, sel)
		r.run(ctx, sel)
		lx, rx := ctx.accStr(l), ctx.accStr(r)
		writeBits(sel, ctx.bits(out), func(i int) bool { return p(lx.at(i), rx.at(i)) })
	}
	return out
}

// boxed is the kernel of an operation whose operands have no static kernel
// representation: each selected row's operands are read as Values and
// handed to f, the operation the scalar closure applies, and a row f fails
// is recorded as failed. The result is stored as t, the operation's static
// type.
func (vc *vecComp) boxed(t Type, args []*vecNode, f func(vs []Value) (Value, error)) *vecNode {
	out := vc.node(t)
	out.eval = func(ctx *vctx, sel []uint64) {
		for _, a := range args {
			a.run(ctx, sel)
		}
		if cap(ctx.box) < len(args) {
			ctx.box = make([]Value, len(args))
		}
		vs := ctx.box[:len(args)]
		var (
			ints []int64
			fls  []float64
			bm   []uint64
			strs []string
			vals []Value
		)
		switch t {
		case TInt:
			ints = ctx.ints(out)
		case TFloat:
			fls = ctx.floats(out)
		case TBool:
			bm = ctx.bits(out)
		case TString:
			strs = ctx.strings(out)
		default:
			vals = ctx.values(out)
		}
		forSel(sel, func(i int) bool {
			for k, a := range args {
				vs[k] = ctx.valueAt(a, i)
			}
			v, err := f(vs)
			switch {
			case err != nil:
				ctx.fail(i, err)
			case t == TInt:
				ints[i] = v.I
			case t == TFloat:
				fls[i] = v.F
			case t == TBool:
				putBit(bm, i, v.I != 0)
			case t == TString:
				strs[i] = v.S
			default:
				vals[i] = v
			}
			return true
		})
	}
	return out
}

// --- predicate tables ---

func intPred(op string) func(x, y int64) bool {
	switch op {
	case "=":
		return func(x, y int64) bool { return x == y }
	case "!=":
		return func(x, y int64) bool { return x != y }
	case "<":
		return func(x, y int64) bool { return x < y }
	case "<=":
		return func(x, y int64) bool { return x <= y }
	case ">":
		return func(x, y int64) bool { return x > y }
	default: // ">="
		return func(x, y int64) bool { return x >= y }
	}
}

// floatPred mirrors cmpFloatFn's three-way compare (NaN compares equal to
// everything there, and must keep doing so here).
func floatPred(op string) func(x, y float64) bool {
	pred := cmpPred(op)
	return func(x, y float64) bool {
		c := 0
		if x < y {
			c = -1
		} else if x > y {
			c = 1
		}
		return pred(c)
	}
}

func stringPred(op string) func(x, y string) bool {
	pred := cmpPred(op)
	return func(x, y string) bool {
		c := 0
		if x < y {
			c = -1
		} else if x > y {
			c = 1
		}
		return pred(c)
	}
}

func putBit(bm []uint64, r int, v bool) {
	if v {
		bm[r>>6] |= 1 << uint(r&63)
	} else {
		bm[r>>6] &^= 1 << uint(r&63)
	}
}
