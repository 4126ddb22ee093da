package gsql

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// The closure fold: the row evaluator the column kernels replaced, kept as
// the reference the row-path suites compare them with. Each expression of a
// query compiles to a chain of closures over one record (compile below); each
// tuple runs WHERE, the group expressions and every slot's arguments through
// them, one after another, into the key table a Run folds through — the
// order, and so the error, that scalar evaluation defines. A flushed group's
// record (its group values, then its finals) runs through the HAVING and
// select-item closures on its way to the sink (oracleEmit).

// evalFn evaluates a compiled expression against a record (a stream tuple,
// or for output expressions the concatenation of group values and aggregate
// results).
type evalFn func(rec Tuple) (Value, error)

// oraclePlan is a plan's query compiled to closures.
type oraclePlan struct {
	where     evalFn // nil if absent
	groupFns  []evalFn
	aggArgFns [][]evalFn // per slot, in the plan's slot order
	outFns    []evalFn
	having    evalFn // nil if absent
}

// oracles caches each plan's closures, by the plan's vecPlan (a copy of a
// plan shares it).
var oracles sync.Map // *vecPlan → *oraclePlan

// oracleOf returns the closures of p's query, compiled on first use.
func oracleOf(p *plan) *oraclePlan {
	if o, ok := oracles.Load(p.vec); ok {
		return o.(*oraclePlan)
	}
	o, err := compileOracle(p)
	if err != nil {
		panic(fmt.Sprintf("gsql: a prepared query does not compile to closures: %v", err))
	}
	oracles.Store(p.vec, o)
	return o
}

// compileOracle parses p's query again — its aggregates are the plan's — and
// compiles it to closures. Slots are numbered as buildPlan numbers them: by
// first appearance, the select items in order and then HAVING.
func compileOracle(p *plan) (*oraclePlan, error) {
	q, err := parseQuery(p.text, func(name string) bool {
		return slices.ContainsFunc(p.aggSpecs, func(s AggSpec) bool { return strings.EqualFold(s.Name, name) })
	})
	if err != nil {
		return nil, err
	}
	o := &oraclePlan{aggArgFns: make([][]evalFn, len(p.aggSpecs))}
	tenv := tupleEnv(p.schema)
	if q.where != nil {
		if o.where, err = tenv.compile(q.where); err != nil {
			return nil, err
		}
	}
	groups := map[string]int{}
	for i, g := range q.group {
		fn, err := tenv.compile(g.e)
		if err != nil {
			return nil, err
		}
		o.groupFns = append(o.groupFns, fn)
		groups[exprKey(g.e)] = i
		if g.alias != "" {
			groups[g.alias] = i
		}
	}
	slots := map[string]int{}
	outEnv := &compileEnv{
		resolve: func(name string) int {
			if i, ok := groups[name]; ok {
				return i
			}
			return -1
		},
		aggSlot: func(a *aggExpr) (int, error) {
			key := exprKey(a)
			slot, ok := slots[key]
			if !ok {
				slot = len(slots)
				slots[key] = slot
				for _, arg := range a.args {
					fn, err := tenv.compile(arg)
					if err != nil {
						return 0, err
					}
					o.aggArgFns[slot] = append(o.aggArgFns[slot], fn)
				}
			}
			return len(q.group) + slot, nil
		},
		subMatch: func(e expr) int {
			if _, isAgg := e.(*aggExpr); !isAgg {
				if i, ok := groups[exprKey(e)]; ok {
					return i
				}
			}
			return -1
		},
		funcs: builtinFuncs,
	}
	for _, item := range q.sel {
		fn, err := outEnv.compile(item.e)
		if err != nil {
			return nil, err
		}
		o.outFns = append(o.outFns, fn)
	}
	if q.having != nil {
		if o.having, err = outEnv.compile(q.having); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// oraclePush folds one tuple into standalone run r as Push does — counted,
// refused when non-finite, observed by the epoch supervisor before it folds
// — but through the closures, and for a tuple of any types. From its first
// call on, r emits through the closures too (oracleEmit).
func (r *Run) oraclePush(t Tuple) error {
	o := oracleOf(r.tab.p)
	r.oracleEmit(o)
	r.tuples++
	if err := checkTupleFinite(r.p.schema, t); err != nil {
		return err
	}
	// The epoch check runs before the tuple is folded in, so the tuple that
	// crosses a period boundary is already aggregated in the new frame.
	if r.ep != nil {
		if err := r.oracleRoll(t); err != nil {
			return err
		}
	} else if r.epErr != nil {
		return r.epErr
	}
	return r.oracleFold(o, t)
}

// oracleEmit turns standalone run r's emission over to the closures, once:
// r's plan becomes a copy whose direct output is each group's whole record —
// its group values, then every slot's final in slot order — and r's sink
// applies HAVING and the select items to that record, a group at a time,
// before handing the row on.
func (r *Run) oracleEmit(o *oraclePlan) {
	if r.p != r.tab.p {
		return
	}
	p := *r.p
	p.outDirect = make([]int, len(p.vec.groups)+len(p.aggSpecs))
	for i := range p.outDirect {
		p.outDirect[i] = i
	}
	r.p = &p
	sink := r.sink
	r.sink = func(rec Tuple) error {
		if o.having != nil {
			ok, err := o.having(rec)
			if err != nil {
				return err
			}
			if !ok.Truthy() {
				return nil
			}
		}
		out := make(Tuple, len(o.outFns))
		for i, fn := range o.outFns {
			v, err := fn(rec)
			if err != nil {
				return err
			}
			out[i] = v
		}
		return sink(out)
	}
}

// oracleRoll is the per-tuple epoch hook.
func (r *Run) oracleRoll(t Tuple) error {
	if r.ep.tsCol < 0 {
		return nil
	}
	newL, roll := r.ep.observe(t[r.ep.tsCol].AsFloat())
	if !roll {
		return nil
	}
	return r.ShiftLandmark(newL)
}

// oracleFold is the body of oraclePush after the epoch: WHERE, the group
// values, the bucket advance, the probe and the aggregate steps.
func (r *Run) oracleFold(o *oraclePlan, tp Tuple) error {
	p, t := r.p, r.tab
	if o.where != nil {
		ok, err := o.where(tp)
		if err != nil {
			return err
		}
		if !ok.Truthy() {
			return nil
		}
	}
	gv := make(Tuple, len(o.groupFns))
	for i, fn := range o.groupFns {
		v, err := fn(tp)
		if err != nil {
			return err
		}
		gv[i] = v
	}
	var key groupKey
	h := t.keyOf(&key, gv)
	if ti := p.temporalIdx; ti >= 0 {
		if _, err := t.advance(nil, gv[ti], -1); err != nil {
			return err
		}
	}
	g, born, err := t.probe(nil, h, &key, -1)
	if err != nil {
		return err
	}
	if born {
		copy(g.gv, gv) // byte keys only: a word-keyed group has no gv
	}
	var args []Value
	for i, a := range r.aggsOf(g) {
		args = args[:0]
		for _, fn := range o.aggArgFns[i] {
			v, err := fn(tp)
			if err != nil {
				return err
			}
			args = append(args, v)
		}
		if err := a.Step(args); err != nil {
			return err
		}
	}
	return nil
}

// oracleSpecs are the float()/int() conversions' static specializers.
var oracleSpecs = map[string]func(argType Type, arg evalFn) evalFn{
	"float": specConvert(TFloat),
	"int":   specConvert(TInt),
}

// compile builds an evaluator for e under the environment.
func (env *compileEnv) compile(e expr) (evalFn, error) {
	if env.subMatch != nil {
		if idx := env.subMatch(e); idx >= 0 {
			return func(rec Tuple) (Value, error) { return rec[idx], nil }, nil
		}
	}
	switch n := e.(type) {
	case *numLit:
		v := n.v
		return func(Tuple) (Value, error) { return v, nil }, nil
	case *strLit:
		v := Str(n.s)
		return func(Tuple) (Value, error) { return v, nil }, nil
	case *boolLit:
		v := Bool(n.b)
		return func(Tuple) (Value, error) { return v, nil }, nil
	case *colRef:
		idx := env.resolve(n.name)
		if idx < 0 {
			return nil, fmt.Errorf("gsql: unknown column %q", n.name)
		}
		return func(rec Tuple) (Value, error) { return rec[idx], nil }, nil
	case *unExpr:
		inner, err := env.compile(n.e)
		if err != nil {
			return nil, err
		}
		switch n.op {
		case "-":
			switch env.staticType(n.e) {
			case TInt:
				return func(rec Tuple) (Value, error) {
					v, err := inner(rec)
					if err != nil {
						return Null, err
					}
					return Int(-v.I), nil
				}, nil
			case TFloat:
				return func(rec Tuple) (Value, error) {
					v, err := inner(rec)
					if err != nil {
						return Null, err
					}
					return Float(-v.F), nil
				}, nil
			}
			return func(rec Tuple) (Value, error) {
				v, err := inner(rec)
				if err != nil {
					return Null, err
				}
				return negValue(v), nil
			}, nil
		case "not":
			return func(rec Tuple) (Value, error) {
				v, err := inner(rec)
				if err != nil {
					return Null, err
				}
				return Bool(!v.Truthy()), nil
			}, nil
		}
		return nil, fmt.Errorf("gsql: unknown unary operator %q", n.op)
	case *binExpr:
		return env.compileBin(n)
	case *callExpr:
		f, ok := env.funcs[n.name]
		if !ok {
			return nil, fmt.Errorf("gsql: unknown function %q", n.name)
		}
		if len(n.args) != f.nargs {
			return nil, fmt.Errorf("gsql: %s expects %d argument(s), got %d", n.name, f.nargs, len(n.args))
		}
		args := make([]evalFn, len(n.args))
		for i, a := range n.args {
			fn, err := env.compile(a)
			if err != nil {
				return nil, err
			}
			args[i] = fn
		}
		if spec := oracleSpecs[n.name]; spec != nil {
			if at := env.staticType(n.args[0]); at != TNull {
				if fn := spec(at, args[0]); fn != nil {
					return fn, nil
				}
			}
		}
		if f.fn1 != nil {
			// Unary fast path: no argument slice, no per-call allocation,
			// and no captured mutable state (evaluators are shared across
			// shard workers in the parallel runtime).
			arg, fn1 := args[0], f.fn1
			return func(rec Tuple) (Value, error) {
				v, err := arg(rec)
				if err != nil {
					return Null, err
				}
				return fn1(v)
			}, nil
		}
		return func(rec Tuple) (Value, error) {
			vals := make([]Value, len(args))
			for i, fn := range args {
				v, err := fn(rec)
				if err != nil {
					return Null, err
				}
				vals[i] = v
			}
			return f.fn(vals)
		}, nil
	case *aggExpr:
		if env.aggSlot == nil {
			return nil, fmt.Errorf("gsql: aggregate %s is not allowed here", n.name)
		}
		idx, err := env.aggSlot(n)
		if err != nil {
			return nil, err
		}
		return func(rec Tuple) (Value, error) { return rec[idx], nil }, nil
	default:
		return nil, fmt.Errorf("gsql: cannot compile %T", e)
	}
}

// compileBin builds a binary-operator evaluator. The operator and, where the
// operand types are statically known (schema column types propagated through
// staticType), the operand representations are burned into the returned
// closure at plan time: an int comparison over two int columns compiles to a
// direct `a.I < b.I` with no per-tuple switch on the operator string and no
// type promotion. Statically untyped operands fall back to evaluators that
// still pre-resolve the operator but dispatch on runtime types exactly as
// numericBinop/compare do, so dynamic semantics are unchanged.
func (env *compileEnv) compileBin(n *binExpr) (evalFn, error) {
	l, err := env.compile(n.l)
	if err != nil {
		return nil, err
	}
	r, err := env.compile(n.r)
	if err != nil {
		return nil, err
	}
	switch n.op {
	case "+", "-", "*", "/", "%":
		lt, rt := env.staticType(n.l), env.staticType(n.r)
		op := n.op[0]
		if lt == TInt && rt == TInt {
			return arithIntFn(op, l, r), nil
		}
		if staticNumeric(lt) && staticNumeric(rt) {
			return arithFloatFn(op, l, r, toFloatFn(lt), toFloatFn(rt)), nil
		}
		return func(rec Tuple) (Value, error) {
			a, err := l(rec)
			if err != nil {
				return Null, err
			}
			b, err := r(rec)
			if err != nil {
				return Null, err
			}
			return numericBinop(op, a, b)
		}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		lt, rt := env.staticType(n.l), env.staticType(n.r)
		if (lt == TInt || lt == TBool) && (rt == TInt || rt == TBool) {
			return cmpIntFn(n.op, l, r), nil
		}
		if staticNumeric(lt) && staticNumeric(rt) {
			return cmpFloatFn(n.op, l, r, toFloatFn(lt), toFloatFn(rt)), nil
		}
		if lt == TString && rt == TString {
			return cmpStringFn(n.op, l, r), nil
		}
		return cmpDynFn(n.op, l, r), nil
	case "and":
		if env.staticType(n.l) == TBool && env.staticType(n.r) == TBool {
			// Both sides are booleans: short-circuit on the I payload and
			// pass the right side through unwrapped.
			return func(rec Tuple) (Value, error) {
				a, err := l(rec)
				if err != nil {
					return Null, err
				}
				if a.I == 0 {
					return Bool(false), nil
				}
				return r(rec)
			}, nil
		}
		return func(rec Tuple) (Value, error) {
			a, err := l(rec)
			if err != nil {
				return Null, err
			}
			if !a.Truthy() {
				return Bool(false), nil
			}
			b, err := r(rec)
			if err != nil {
				return Null, err
			}
			return Bool(b.Truthy()), nil
		}, nil
	case "or":
		if env.staticType(n.l) == TBool && env.staticType(n.r) == TBool {
			return func(rec Tuple) (Value, error) {
				a, err := l(rec)
				if err != nil {
					return Null, err
				}
				if a.I != 0 {
					return a, nil
				}
				return r(rec)
			}, nil
		}
		return func(rec Tuple) (Value, error) {
			a, err := l(rec)
			if err != nil {
				return Null, err
			}
			if a.Truthy() {
				return Bool(true), nil
			}
			b, err := r(rec)
			if err != nil {
				return Null, err
			}
			return Bool(b.Truthy()), nil
		}, nil
	default:
		return nil, fmt.Errorf("gsql: unknown operator %q", n.op)
	}
}

// toFloatFn returns the float extraction for a statically numeric operand:
// a direct field load, with no runtime type switch.
func toFloatFn(t Type) func(Value) float64 {
	if t == TFloat {
		return func(v Value) float64 { return v.F }
	}
	return func(v Value) float64 { return float64(v.I) } // TInt, TBool
}

// arithIntFn returns an arithmetic evaluator specialized for two statically
// int operands. Semantics match numericBinop's int/int branch exactly,
// including truncating division and the division-by-zero errors.
func arithIntFn(op byte, l, r evalFn) evalFn {
	switch op {
	case '+':
		return func(rec Tuple) (Value, error) {
			a, err := l(rec)
			if err != nil {
				return Null, err
			}
			b, err := r(rec)
			if err != nil {
				return Null, err
			}
			return Int(a.I + b.I), nil
		}
	case '-':
		return func(rec Tuple) (Value, error) {
			a, err := l(rec)
			if err != nil {
				return Null, err
			}
			b, err := r(rec)
			if err != nil {
				return Null, err
			}
			return Int(a.I - b.I), nil
		}
	case '*':
		return func(rec Tuple) (Value, error) {
			a, err := l(rec)
			if err != nil {
				return Null, err
			}
			b, err := r(rec)
			if err != nil {
				return Null, err
			}
			return Int(a.I * b.I), nil
		}
	case '/':
		return func(rec Tuple) (Value, error) {
			a, err := l(rec)
			if err != nil {
				return Null, err
			}
			b, err := r(rec)
			if err != nil {
				return Null, err
			}
			if b.I == 0 {
				return Null, fmt.Errorf("gsql: integer division by zero")
			}
			return Int(a.I / b.I), nil
		}
	default: // '%'
		return func(rec Tuple) (Value, error) {
			a, err := l(rec)
			if err != nil {
				return Null, err
			}
			b, err := r(rec)
			if err != nil {
				return Null, err
			}
			if b.I == 0 {
				return Null, fmt.Errorf("gsql: integer modulo by zero")
			}
			return Int(a.I % b.I), nil
		}
	}
}

// arithFloatFn returns an arithmetic evaluator for statically numeric
// operands where at least one side is a float: both sides promote through
// the captured extractors, matching numericBinop's float branch (float
// division by zero yields ±Inf, not an error).
func arithFloatFn(op byte, l, r evalFn, lf, rf func(Value) float64) evalFn {
	var apply func(x, y float64) Value
	switch op {
	case '+':
		apply = func(x, y float64) Value { return Float(x + y) }
	case '-':
		apply = func(x, y float64) Value { return Float(x - y) }
	case '*':
		apply = func(x, y float64) Value { return Float(x * y) }
	case '/':
		apply = func(x, y float64) Value { return Float(x / y) }
	default: // '%'
		apply = func(x, y float64) Value { return Float(math.Mod(x, y)) }
	}
	return func(rec Tuple) (Value, error) {
		a, err := l(rec)
		if err != nil {
			return Null, err
		}
		b, err := r(rec)
		if err != nil {
			return Null, err
		}
		return apply(lf(a), rf(b)), nil
	}
}

// cmpIntFn returns a comparison evaluator specialized for two statically
// int (or bool) operands: a direct int64 compare. For values beyond 2⁵³
// this is exact where the generic float-promoting compare would round —
// strictly more precise, never less.
func cmpIntFn(op string, l, r evalFn) evalFn {
	switch op {
	case "=":
		return func(rec Tuple) (Value, error) {
			a, err := l(rec)
			if err != nil {
				return Null, err
			}
			b, err := r(rec)
			if err != nil {
				return Null, err
			}
			return Bool(a.I == b.I), nil
		}
	case "!=":
		return func(rec Tuple) (Value, error) {
			a, err := l(rec)
			if err != nil {
				return Null, err
			}
			b, err := r(rec)
			if err != nil {
				return Null, err
			}
			return Bool(a.I != b.I), nil
		}
	case "<":
		return func(rec Tuple) (Value, error) {
			a, err := l(rec)
			if err != nil {
				return Null, err
			}
			b, err := r(rec)
			if err != nil {
				return Null, err
			}
			return Bool(a.I < b.I), nil
		}
	case "<=":
		return func(rec Tuple) (Value, error) {
			a, err := l(rec)
			if err != nil {
				return Null, err
			}
			b, err := r(rec)
			if err != nil {
				return Null, err
			}
			return Bool(a.I <= b.I), nil
		}
	case ">":
		return func(rec Tuple) (Value, error) {
			a, err := l(rec)
			if err != nil {
				return Null, err
			}
			b, err := r(rec)
			if err != nil {
				return Null, err
			}
			return Bool(a.I > b.I), nil
		}
	default: // ">="
		return func(rec Tuple) (Value, error) {
			a, err := l(rec)
			if err != nil {
				return Null, err
			}
			b, err := r(rec)
			if err != nil {
				return Null, err
			}
			return Bool(a.I >= b.I), nil
		}
	}
}

// cmpFloatFn returns a comparison evaluator for statically numeric operands
// with at least one float side, matching compare's float promotion.
func cmpFloatFn(op string, l, r evalFn, lf, rf func(Value) float64) evalFn {
	pred := cmpPred(op)
	return func(rec Tuple) (Value, error) {
		a, err := l(rec)
		if err != nil {
			return Null, err
		}
		b, err := r(rec)
		if err != nil {
			return Null, err
		}
		x, y := lf(a), rf(b)
		c := 0
		if x < y {
			c = -1
		} else if x > y {
			c = 1
		}
		return Bool(pred(c)), nil
	}
}

// cmpStringFn returns a comparison evaluator for two statically string
// operands (lexical order, as in compare).
func cmpStringFn(op string, l, r evalFn) evalFn {
	pred := cmpPred(op)
	return func(rec Tuple) (Value, error) {
		a, err := l(rec)
		if err != nil {
			return Null, err
		}
		b, err := r(rec)
		if err != nil {
			return Null, err
		}
		c := 0
		if a.S < b.S {
			c = -1
		} else if a.S > b.S {
			c = 1
		}
		return Bool(pred(c)), nil
	}
}

// cmpDynFn is the fallback for operands without static types: runtime type
// dispatch through compare, but the operator itself is still resolved to a
// predicate at plan time instead of a per-tuple string switch.
func cmpDynFn(op string, l, r evalFn) evalFn {
	pred := cmpPred(op)
	return func(rec Tuple) (Value, error) {
		a, err := l(rec)
		if err != nil {
			return Null, err
		}
		b, err := r(rec)
		if err != nil {
			return Null, err
		}
		c, err := compare(a, b)
		if err != nil {
			return Null, err
		}
		return Bool(pred(c)), nil
	}
}

// specConvert builds the static specializer for the float()/int() numeric
// conversions: when the argument type is known the conversion compiles to a
// direct field load, with semantics identical to AsFloat/AsInt.
func specConvert(to Type) func(argType Type, arg evalFn) evalFn {
	return func(argType Type, arg evalFn) evalFn {
		switch {
		case to == TFloat && argType == TFloat:
			return func(rec Tuple) (Value, error) {
				v, err := arg(rec)
				if err != nil {
					return Null, err
				}
				return Float(v.F), nil
			}
		case to == TFloat && (argType == TInt || argType == TBool):
			return func(rec Tuple) (Value, error) {
				v, err := arg(rec)
				if err != nil {
					return Null, err
				}
				return Float(float64(v.I)), nil
			}
		case to == TInt && (argType == TInt || argType == TBool):
			return func(rec Tuple) (Value, error) {
				v, err := arg(rec)
				if err != nil {
					return Null, err
				}
				return Int(v.I), nil
			}
		case to == TInt && argType == TFloat:
			return func(rec Tuple) (Value, error) {
				v, err := arg(rec)
				if err != nil {
					return Null, err
				}
				return Int(int64(v.F)), nil
			}
		}
		return nil
	}
}
