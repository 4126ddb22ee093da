package gsql

import (
	"fmt"
	"math"
	"strings"
)

// evalFn evaluates a compiled expression against a record (a stream tuple,
// or for output expressions the concatenation of group values and aggregate
// results).
type evalFn func(rec Tuple) (Value, error)

// compileEnv resolves names and aggregate calls during compilation.
type compileEnv struct {
	// resolve maps an identifier to a record index; returns -1 if unknown.
	resolve func(name string) int
	// colType maps an identifier to its declared type; nil (or TNull) means
	// the type is unknown at plan time and the compiler falls back to the
	// dynamically dispatched evaluators.
	colType func(name string) Type
	// aggSlot maps an aggregate call to a record index; nil forbids
	// aggregates (tuple-level expressions).
	aggSlot func(a *aggExpr) (int, error)
	// subMatch, if non-nil, maps a whole subtree to a record index (used to
	// match select-list subexpressions against group-by expressions).
	subMatch func(e expr) int
	funcs    map[string]scalarFunc
}

// tupleEnv is the environment of tuple-level expressions (WHERE, group-by,
// aggregate arguments) over a stream: names resolve to the schema's columns
// and their declared types, and aggregates are forbidden.
func tupleEnv(schema *Schema) *compileEnv {
	return &compileEnv{
		resolve: schema.ColumnIndex,
		colType: func(name string) Type {
			if i := schema.ColumnIndex(name); i >= 0 {
				return schema.Cols[i].Type
			}
			return TNull
		},
		funcs: builtinFuncs,
	}
}

// staticType infers the type an expression is guaranteed to produce at
// runtime, or TNull when it cannot be determined at plan time. The inference
// is sound, not complete: whenever it returns a concrete type the compiler
// may emit an operator evaluator specialized to that type, skipping the
// per-tuple type dispatch of numericBinop/compare.
func (env *compileEnv) staticType(e expr) Type {
	if env.subMatch != nil && env.subMatch(e) >= 0 {
		return TNull // record reference: runtime type unknown here
	}
	switch n := e.(type) {
	case *numLit:
		return n.v.T
	case *strLit:
		return TString
	case *boolLit:
		return TBool
	case *colRef:
		if env.colType != nil {
			return env.colType(n.name)
		}
	case *unExpr:
		if n.op == "not" {
			return TBool
		}
		if t := env.staticType(n.e); t == TInt || t == TFloat {
			return t // unary minus preserves numeric type
		}
	case *binExpr:
		switch n.op {
		case "+", "-", "*", "/", "%":
			lt, rt := env.staticType(n.l), env.staticType(n.r)
			if lt == TInt && rt == TInt {
				return TInt
			}
			if (lt == TInt || lt == TFloat) && (rt == TInt || rt == TFloat) {
				return TFloat
			}
		case "=", "!=", "<", "<=", ">", ">=", "and", "or":
			return TBool
		}
	case *callExpr:
		if f, ok := env.funcs[n.name]; ok {
			if f.i1 != nil && len(n.args) == 1 {
				return argRet(env.staticType(n.args[0]))
			}
			return f.ret
		}
	}
	return TNull
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
		if f.spec != nil && len(args) == 1 {
			if at := env.staticType(n.args[0]); at != TNull {
				if fn := f.spec(at, args[0]); fn != nil {
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

// staticNumeric reports whether a statically inferred type always carries a
// numeric payload (bools count: they hold 0/1 in I, like the dynamic path's
// AsFloat treats them).
func staticNumeric(t Type) bool { return t == TInt || t == TFloat || t == TBool }

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

// cmpPred maps a comparison operator to its predicate over the three-way
// compare result.
func cmpPred(op string) func(c int) bool {
	switch op {
	case "=":
		return func(c int) bool { return c == 0 }
	case "!=":
		return func(c int) bool { return c != 0 }
	case "<":
		return func(c int) bool { return c < 0 }
	case "<=":
		return func(c int) bool { return c <= 0 }
	case ">":
		return func(c int) bool { return c > 0 }
	default: // ">="
		return func(c int) bool { return c >= 0 }
	}
}

// hasAgg reports whether the expression contains an aggregate call.
func hasAgg(e expr) bool {
	switch n := e.(type) {
	case *aggExpr:
		return true
	case *unExpr:
		return hasAgg(n.e)
	case *binExpr:
		return hasAgg(n.l) || hasAgg(n.r)
	case *callExpr:
		for _, a := range n.args {
			if hasAgg(a) {
				return true
			}
		}
	}
	return false
}

// monotoneCol returns the index of the monotone (timestamp) column that
// the expression is a non-decreasing function of, or -1: the column itself,
// or such an expression divided by / multiplied by a positive constant, or
// shifted by a constant. Group-by expressions with this property define the
// query's tumbling time buckets.
func monotoneCol(e expr, s *Schema) int {
	switch n := e.(type) {
	case *colRef:
		i := s.ColumnIndex(n.name)
		if i >= 0 && s.Cols[i].Monotone {
			return i
		}
	case *binExpr:
		c, ok := n.r.(*numLit)
		if !ok {
			return -1
		}
		switch n.op {
		case "/", "*":
			if c.v.AsFloat() > 0 {
				return monotoneCol(n.l, s)
			}
		case "+", "-":
			return monotoneCol(n.l, s)
		}
	}
	return -1
}

// exprKey returns the canonical form used to match select-list expressions
// against group-by expressions.
func exprKey(e expr) string { return strings.ToLower(e.String()) }
