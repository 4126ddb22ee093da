package gsql

import "strings"

// compileEnv resolves names and aggregate calls while an expression compiles
// to kernels (vexpr.go): over a stream's tuples, or over the record of a
// flushed group (its group values, then its aggregate finals).
type compileEnv struct {
	// resolve maps an identifier to a record index; returns -1 if unknown.
	resolve func(name string) int
	// colType maps an identifier to its declared type; nil (or TNull) means
	// the type is unknown at plan time and the compiler falls back to the
	// boxed kernels, which dispatch on each value's type.
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
// may emit a kernel specialized to that type, skipping the per-row type
// dispatch of numericBinop/compare.
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

// staticNumeric reports whether a statically inferred type always carries a
// numeric payload (bools count: they hold 0/1 in I, like the dynamic path's
// AsFloat treats them).
func staticNumeric(t Type) bool { return t == TInt || t == TFloat || t == TBool }

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
