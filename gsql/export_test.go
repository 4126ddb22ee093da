package gsql

// VecPlanned reports whether a prepared statement holds its kernel plan.
func VecPlanned(st *Statement) bool { return st.p.vec != nil }

// CatalogVecPlanned reports whether every statement of m's catalog holds
// its kernel plan, and every filtered predicate class its WHERE kernel.
func CatalogVecPlanned(m *MultiRun) bool {
	for _, ss := range m.stmts {
		if ss.st.p.vec == nil {
			return false
		}
	}
	for _, cls := range m.classes {
		if cls.key != "" && (cls.vp == nil || cls.vp.where == nil) {
			return false
		}
	}
	return true
}

// OraclePush folds t into standalone run r through the closure fold
// (oracle_test.go): the reference the row-path suites compare Push,
// PushBatch and MultiRun with. It takes tuples of any types.
func OraclePush(r *Run, t Tuple) error { return r.oraclePush(t) }

// OracleWhere returns st's WHERE closure, nil when it has none.
func OracleWhere(st *Statement) func(Tuple) (Value, error) {
	return oracleOf(st.p).where
}

// AggSpecs returns every aggregate e knows, the builtins included.
func (e *Engine) AggSpecs() map[string]AggSpec { return e.aggs }

// row materializes row i of b into dst (len == column count), with Values
// bit-identical to the tuple the row was built from.
func (b *Batch) row(i int, dst Tuple) {
	for ci := range b.cols {
		dst[ci] = b.colValue(ci, i)
	}
}
