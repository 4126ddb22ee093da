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
		if cls.pred != nil && (cls.vp == nil || cls.vp.where == nil) {
			return false
		}
	}
	return true
}
