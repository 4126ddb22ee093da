package gsql

// The closure fold: the row evaluator the column kernels replaced in Run and
// MultiRun, kept as the reference the row-path suites compare them with.
// Each tuple runs WHERE, the group expressions and every slot's arguments
// through the scalar closures of expr.go, one after another, into the key
// table a Run folds through — the order, and so the error, that scalar
// evaluation defines.

// oraclePush folds one tuple into standalone run r as Push does — counted,
// refused when non-finite, observed by the epoch supervisor before it folds
// — but through the closures, and for a tuple of any types.
func (r *Run) oraclePush(t Tuple) error {
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
	return r.oracleFold(t)
}

// oracleRoll is the per-tuple epoch hook.
func (r *Run) oracleRoll(t Tuple) error {
	ts, ok := r.ep.time(t)
	if !ok {
		return nil
	}
	newL, roll := r.ep.observe(ts)
	if !roll {
		return nil
	}
	return r.ShiftLandmark(newL)
}

// oracleFold is the body of oraclePush after the epoch: WHERE, the group
// values, the bucket advance, the probe and the aggregate steps.
func (r *Run) oracleFold(tp Tuple) error {
	p, t := r.p, r.tab
	if p.where != nil {
		ok, err := p.where(tp)
		if err != nil {
			return err
		}
		if !ok.Truthy() {
			return nil
		}
	}
	gv := make(Tuple, len(p.groupFns))
	for i, fn := range p.groupFns {
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
	_, err = stepAggs(p, r.aggsOf(g), tp, nil)
	return err
}
