package gsql

import (
	"fmt"
	"math/bits"
)

// Batch execution: Run.PushBatch folds a whole columnar Batch with the
// vectorized plan. The pipeline per batch:
//
//  1. scanFinite builds the validity bitmap (the batched form of
//     checkTupleFinite); non-finite rows are counted as rejected and
//     skipped, the policy every scalar caller implements by hand.
//  2. The epoch scan walks the timestamp column observing stream time
//     exactly as the scalar per-tuple hook would, and cuts the batch into
//     segments at landmark rolls: within a segment the landmark is fixed,
//     so the whole segment can be vectorized; the roll applies between
//     segments, with the rolling row folded into the new frame — the same
//     order as scalar Push. Runs of equal timestamps observe once
//     (observe is idempotent for equal stream times), which on sorted
//     batches collapses the scan to one call per distinct timestamp.
//  3. Per segment, the WHERE kernel narrows the selection bitmap, then the
//     group and aggregate-argument kernels fill their column slots.
//  4. The fold walks selected rows detecting runs of equal group keys: one
//     key probe and one StepBatch per run instead of one of each per row.
//
// Exactness: any kernel error aborts step 3 before run state is touched and
// the segment is replayed row-by-row through the scalar fold path, which
// reproduces the scalar error at the exact row with the exact counters. The
// vectorized path is only ever taken end-to-end on segments that would not
// have errored, where it is bit-for-bit identical to N scalar Pushes.
type batchExec struct {
	ctx      vctx
	valid    []uint64
	rows     []int32 // row indices of the pending equal-key run
	flatArgs []Value
	curKey   groupKey
	prevKey  groupKey
	row      Tuple // scratch for row materialization (epoch closure, replay)

	// tsCol is the resolved EpochConfig.TimeColumn index (reading straight
	// from the column vector); tsColOK gates it, tsIsInt picks the vector.
	tsCol   int
	tsColOK bool
	tsIsInt bool
}

// newBatchExec resolves the batch executor's per-run state (shared by the
// serial Run and the ParallelRun coordinator).
func newBatchExec(p *plan, ep *epochState) *batchExec {
	bx := &batchExec{row: make(Tuple, len(p.schema.Cols))}
	if ep != nil {
		bx.resolveTimeColumn(ep.cfg.TimeColumn, p.schema)
	}
	return bx
}

func (bx *batchExec) resolveTimeColumn(name string, s *Schema) {
	if name == "" {
		return
	}
	idx := s.ColumnIndex(name)
	if idx < 0 {
		return
	}
	switch s.Cols[idx].Type {
	case TFloat:
		bx.tsCol, bx.tsColOK, bx.tsIsInt = idx, true, false
	case TInt:
		bx.tsCol, bx.tsColOK, bx.tsIsInt = idx, true, true
	}
}

// bitGet reads bit i.
func bitGet(bm []uint64, i int) bool { return bm[i>>6]&(1<<uint(i&63)) != 0 }

// PushBatch folds every row of b into the run, equivalently to Pushing the
// batch's rows one by one under the standard caller policy: rows rejected by
// the finite check are counted (the rejected return) and skipped, any other
// error stops processing at the exact row the scalar path would have stopped.
// The batch's selection bitmap is consumed as working state.
//
// On an aggregate step error the poisoned run's RuntimeStats tuple count may
// sit at the end of the failing key run rather than the failing row (the
// deferred StepBatch cannot name the row); every other error path counts
// exactly as scalar Push does.
func (r *Run) PushBatch(b *Batch) (rejected int, err error) {
	if b == nil || b.Len() == 0 {
		return 0, nil
	}
	if !b.compatibleWith(r.p.schema) {
		return 0, fmt.Errorf("gsql: batch schema %s is incompatible with stream %s",
			b.schema.Name, r.p.schema.Name)
	}
	if r.bx == nil {
		r.bx = newBatchExec(r.p, r.ep)
	}
	bx := r.bx
	tuples0 := r.tuples

	bx.valid = growBits(bx.valid, b.n)
	b.scanFinite(bx.valid)

	if r.ep == nil && r.epErr != nil {
		// Scalar Push rejects a non-finite tuple before reporting the epoch
		// config error, so invalid rows still count as rejected here.
		for i := 0; i < b.n; i++ {
			r.tuples++
			if !bitGet(bx.valid, i) {
				rejected++
				continue
			}
			return rejected, r.epErr
		}
		return rejected, nil
	}

	lo, skipObserve := 0, false
	for lo < b.n {
		hi, newL, roll := b.n, 0.0, false
		if r.ep != nil {
			hi, newL, roll = bx.scanEpoch(r.ep, b, lo, skipObserve)
		}
		if err := r.processSegment(b, lo, hi); err != nil {
			return countRejected(bx.valid, tuples0, r.tuples), err
		}
		if roll {
			if err := r.ShiftLandmark(newL); err != nil {
				// Scalar Push counts the rolling tuple before maybeRoll fails.
				r.tuples++
				return countRejected(bx.valid, tuples0, r.tuples), err
			}
		}
		lo, skipObserve = hi, roll
	}
	return countRejected(bx.valid, tuples0, r.tuples), nil
}

// countRejected derives the rejected-row count from how many rows were
// counted: every counted row that is not valid was skipped as rejected.
func countRejected(valid []uint64, tuples0, tuples uint64) int {
	counted := int(tuples - tuples0)
	return counted - popRange(valid, counted)
}

// tsOf extracts the epoch stream time of row i: straight off the resolved
// timestamp column, or through the Time closure on a materialized row.
func (bx *batchExec) tsOf(ep *epochState, b *Batch, i int) (float64, bool) {
	if bx.tsColOK {
		if bx.tsIsInt {
			return float64(b.cols[bx.tsCol].ints[i]), true
		}
		return b.cols[bx.tsCol].fls[i], true
	}
	b.row(i, bx.row)
	return ep.time(bx.row)
}

// scanEpoch advances the epoch supervisor over valid rows from lo until a
// roll fires, returning the rolling row as the segment end. skipFirst skips
// the first valid row's observation — it is the row whose observation just
// triggered the previous roll, and scalar Push does not re-observe it.
// Consecutive equal timestamps observe once: observe is idempotent for an
// unchanged stream time, so the skip is exact on any input and collapses to
// one observation per distinct timestamp on sorted batches.
func (bx *batchExec) scanEpoch(ep *epochState, b *Batch, lo int, skipFirst bool) (hi int, newL float64, roll bool) {
	if ep.cfg.Time == nil && !bx.tsColOK {
		return b.n, 0, false // supervisor advances only on heartbeats
	}
	var prevTs float64
	have := false
	for i := lo; i < b.n; i++ {
		if !bitGet(bx.valid, i) {
			continue
		}
		ts, ok := bx.tsOf(ep, b, i)
		if !ok {
			continue
		}
		if skipFirst {
			skipFirst = false
			prevTs, have = ts, true
			continue
		}
		if have && ts == prevTs {
			continue
		}
		prevTs, have = ts, true
		if newL, roll = ep.observe(ts); roll {
			return i, newL, true
		}
	}
	return b.n, 0, false
}

// processSegment folds rows [lo,hi) under a fixed landmark: vectorized when
// the plan compiled and the kernels run clean, otherwise replayed through
// the scalar fold path row by row.
func (r *Run) processSegment(b *Batch, lo, hi int) error {
	return r.processSegmentBase(b, lo, hi, r.bx.valid, nil)
}

// processSegmentBase is processSegment over an explicit base bitmap: rows
// outside base are counted but not folded. Standalone runs pass the finite
// bitmap; the multi-query runtime passes finite ∧ class-WHERE, with the
// plan's own WHERE stripped — the pre-applied filter must therefore reach
// the scalar replay path too, which is why base threads all the way down.
//
// cat is the catalog folding this run as one of its members, nil for a
// standalone run. Without it the segment stops at its first error, which the
// caller gets back. With it a failed row costs only itself: cat.rowFailed
// books the row against the member (and reports whether the member is still
// linked), cat.rowsFolded ends its error streak, and the fold goes on — a
// flush or probe error at the next row, an aggregate step error at the row
// after its key run (the granularity BatchStepper documents). The kernels
// still run once per segment, so a failure never re-evaluates its
// neighbours.
func (r *Run) processSegmentBase(b *Batch, lo, hi int, base []uint64, cat *MultiRun) error {
	if lo >= hi {
		return nil
	}
	bx := r.bx
	vp := r.p.vec
	if vp == nil {
		return r.replaySegmentBase(b, lo, hi, base, cat)
	}

	ctx := &bx.ctx
	ctx.reset(b, vp)
	b.sel = growBits(b.sel, b.n)
	sel := b.sel
	maskRange(sel, base, lo, hi)

	if vp.where != nil {
		vp.where.run(ctx, sel)
		if ctx.err == nil {
			wb := ctx.bits(vp.where)
			for w := range sel {
				sel[w] &= wb[w]
			}
		}
	}
	if ctx.err == nil {
		for _, g := range vp.groups {
			g.run(ctx, sel)
		}
	}
	if ctx.err == nil {
		for _, slotNodes := range vp.args {
			for _, a := range slotNodes {
				a.run(ctx, sel)
			}
		}
	}
	if ctx.err != nil {
		// A kernel failed somewhere in the segment; no run state has been
		// touched, so the scalar replay reproduces the exact scalar outcome.
		return r.replaySegmentBase(b, lo, hi, base, cat)
	}

	// Kernels clean: every row of the segment is now accounted for (invalid
	// rows included — scalar Push counts a tuple before rejecting it). The
	// fold walks the bitmap inline (not through forSel) so its mutable run
	// state stays on the stack: the steady-state batch cycle allocates
	// nothing, and TestPushBatchSteadyStateAllocs holds it there.
	//
	// Each row's group key is written straight from the kernel columns, in
	// the form the run keys by (groupKey): the words, or the bytes keyAppend
	// would write for the row's group values. The values themselves are
	// materialized only where a row needs them — the temporal bucket at a run
	// start, and under byte keys a group's values at its birth.
	segBase := r.tuples
	r.tuples += uint64(hi - lo)

	var curAggs []Aggregator
	runLen := 0
	for w, m := range sel {
		if m == 0 {
			continue
		}
		base := w << 6
		for ; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			ctx.keyAt(&bx.curKey, vp.groups, i, r.words)
			if runLen > 0 && bx.curKey.equal(&bx.prevKey) {
				// Same group as the previous row: same group values, same
				// temporal bucket — extend the run, nothing else to check.
				bx.rows = append(bx.rows, int32(i))
				runLen++
				continue
			}
			if runLen > 0 {
				if stop, err := r.endRun(curAggs, cat, segBase, lo); stop {
					return err
				}
			}
			runLen = 0
			if ti := r.p.temporalIdx; ti >= 0 {
				bv := ctx.valueAt(vp.groups[ti], i)
				if !r.bucketSet {
					r.bucket, r.bucketSet = bv, true
				} else if r.p.bucketAfter(bv, r.bucket) {
					if err := r.flush(); err != nil {
						if stop, err := r.segFailed(cat, segBase, lo, i, err); stop {
							return err
						}
						continue
					}
					r.bucket = bv
				}
			}
			g, born, err := r.probeGroup(bx.curKey.hash(r.p.keyTypes), &bx.curKey)
			if err != nil {
				if stop, err := r.segFailed(cat, segBase, lo, i, err); stop {
					return err
				}
				continue
			}
			if born {
				for gi := range g.gv { // byte keys only
					g.gv[gi] = ctx.valueAt(vp.groups[gi], i)
				}
			}
			curAggs = g.aggs
			bx.rows = append(bx.rows[:0], int32(i))
			runLen = 1
			bx.curKey, bx.prevKey = bx.prevKey, bx.curKey
		}
	}
	if runLen > 0 {
		if _, err := r.endRun(curAggs, cat, segBase, lo); err != nil {
			return err
		}
	}
	return nil
}

// endRun steps the pending key run into aggs. A step error fails the run's
// last row (see segFailed); a clean step reports the run's rows folded.
func (r *Run) endRun(aggs []Aggregator, cat *MultiRun, segBase uint64, lo int) (stop bool, err error) {
	if err := r.stepRun(aggs); err != nil {
		return r.segFailed(cat, segBase, lo, int(r.bx.rows[len(r.bx.rows)-1]), err)
	}
	if cat != nil {
		cat.rowsFolded()
	}
	return false, nil
}

// segFailed handles a fold error at row i of a vectorized segment that began
// at tuple count segBase. A standalone run stops there, counted through row
// i as scalar Push counts, and returns the error; a catalog member books the
// row and stops only when it is fenced.
func (r *Run) segFailed(cat *MultiRun, segBase uint64, lo, i int, err error) (stop bool, _ error) {
	if cat == nil {
		r.tuples = segBase + uint64(i-lo+1)
		return true, err
	}
	return !cat.rowFailed(i, err), nil
}

// stepRun feeds the pending run (rows in bx.rows) to each aggregate slot: a
// builtin over a numeric argument steps straight from the argument's column
// (stepCols); otherwise the argument kernels' outputs are gathered into a
// stride-k flat buffer and handed to StepBatch (or a scalar Step loop), one
// call per slot per run.
func (r *Run) stepRun(aggs []Aggregator) error {
	bx := r.bx
	vp := r.p.vec
	ctx := &bx.ctx
	n := len(bx.rows)
	for si, a := range aggs {
		nodes := vp.args[si]
		k := len(nodes)
		if k <= 1 && stepCols(a, ctx, nodes, bx.rows) {
			continue
		}
		if k == 0 {
			if err := stepBatch(a, nil, n, 0); err != nil {
				return err
			}
			continue
		}
		if cap(bx.flatArgs) < n*k {
			bx.flatArgs = make([]Value, n*k)
		}
		flat := bx.flatArgs[:n*k]
		for ri, row := range bx.rows {
			for ai, an := range nodes {
				flat[ri*k+ai] = ctx.valueAt(an, int(row))
			}
		}
		if err := stepBatch(a, flat, n, k); err != nil {
			return err
		}
	}
	return nil
}

// probeGroup locates (or creates) the group for key, whose hash is h. It is
// the probe section of the scalar fold, shared verbatim by both paths. A
// group born by this probe (born == true) has its key but not its values:
// under byte keys the caller fills g.gv from the row, so a probe that finds
// its group never materializes them.
func (r *Run) probeGroup(h uint64, key *groupKey) (g *group, born bool, err error) {
	if !r.twoLevel {
		if g = r.highGet(h, key); g != nil {
			return g, false, nil
		}
		if g, err = r.bornGroup(h, key); err != nil {
			return nil, false, err
		}
		r.highPut(g)
		return g, true, nil
	}
	i := h & r.lowMask
	s := &r.low[i]
	// A colliding insert grows the table (doubling separates the keys'
	// hashes with high probability) until the cap; only at the cap does the
	// paper's evict-to-high policy kick in. Hot keys that would otherwise
	// thrash one slot get separated instead of re-allocating aggregators
	// every tuple.
	for s.used && !(s.hash == h && s.g.key.equal(key)) && len(r.low) < r.lowMax {
		r.growLow()
		i = h & r.lowMask
		s = &r.low[i]
	}
	if s.used && !(s.hash == h && s.g.key.equal(key)) {
		if err := r.evict(s); err != nil {
			return nil, false, err
		}
		s.used = false
	}
	if s.used {
		return s.g, false, nil
	}
	if g, err = r.bornGroup(h, key); err != nil {
		return nil, false, err
	}
	s.used = true
	if !s.listed {
		s.listed = true
		r.lowUsed = append(r.lowUsed, uint32(i))
	}
	s.hash, s.g = h, g
	return g, true, nil
}

// replaySegmentBase is the scalar fallback: each row of the segment in base
// materializes and folds through the exact per-tuple path (epoch observation
// has already run for the segment). Rows outside base still count (a
// standalone run counts rejected rows too) but do not fold, so a pre-applied
// class filter survives the fallback. A catalog member books a failed row
// and goes on with the next one.
func (r *Run) replaySegmentBase(b *Batch, lo, hi int, base []uint64, cat *MultiRun) error {
	bx := r.bx
	for i := lo; i < hi; i++ {
		r.tuples++
		if !bitGet(base, i) {
			continue
		}
		b.row(i, bx.row)
		if err := r.foldTuple(bx.row); err != nil {
			if cat == nil {
				return err
			}
			if !cat.rowFailed(i, err) {
				return nil
			}
			continue
		}
		if cat != nil {
			cat.rowsFolded()
		}
	}
	return nil
}
