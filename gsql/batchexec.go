package gsql

import "fmt"

// Batch execution: Run.PushBatch folds a whole columnar Batch with the
// vectorized plan. The pipeline per batch:
//
//  1. scanFinite builds the validity bitmap (the batched form of
//     checkTupleFinite); non-finite rows are counted as rejected and
//     skipped, the policy every scalar caller implements by hand.
//  2. The epoch scan walks the timestamp column observing stream time
//     exactly as a per-tuple hook would, and cuts the batch into
//     segments at landmark rolls: within a segment the landmark is fixed,
//     so the whole segment can be vectorized; the roll applies between
//     segments, with the rolling row folded into the new frame — the same
//     order as Push. Runs of equal timestamps observe once
//     (observe is idempotent for equal stream times), which on sorted
//     batches collapses the scan to one call per distinct timestamp.
//  3. Per segment, the WHERE kernel narrows the selection bitmap, then the
//     group and aggregate-argument kernels fill their column slots; a row a
//     kernel fails on is recorded, not evaluated further.
//  4. The fold walks selected rows detecting runs of equal group keys: one
//     key probe per run for every member of the run's table, and one step
//     per aggregate slot per member. A failed row ends the run before it and
//     is charged its scalar error after the effects scalar order has before
//     the error (keyTable.fold).
//
// Exactness: the fold is bit-for-bit identical to N one-tuple Pushes, failed
// rows included: the same rows, counters and error at the same row.
type batchExec struct {
	ctx     vctx
	valid   []uint64
	rows    []int32 // row indices of the pending equal-key run
	cols    Cols    // the pending run's view of a member's argument columns
	curKey  groupKey
	prevKey groupKey

	// fails are the segment's rows that fail every member of the table
	// (WHERE, class WHERE, group keys), in row order; hold marks them and
	// every row a member's argument kernels failed on.
	fails []rowErr
	hold  []uint64
}

// bitGet reads bit i.
func bitGet(bm []uint64, i int) bool { return bm[i>>6]&(1<<uint(i&63)) != 0 }

// PushBatch folds every row of b into the run, equivalently to Pushing the
// batch's rows one by one under the standard caller policy: rows rejected by
// the finite check are counted (the rejected return) and skipped, any other
// error stops processing at the row where one-by-one Pushes stop, after the
// effects that row has before its error (a bucket close, a group birth, the
// steps of earlier aggregate slots). The batch's selection bitmap is
// consumed as working state.
//
// On an aggregate step error the poisoned run's RuntimeStats tuple count may
// sit at the end of the failing key run rather than the failing row (the
// deferred StepCols cannot name the row); every other error path counts
// exactly as one-by-one Pushes do.
func (r *Run) PushBatch(b *Batch) (rejected int, err error) {
	if b == nil || b.Len() == 0 {
		return 0, nil
	}
	if !b.compatibleWith(r.p.schema) {
		return 0, fmt.Errorf("gsql: batch schema %s is incompatible with stream %s",
			b.schema.Name, r.p.schema.Name)
	}
	if r.bx == nil {
		r.bx = new(batchExec)
	}
	bx := r.bx
	tuples0 := r.tuples

	bx.valid = growBits(bx.valid, b.n)
	b.scanFinite(bx.valid)

	if r.ep == nil && r.epErr != nil {
		// Push rejects a non-finite tuple before reporting the epoch
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
				// Push counts the rolling tuple before its roll fails.
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

// scanEpoch advances the epoch supervisor over valid rows from lo until a
// roll fires, returning the rolling row as the segment end. skipFirst skips
// the first valid row's observation — it is the row whose observation just
// triggered the previous roll, and Push does not re-observe it.
// Consecutive equal timestamps observe once: observe is idempotent for an
// unchanged stream time, so the skip is exact on any input and collapses to
// one observation per distinct timestamp on sorted batches.
func (bx *batchExec) scanEpoch(ep *epochState, b *Batch, lo int, skipFirst bool) (hi int, newL float64, roll bool) {
	if ep.tsCol < 0 {
		return b.n, 0, false // supervisor advances only on heartbeats
	}
	var prevTs float64
	have := false
	for i := lo; i < b.n; i++ {
		if !bitGet(bx.valid, i) {
			continue
		}
		ts := ep.tsOf(b, i)
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

// processSegment folds rows [lo,hi) under a fixed landmark into the run's
// table (keyTable.fold).
func (r *Run) processSegment(b *Batch, lo, hi int) error {
	return r.tab.fold(r.bx, b, lo, hi, r.bx.valid, nil, nil)
}

// stepRun feeds a key run (rows) to the run's aggregate slots aggs of one
// group, one StepCols call per slot over the argument columns in r.cctx (or
// a Step loop for an aggregator without it). A held run is one row: when
// the run's arguments failed on it, the slots before the failed one step it
// and the argument's error is returned.
func (r *Run) stepRun(bx *batchExec, aggs []Aggregator, held bool) error {
	var argErr error
	if held {
		if f := r.failAt(int(bx.rows[0])); f != nil {
			aggs, argErr = aggs[:f.slot], f.err
		}
	}
	c := &bx.cols
	c.ctx, c.rows = r.cctx, bx.rows
	for si, a := range aggs {
		c.args = r.p.vec.args[si]
		var err error
		if cs, ok := a.(ColStepper); ok {
			err = cs.StepCols(c)
		} else {
			err = c.stepRows(a)
		}
		if err != nil {
			return err
		}
	}
	return argErr
}

// failAt returns the run's argument failure on row i of the segment being
// folded, if any; the fold asks in ascending row order.
func (r *Run) failAt(i int) *rowErr {
	for r.failNext < len(r.fails) && r.fails[r.failNext].row < i {
		r.failNext++
	}
	if r.failNext < len(r.fails) && r.fails[r.failNext].row == i {
		return &r.fails[r.failNext]
	}
	return nil
}
