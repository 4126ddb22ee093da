package gsql

import (
	"fmt"
	"math/bits"
)

// ParallelRun.PushBatch: the sharded counterpart of Run.PushBatch. The
// coordinator runs the batched finite scan, the epoch segmentation, and the
// vectorized WHERE and group kernels, then routes surviving rows to their
// shards with the evaluated group values attached (the shards never re-run
// the group closures). Epoch rolls quiesce the shards between segments via
// the same rollTo barrier scalar Push uses, and checkpoints keep their
// batch-boundary cut: Checkpoint is a producer call, so it can only land
// between PushBatch calls.

// PushBatch routes every row of b to its shard, equivalently to Pushing the
// batch's rows one by one under the standard caller policy: rows rejected by
// the finite check are counted (the rejected return) and skipped, any other
// error stops processing where the scalar path would have stopped. The
// batch's selection bitmap is consumed as working state.
func (pr *ParallelRun) PushBatch(b *Batch) (rejected int, err error) {
	if pr.err != nil {
		return 0, pr.err
	}
	if pr.closed {
		return 0, errClosed
	}
	if b == nil || b.Len() == 0 {
		return 0, nil
	}
	if !b.compatibleWith(pr.p.schema) {
		return 0, pr.fail(fmt.Errorf("gsql: batch schema %s is incompatible with stream %s",
			b.schema.Name, pr.p.schema.Name))
	}
	if pr.bx == nil {
		pr.bx = newBatchExec(pr.p, pr.ep)
	}
	bx := pr.bx
	tuples0 := pr.tuples

	bx.valid = growBits(bx.valid, b.n)
	b.scanFinite(bx.valid)

	lo, skipObserve := 0, false
	for lo < b.n {
		hi, newL, roll := b.n, 0.0, false
		if pr.ep != nil {
			hi, newL, roll = bx.scanEpoch(pr.ep, b, lo, skipObserve)
		}
		if err := pr.processSegment(b, lo, hi); err != nil {
			return countRejected(bx.valid, tuples0, pr.tuples), err
		}
		if roll {
			if err := pr.rollTo(newL); err != nil {
				// Scalar Push counts the rolling tuple before the roll fails.
				pr.tuples++
				return countRejected(bx.valid, tuples0, pr.tuples), pr.fail(err)
			}
		}
		lo, skipObserve = hi, roll
	}
	return countRejected(bx.valid, tuples0, pr.tuples), nil
}

// processSegment routes rows [lo,hi) under a fixed landmark: vectorized
// while the kernels run clean, otherwise replayed through the scalar routing
// path row by row.
func (pr *ParallelRun) processSegment(b *Batch, lo, hi int) error {
	if lo >= hi {
		return nil
	}
	bx := pr.bx
	vp := pr.p.vec
	ctx := &bx.ctx
	ctx.reset(b, vp)
	b.sel = growBits(b.sel, b.n)
	sel := b.sel
	maskRange(sel, bx.valid, lo, hi)

	if vp.where != nil {
		vp.where.run(ctx, sel)
		wb := ctx.bits(vp.where)
		for w := range sel {
			sel[w] &= wb[w]
		}
	}
	for _, g := range vp.groups {
		g.run(ctx, sel)
	}
	if len(ctx.errs) > 0 {
		// No run state touched yet; the scalar replay reproduces the exact
		// scalar outcome, error row included.
		return pr.replaySegment(b, lo, hi)
	}

	// Inline bitmap walk (not forSel) so the routing state stays on the
	// stack — the coordinator's steady-state batch cycle allocates nothing.
	segBase := pr.tuples
	pr.tuples += uint64(hi - lo)
	gv := pr.gv
	for w, m := range sel {
		if m == 0 {
			continue
		}
		base := w << 6
		for ; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			h := routeSeed
			for gi, gn := range vp.groups {
				v := ctx.valueAt(gn, i)
				gv[gi] = v
				if gi == pr.p.temporalIdx {
					if !pr.bucketSet {
						pr.bucket, pr.bucketSet = v, true
					} else if pr.p.bucketAfter(v, pr.bucket) {
						if err := pr.flushAll(); err != nil {
							pr.tuples = segBase + uint64(i-lo+1)
							return pr.fail(err)
						}
						pr.bucket = v
					}
					continue
				}
				h = hashValue(h, v)
			}
			var shard int
			if pr.hasKey {
				shard = int(h % uint64(len(pr.workers)))
			} else {
				shard = pr.rr
				pr.rr++
				if pr.rr == len(pr.workers) {
					pr.rr = 0
				}
			}
			pr.enqueueRow(b, shard, i, gv)
		}
	}
	return nil
}

// enqueueRow copies one batch row (column cells materialized straight into
// the outgoing flat buffer — no intermediate Tuple) plus its evaluated group
// values into the shard's pending batch.
func (pr *ParallelRun) enqueueRow(b *Batch, shard, row int, gv Tuple) {
	tb := pr.pendingFor(shard)
	base := tb.n * pr.width
	for ci := range b.cols {
		tb.vals[base+ci] = b.colValue(ci, row)
	}
	if gw := len(pr.p.groupFns); gw > 0 {
		copy(tb.gvals[tb.n*gw:(tb.n+1)*gw], gv)
	}
	tb.n++
	pr.shipIfFull(shard)
}

// replaySegment is the scalar fallback: each row materializes and routes
// through the exact per-tuple path (epoch observation has already run for
// the segment). Invalid rows count and skip, as every scalar caller does on
// a NonFiniteValueError.
func (pr *ParallelRun) replaySegment(b *Batch, lo, hi int) error {
	bx := pr.bx
	for i := lo; i < hi; i++ {
		pr.tuples++
		if !bitGet(bx.valid, i) {
			continue
		}
		b.row(i, bx.row)
		if err := pr.routeTuple(bx.row); err != nil {
			return err
		}
	}
	return nil
}
