package gsql

import (
	"fmt"
	"math/bits"
)

// ParallelRun.PushBatch: the sharded counterpart of Run.PushBatch. The
// coordinator runs the batched finite scan and every kernel of the plan —
// WHERE, the group keys, the aggregate arguments — then routes surviving
// rows to their shards with their group values and arguments attached
// (the shards evaluate no expression).

// PushBatch routes every row of b to its shard, equivalently to routing the
// batch's rows one by one: rows rejected by the finite check are counted
// (the rejected return) and skipped, any other error stops processing at
// the row that raised it, after the effects that row has in a Run (a
// bucket it closes, when its arguments failed), and poisons the run. The
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
		pr.bx = new(batchExec)
	}
	bx := pr.bx
	tuples0 := pr.tuples

	bx.valid = growBits(bx.valid, b.n)
	b.scanFinite(bx.valid)
	err = pr.route(b)
	return countRejected(bx.valid, tuples0, pr.tuples), err
}

// route routes the batch's rows up to the first one a kernel failed on,
// which fails the run: a row whose WHERE or group key failed before it
// touches the run, one whose argument failed after its bucket advance.
func (pr *ParallelRun) route(b *Batch) error {
	bx := pr.bx
	vp := pr.p.vec
	ctx := &bx.ctx
	ctx.reset(b, vp.nslots)
	b.sel = growBits(b.sel, b.n)
	sel := b.sel
	maskRange(sel, bx.valid, 0, b.n)

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
	bx.fails = ctx.take(bx.fails, sel)
	for si, args := range vp.args {
		ctx.slot = si
		for _, a := range args {
			a.run(ctx, sel)
		}
	}
	pr.fails = ctx.take(pr.fails, nil)
	stop, argFailed := b.n, false
	var stopErr error
	if len(bx.fails) > 0 {
		stop, stopErr = bx.fails[0].row, bx.fails[0].err
	}
	if len(pr.fails) > 0 && pr.fails[0].row < stop {
		stop, stopErr, argFailed = pr.fails[0].row, pr.fails[0].err, true
	}
	maskRange(sel, sel, 0, stop)

	// Inline bitmap walk (not forSel) so the routing state stays on the
	// stack — the coordinator's steady-state batch cycle allocates nothing.
	tuples0 := pr.tuples
	pr.tuples += uint64(b.n)
	ti := pr.p.temporalIdx
	for w, m := range sel {
		base := w << 6
		for ; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			if ti >= 0 {
				if err := pr.advance(ctx.valueAt(vp.groups[ti], i)); err != nil {
					pr.tuples = tuples0 + uint64(i+1)
					return pr.fail(err)
				}
			}
			pr.enqueueRow(ctx, i)
		}
	}
	if stop == b.n {
		return nil
	}
	pr.tuples = tuples0 + uint64(stop+1)
	if argFailed && ti >= 0 {
		if err := pr.advance(ctx.valueAt(vp.groups[ti], stop)); err != nil {
			return pr.fail(err)
		}
	}
	return pr.fail(stopErr)
}

// advance moves the open bucket to v, flushing every shard first when v is
// later: flush points are the serial Run's, so out-of-order inputs group
// and emit identically.
func (pr *ParallelRun) advance(v Value) error {
	if !pr.bucketSet {
		pr.bucket, pr.bucketSet = v, true
		return nil
	}
	if !pr.p.bucketAfter(v, pr.bucket) {
		return nil
	}
	if err := pr.flushAll(); err != nil {
		return err
	}
	pr.bucket = v
	return nil
}

// enqueueRow copies row i's group values and aggregate arguments into the
// pending batch of its shard — the hash of its non-temporal group values,
// or the next in turn without any — and ships the batch when full.
func (pr *ParallelRun) enqueueRow(ctx *vctx, i int) {
	vp := pr.p.vec
	shard := pr.rr
	if pr.hasKey {
		h := routeSeed
		for gi, g := range vp.groups {
			if gi != pr.p.temporalIdx {
				h = hashValue(h, ctx.valueAt(g, i))
			}
		}
		shard = int(h % uint64(len(pr.workers)))
	} else {
		pr.rr = (pr.rr + 1) % len(pr.workers)
	}
	sb := pr.pendingFor(shard)
	row := sb.vals[sb.n*pr.width : (sb.n+1)*pr.width]
	k := 0
	for _, g := range vp.groups {
		row[k] = ctx.valueAt(g, i)
		k++
	}
	for _, args := range vp.args {
		for _, a := range args {
			row[k] = ctx.valueAt(a, i)
			k++
		}
	}
	sb.n++
	pr.shipIfFull(shard)
}
