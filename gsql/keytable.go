package gsql

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// keyTable is a group table: the two-level (low/high) tables, the open
// temporal bucket, the key form and the landmark groups are born onto. Its
// groups carry the aggregates of every member — the runs folding through it
// — each member holding its own aggregate slots by group id (Run.aggs), so
// the table probes, evicts, sorts and flushes once for all of them. A
// standalone Run is a table with one member; the multi-query runtime lets
// the members of a predicate class that group by the same key list share
// one (DESIGN §13.6).
//
// Every member sees the same table operations in the same order as its own
// table would show it. Where a member's outcome of a step differs from its
// neighbours' (a failed group birth, eviction merge or flush), the members
// that failed go on from that point on a copy of the table of their own
// (MultiRun.split); a step every member fails leaves the table as one run's
// table would be left.
type keyTable struct {
	p       *plan  // a member's plan: the group expressions, key types and bucket order
	members []*Run // order changes under churn (swap-remove)

	twoLevel bool
	low      []lowSlot
	lowMask  uint64
	// lowMax is the table's size cap; the table doubles toward it as live
	// groups collide. Growth depends only on the table's own key sequence,
	// so two tables fed the same keys stay bit-identical.
	lowMax int
	// lowUsed indexes the low-table slots occupied since the last flush, so
	// bucket flushes and landmark shifts walk only live groups instead of
	// the whole table — with many mostly-empty tables (the multi-query
	// runtime) a full-table scan per flush dominates the per-tuple cost.
	lowUsed []uint32
	// high is the high-level table: evicted partials of a two-level table,
	// or every group of a high-only one. It is keyed by the group key's hash
	// — groups sharing a hash chain through group.next — and created on
	// first insert: most tables of a large shared catalog never evict.
	high map[uint64]*group

	// free holds the groups of closed buckets, key buffers attached, for the
	// next bucket's groups to be born into; their ids index the members'
	// recycled aggregators. ids is the count of ids handed out. refs is
	// flush's scratch list of the groups being emitted.
	free []*group
	refs []*group
	ids  int32

	bucketSet bool
	bucket    Value

	// curL is the landmark groups must be born onto once a rollover (or an
	// epoch-stamped restore) has moved the table off the aggregate
	// factories' baseline; landmarkSet gates it so unrolled tables pay
	// nothing.
	curL        float64
	landmarkSet bool

	// words keys the groups by word (groupKey) while it holds: from start
	// when the plan has keyTypes, until a restored mistyped value demotes
	// the table.
	words bool

	// evictions and windows count for the table's lifetime; a member's own
	// counts are these plus its Run.evBase / winBase.
	evictions, windows uint64

	// failed lists the members the last step failed (each); a step every
	// member failed leaves them all here for the caller to book.
	failed []memberErr

	beat *beat // heartbeat scratch, made at the first heartbeat

	// Catalog bookkeeping (MultiRun): id names the table in the stats;
	// share is its sharing identity within its class (the canonical key
	// list and the table config); pos indexes cls.tables; from is the first
	// row still to fold of the range being folded, parked a table stopped
	// at a bucket close to meet a peer (MultiRun.rejoin); untimed counts the
	// rows to fold before the next timed segment.
	id      uint64
	share   string
	pos     int
	from    int
	parked  bool
	untimed int
}

// memberErr is one member's failure of a table step.
type memberErr struct {
	r   *Run
	err error
}

type lowSlot struct {
	used bool
	// listed marks the slot as present in the table's lowUsed index (set on
	// first occupancy since the last flush; duplicates must not accumulate
	// across evict/reuse cycles within one bucket).
	listed bool
	hash   uint64
	g      *group // the occupant while used
}

// newKeyTable builds the empty table of a plan under the given options.
func newKeyTable(p *plan, opts Options) *keyTable {
	t := &keyTable{p: p, words: p.keyTypes != nil}
	t.twoLevel = p.mergeable && !opts.DisableTwoLevel && len(p.vec.groups) > 0
	if t.twoLevel {
		n := opts.LowLevelSlots
		if n <= 0 {
			n = 4096
		}
		// Round the cap up to a power of two for mask indexing.
		t.lowMax = 1
		for t.lowMax < n {
			t.lowMax <<= 1
		}
		t.low = make([]lowSlot, min(64, t.lowMax))
		t.lowMask = uint64(len(t.low) - 1)
	}
	return t
}

// add links member r.
func (t *keyTable) add(r *Run) {
	r.tab, r.tpos = t, len(t.members)
	t.members = append(t.members, r)
}

// remove unlinks member r, whose aggregates go with it, and reports
// whether that left the table memberless.
func (t *keyTable) remove(r *Run) (empty bool) {
	last := len(t.members) - 1
	t.members[r.tpos] = t.members[last]
	t.members[r.tpos].tpos = r.tpos
	t.members[last] = nil
	t.members = t.members[:last]
	if last > 0 && t.p == r.p {
		t.p = t.members[0].p
	}
	return last == 0
}

// clone copies the table's state for a member to go on with alone: the
// same slots, groups (by id), bucket, landmark and counters, and no member.
func (t *keyTable) clone() *keyTable {
	c := *t
	c.members, c.failed, c.refs, c.beat, c.parked, c.id = nil, nil, nil, nil, false, 0
	cp := func(g *group) *group {
		n := &group{hash: g.hash, id: g.id, gv: slices.Clone(g.gv)}
		n.key.set(&g.key)
		return n
	}
	c.low = slices.Clone(t.low)
	for i := range c.low {
		if s := &c.low[i]; s.used {
			s.g = cp(s.g)
		}
	}
	c.lowUsed = slices.Clone(t.lowUsed)
	c.high = nil
	for _, g := range t.high {
		for ; g != nil; g = g.next {
			c.highPut(cp(g))
		}
	}
	c.free = make([]*group, len(t.free))
	for i, g := range t.free {
		c.free[i] = &group{id: g.id}
	}
	return &c
}

// joinable reports whether table o is identical to t for every later
// operation: both empty, with the same size, bucket, key form and landmark
// (the caller matches the sharing identity — key list and config).
func (t *keyTable) joinable(o *keyTable) bool {
	return t.liveGroups() == 0 && o.liveGroups() == 0 &&
		len(t.low) == len(o.low) && t.words == o.words &&
		t.bucketSet == o.bucketSet && sameValue(t.bucket, o.bucket) &&
		t.landmarkSet == o.landmarkSet && math.Float64bits(t.curL) == math.Float64bits(o.curL)
}

// absorb moves every member of o to t; their counters keep counting on.
func (t *keyTable) absorb(o *keyTable) {
	for _, r := range o.members {
		r.evBase += o.evictions - t.evictions
		r.winBase += o.windows - t.windows
		t.add(r)
	}
	o.members = o.members[:0]
}

// sameValue reports bit-identical values.
func sameValue(a, b Value) bool {
	return a.T == b.T && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

// each calls f for every member, listing the members it fails in t.failed,
// and reports whether every member failed. Among several members, a
// member's panic fences it and the loop goes on with the next; a lone
// member's panic is the table's, which the catalog fences (tableSafe) and a
// standalone run raises.
func (t *keyTable) each(cat *MultiRun, f func(*Run) error) (all bool) {
	t.failed = t.failed[:0]
	if len(t.members) == 1 {
		if err := f(t.members[0]); err != nil {
			t.failed = append(t.failed, memberErr{t.members[0], err})
		}
		return len(t.failed) > 0
	}
	for i := 0; i < len(t.members); {
		i = t.eachFrom(cat, i, f)
	}
	return len(t.failed) > 0 && len(t.failed) == len(t.members)
}

func (t *keyTable) eachFrom(cat *MultiRun, i int, f func(*Run) error) (next int) {
	defer func() {
		if p := recover(); p != nil {
			r := t.members[i]
			cat.chargeMember(r.ent, fmt.Errorf("gsql: panic in query %d: %v", r.ent.id, p), QuarantinePanic)
			next = i // the fence swap-removed r: the member now at i is next
		}
	}()
	for ; i < len(t.members); i++ {
		if err := f(t.members[i]); err != nil {
			t.failed = append(t.failed, memberErr{t.members[i], err})
		}
	}
	return i
}

// settle resolves a step that failed some members (all reports every
// member did): then the table stays as the step left it and the first
// member's error is returned, t.failed listing them all. Otherwise each
// failed member is charged at row (a heartbeat's when row < 0) and goes on
// alone from the table as it stands, from row+1 of the range being folded.
func (t *keyTable) settle(cat *MultiRun, row int, all bool) error {
	if all {
		return t.failed[0].err
	}
	for _, f := range t.failed {
		if cat.charge(f.r, row, f.err) {
			cat.split(f.r, row+1)
		}
	}
	t.failed = t.failed[:0]
	return nil
}

// fail lists every member as failed with err.
func (t *keyTable) fail(err error) error {
	t.failed = t.failed[:0]
	for _, r := range t.members {
		t.failed = append(t.failed, memberErr{r, err})
	}
	return err
}

// keyOf writes the key of group values gv into k and returns its hash. A
// table keyed by words turns to byte keys for good (demote) at the first
// value whose type is not its column's static type — a restored group of a
// tuple not typed as the schema — which the word form cannot tell apart.
func (t *keyTable) keyOf(k *groupKey, gv Tuple) uint64 {
	k.w, k.b = k.w[:0], k.b[:0]
	if t.words {
		for i, v := range gv {
			if v.T != t.p.keyTypes[i] {
				t.demote()
				k.w = k.w[:0]
				break
			}
			k.w = append(k.w, keyWord(v))
		}
	}
	if !t.words {
		k.b = t.p.keyAppend(k.b, gv)
	}
	return k.hash(t.p.keyTypes)
}

// demote rewrites every live group of a word-keyed table with byte keys and
// materialized values. A key's hash does not depend on its form, so no group
// moves.
func (t *keyTable) demote() {
	t.words = false
	t.eachGroup(func(g *group) error {
		g.gv = make(Tuple, len(g.key.w))
		for i := range g.gv {
			g.gv[i] = g.value(i, t.p.keyTypes)
		}
		g.key.b = t.p.keyAppend(g.key.b[:0], g.gv)
		g.key.w = g.key.w[:0]
		return nil
	})
}

// eachGroup calls f on every live group, the high table's first, stopping at
// the first error.
func (t *keyTable) eachGroup(f func(*group) error) error {
	for _, g := range t.high {
		for ; g != nil; g = g.next {
			if err := f(g); err != nil {
				return err
			}
		}
	}
	for _, i := range t.lowUsed {
		if s := &t.low[i]; s.used {
			if err := f(s.g); err != nil {
				return err
			}
		}
	}
	return nil
}

// liveGroups approximates the live group population of the open bucket: the
// high-level table plus the low-level slots occupied since the last flush.
// lowUsed may briefly hold stale indexes from aborted inserts, so this is an
// upper bound — which is the right direction for a cardinality cap.
func (t *keyTable) liveGroups() int { return len(t.high) + len(t.lowUsed) }

// growLow doubles the low-level table and rehashes its live slots. Doubling
// never introduces a collision (two occupied slots differ in the old index
// bits), so no evictions happen here.
func (t *keyTable) growLow() {
	old := t.low
	t.low = make([]lowSlot, len(old)*2)
	t.lowMask = uint64(len(t.low) - 1)
	used := t.lowUsed[:0]
	for _, i := range t.lowUsed {
		s := &old[i]
		if !s.used {
			continue // stale index from an aborted insert
		}
		j := s.hash & t.lowMask
		t.low[j] = *s
		used = append(used, uint32(j))
	}
	t.lowUsed = used
}

// highGet returns the high-level group with the given key, or nil.
func (t *keyTable) highGet(hash uint64, key *groupKey) *group {
	g := t.high[hash]
	for g != nil && !g.key.equal(key) {
		g = g.next
	}
	return g
}

// highPut inserts a group highGet does not find.
func (t *keyTable) highPut(g *group) {
	if t.high == nil {
		t.high = make(map[uint64]*group)
	}
	g.next = t.high[g.hash]
	t.high[g.hash] = g
}

// probe locates (or creates) the group for key, whose hash is h; row is the
// row being folded, for the members a step fails alone (settle). A group
// born by this probe (born == true) has its key but not its values: under
// byte keys the caller fills g.gv from the row, so a probe that finds its
// group never materializes them. An error is every member's failure.
func (t *keyTable) probe(cat *MultiRun, h uint64, key *groupKey, row int) (g *group, born bool, err error) {
	if !t.twoLevel {
		if g = t.highGet(h, key); g != nil {
			return g, false, nil
		}
		if g, err = t.born(cat, h, key, row); err != nil {
			return nil, false, err
		}
		t.highPut(g)
		return g, true, nil
	}
	i := h & t.lowMask
	s := &t.low[i]
	// A colliding insert grows the table (doubling separates the keys'
	// hashes with high probability) until the cap; only at the cap does the
	// paper's evict-to-high policy kick in. Hot keys that would otherwise
	// thrash one slot get separated instead of re-allocating aggregators
	// every tuple.
	for s.used && !(s.hash == h && s.g.key.equal(key)) && len(t.low) < t.lowMax {
		t.growLow()
		i = h & t.lowMask
		s = &t.low[i]
	}
	if s.used && !(s.hash == h && s.g.key.equal(key)) {
		if err := t.evict(cat, s, row); err != nil {
			return nil, false, err
		}
	}
	if s.used {
		return s.g, false, nil
	}
	if g, err = t.born(cat, h, key, row); err != nil {
		return nil, false, err
	}
	s.used = true
	if !s.listed {
		s.listed = true
		t.lowUsed = append(t.lowUsed, uint32(i))
	}
	s.hash, s.g = h, g
	return g, true, nil
}

// evict moves a low-level partial into the high level: merged into its twin
// there (for every member) if the key was evicted before, linked in as it is
// otherwise. Either way the slot is free for its next occupant at once, and a
// merged partial goes back to the free list — also when a merge fails.
func (t *keyTable) evict(cat *MultiRun, s *lowSlot, row int) error {
	t.evictions++
	g := s.g
	s.g, s.used = nil, false
	dst := t.highGet(g.hash, &g.key)
	if dst == nil {
		t.highPut(g)
		return nil
	}
	t.free = append(t.free, g)
	return t.settle(cat, row, t.each(cat, func(r *Run) error { return mergeAggs(r.aggsOf(dst), r.aggsOf(g)) }))
}

// born returns the group object for a newborn group — a closed bucket's,
// when one is free — with every member's aggregate slots for it readied
// (Run.born). The group takes a copy of key; under byte keys its values are
// the caller's to fill (see probe).
func (t *keyTable) born(cat *MultiRun, hash uint64, key *groupKey, row int) (*group, error) {
	var g *group
	if n := len(t.free); n > 0 {
		g = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		g = &group{id: t.ids}
		t.ids++
	}
	if !t.words && g.gv == nil {
		g.gv = make(Tuple, len(t.p.vec.groups))
	}
	if err := t.settle(cat, row, t.each(cat, func(r *Run) error { return r.born(g) })); err != nil {
		t.free = append(t.free, g)
		return nil, err
	}
	g.hash = hash
	g.key.set(key)
	return g, nil
}

// flush emits every group of the closed bucket in key order, for each
// member, and resets for the next bucket. Low-level partials are emitted
// from their slots — only one whose key was also evicted during the bucket
// is merged into its high-level twin first — and the groups are sorted once
// for all members. The bucket's groups then go to the free list.
//
// A failure every member shares (a merge, HAVING or sink error) leaves every
// group in place, so the bucket is emitted again, from its first row, by the
// next flush; row is the row whose bucket closes this one (settle).
func (t *keyTable) flush(cat *MultiRun, row int) error {
	refs := t.refs[:0]
	drained := 0
	for _, i := range t.lowUsed {
		s := &t.low[i]
		if !s.used {
			continue // stale index from an aborted insert
		}
		drained++
		if len(t.high) > 0 {
			if dst := t.highGet(s.hash, &s.g.key); dst != nil {
				g := s.g
				s.g, s.used = nil, false
				t.free = append(t.free, g)
				if err := t.settle(cat, row, t.each(cat, func(r *Run) error { return mergeAggs(r.aggsOf(dst), r.aggsOf(g)) })); err != nil {
					return err
				}
				continue
			}
		}
		refs = append(refs, s.g)
	}
	for _, g := range t.high {
		for ; g != nil; g = g.next {
			refs = append(refs, g)
		}
	}
	// Byte order of the canonical keys: the order sort.Strings gives them.
	slices.SortFunc(refs, func(a, b *group) int { return a.key.compare(&b.key) })
	t.refs = refs
	if err := t.settle(cat, row, t.each(cat, func(r *Run) error { return r.emit(refs) })); err != nil {
		return err
	}

	for _, g := range refs {
		g.next = nil
	}
	t.free = append(t.free, refs...)
	clear(refs)
	for _, i := range t.lowUsed {
		t.low[i] = lowSlot{}
	}
	t.lowUsed = t.lowUsed[:0]
	clear(t.high)
	t.evictions += uint64(drained)
	t.windows++
	return nil
}

// advance moves the open bucket to b, closing (flushing) it first when b
// is later, and reports whether it closed one; row is the row bringing b
// (flush).
func (t *keyTable) advance(cat *MultiRun, b Value, row int) (closed bool, err error) {
	if !t.bucketSet {
		t.bucket, t.bucketSet = b, true
		return false, nil
	}
	if !t.p.bucketAfter(b, t.bucket) {
		return false, nil
	}
	if err := t.flush(cat, row); err != nil {
		return false, err
	}
	t.bucket = b
	return true, nil
}

// heartbeat advances the temporal bucket to the one holding ts: the
// temporal group kernel runs on a one-row batch whose temporal column holds
// ts in that column's type. An error is every member's (t.failed).
func (t *keyTable) heartbeat(cat *MultiRun, ts Value) error {
	ti := t.p.temporalIdx
	if ti < 0 {
		return nil
	}
	if t.beat == nil {
		t.beat = &beat{b: &Batch{schema: t.p.schema, cols: make([]batchCol, len(t.p.schema.Cols))}, sel: []uint64{1}}
		t.beat.b.Resize(1)
	}
	hb, c := t.beat, t.p.temporalCol
	switch col := &hb.b.cols[c]; t.p.schema.Cols[c].Type {
	case TFloat:
		col.fls[0] = ts.AsFloat()
	case TString:
		col.strs[0] = ts.S
	default: // TInt, TBool
		col.ints[0] = ts.AsInt()
	}
	n := t.p.vec.groups[ti]
	hb.ctx.reset(hb.b, t.p.vec.nslots)
	n.run(&hb.ctx, hb.sel)
	if fails := hb.ctx.take(nil, nil); len(fails) > 0 {
		return t.fail(fails[0].err)
	}
	_, err := t.advance(cat, hb.ctx.valueAt(n, 0), -1)
	return err
}

// beat is a table's heartbeat scratch: a one-row batch of the table's
// stream and the kernel context over it.
type beat struct {
	b   *Batch
	sel []uint64
	ctx vctx
}

// fold folds rows [lo,hi) of b in base into every member. Standalone runs
// pass the finite bitmap; the multi-query runtime passes finite ∧
// class-WHERE, with the plan's own WHERE stripped, and pre: the rows whose
// class WHERE failed, in row order.
//
// The kernels run once over the segment. A row they fail is held: the fold
// steps the rows before it, then charges it the error scalar order gives. A
// WHERE (or class WHERE) or group-key failure fails the row for every
// member, before any table effect. A member's argument failure comes after
// the row's bucket advance and probe and after the member's earlier slots
// have stepped the row; its neighbours step the row in full.
//
// cat is the catalog folding the table's members, nil for a standalone run.
// Without it the segment stops at its first error, which the caller gets
// back, counted through that row. With it a failed row costs each member
// that failed it only itself: the row is booked against the member
// (cat.charge), a clean run ends its error streak, and the fold goes on — an
// aggregate step error at the row after its key run (the granularity
// ColStepper documents).
func (t *keyTable) fold(bx *batchExec, b *Batch, lo, hi int, base []uint64, pre []rowErr, cat *MultiRun) error {
	if lo >= hi {
		return nil
	}
	vp := t.p.vec
	ctx := &bx.ctx
	ctx.reset(b, vp.nslots)
	b.sel = growBits(b.sel, b.n)
	sel := b.sel
	maskRange(sel, base, lo, hi)
	for _, f := range pre {
		if f.row >= lo && f.row < hi {
			ctx.fail(f.row, f.err)
		}
	}
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
	// The rows failed so far fail every member: no argument kernel sees them.
	bx.fails = ctx.take(bx.fails, sel)
	// Every member's argument kernels: the members of the table's own plan
	// in ctx, any other member in a context of its own.
	t.each(cat, func(r *Run) error {
		r.cctx = ctx
		if r.p.vec != vp {
			if r.actx == nil {
				r.actx = new(vctx)
			}
			r.cctx = r.actx
			r.cctx.reset(b, r.p.vec.nslots)
		}
		for si, slotNodes := range r.p.vec.args {
			r.cctx.slot = si
			for _, a := range slotNodes {
				a.run(r.cctx, sel)
			}
		}
		r.fails, r.failNext = r.cctx.take(r.fails, nil), 0
		return nil
	})
	if len(t.members) == 0 {
		return nil
	}
	held := len(bx.fails) > 0
	for _, r := range t.members {
		held = held || len(r.fails) > 0
	}
	if held {
		bx.hold = growBits(bx.hold, b.n)
		clear(bx.hold)
		for _, f := range bx.fails {
			putBit(bx.hold, f.row, true)
			putBit(sel, f.row, true)
		}
		for _, r := range t.members {
			for _, f := range r.fails {
				putBit(bx.hold, f.row, true)
			}
		}
	}

	// Every row of the segment is now accounted for (invalid rows included —
	// scalar Push counts a tuple before rejecting it). The fold walks the
	// bitmap inline (not through forSel) so its mutable state stays on the
	// stack: the steady-state batch cycle allocates nothing, and
	// TestPushBatchSteadyStateAllocs holds it there.
	//
	// Each row's group key is written straight from the kernel columns, in
	// the form the table keys by (groupKey): the words, or the bytes
	// keyAppend would write for the row's group values. The values
	// themselves are materialized only where a row needs them — the
	// temporal bucket at a run start, and under byte keys a group's values
	// at its birth.
	var segBase uint64
	if cat == nil {
		r := t.members[0]
		segBase = r.tuples
		r.tuples += uint64(hi - lo)
	}

	var cur *group
	runLen, next := 0, 0
	for w, m := range sel {
		if m == 0 {
			continue
		}
		base := w << 6
		for ; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			hold := held && bitGet(bx.hold, i)
			shared := hold && next < len(bx.fails) && bx.fails[next].row == i
			if !shared {
				ctx.keyAt(&bx.curKey, vp.groups, i, t.words)
				if runLen > 0 && !hold && bx.curKey.equal(&bx.prevKey) {
					// Same group as the previous row: same group values, same
					// temporal bucket — extend the run, nothing else to check.
					bx.rows = append(bx.rows, int32(i))
					runLen++
					continue
				}
			}
			if runLen > 0 {
				if stop, err := t.endRun(cat, bx, cur, segBase, lo, false); stop {
					return err
				}
			}
			runLen = 0
			if shared {
				t.fail(bx.fails[next].err)
				next++
				if stop, err := t.rowFailed(cat, segBase, lo, i); stop {
					return err
				}
				continue
			}
			if ti := t.p.temporalIdx; ti >= 0 {
				if bv := ctx.valueAt(vp.groups[ti], i); !t.bucketSet || t.p.bucketAfter(bv, t.bucket) {
					closed, err := t.advance(cat, bv, i)
					if err != nil {
						if stop, err := t.rowFailed(cat, segBase, lo, i); stop {
							return err
						}
						continue
					}
					if closed && (len(t.members) == 0 || cat != nil && cat.rejoin(t, i)) {
						return nil
					}
				}
			}
			g, born, err := t.probe(cat, bx.curKey.hash(t.p.keyTypes), &bx.curKey, i)
			if err != nil {
				if stop, err := t.rowFailed(cat, segBase, lo, i); stop {
					return err
				}
				continue
			}
			if len(t.members) == 0 {
				return nil
			}
			if born {
				for gi := range g.gv { // byte keys only
					g.gv[gi] = ctx.valueAt(vp.groups[gi], i)
				}
			}
			cur = g
			bx.rows = append(bx.rows[:0], int32(i))
			bx.curKey, bx.prevKey = bx.prevKey, bx.curKey
			if hold {
				// A member's argument failed on the row: the row is a run of
				// its own, each member stepping it up to its failed slot.
				if stop, err := t.endRun(cat, bx, cur, segBase, lo, true); stop {
					return err
				}
				continue
			}
			runLen = 1
		}
	}
	if runLen > 0 {
		if _, err := t.endRun(cat, bx, cur, segBase, lo, false); err != nil {
			return err
		}
	}
	return nil
}

// endRun steps the pending key run (bx.rows) into every member's slots of
// group g; a held run (one row) steps each member only up to the slot whose
// arguments failed on it (Run.stepRun). A member's step or argument error
// fails the run's last row (rowFailed); a clean step ends the member's
// error streak.
func (t *keyTable) endRun(cat *MultiRun, bx *batchExec, g *group, segBase uint64, lo int, held bool) (stop bool, err error) {
	t.each(cat, func(r *Run) error {
		if err := r.stepRun(bx, r.aggsOf(g), held); err != nil {
			return err
		}
		if cat != nil {
			r.ent.consecErrs = 0
		}
		return nil
	})
	if len(t.failed) == 0 {
		return len(t.members) == 0, nil
	}
	return t.rowFailed(cat, segBase, lo, int(bx.rows[len(bx.rows)-1]))
}

// rowFailed books row i of a vectorized segment that began at tuple count
// segBase against every member in t.failed. A standalone run stops there,
// counted through row i as scalar Push counts, and returns the error; a
// catalog table stops only when no member is left.
func (t *keyTable) rowFailed(cat *MultiRun, segBase uint64, lo, i int) (stop bool, _ error) {
	if cat == nil {
		t.members[0].tuples = segBase + uint64(i-lo+1)
		return true, t.failed[0].err
	}
	for _, f := range t.failed {
		cat.charge(f.r, i, f.err)
	}
	t.failed = t.failed[:0]
	return len(t.members) == 0, nil
}
