package gsql

import (
	"bytes"
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"forwarddecay/internal/core"
)

// Options configure query execution.
type Options struct {
	// DisableTwoLevel forces all aggregation to the high level, as the
	// paper does for Figure 2(b). The default (false) splits mergeable
	// queries across a fixed-size low-level table and a high-level merger.
	DisableTwoLevel bool
	// LowLevelSlots caps the low-level hash table (power of two; default
	// 4096). The table starts small and doubles deterministically with the
	// live-group count, so runs with few groups — the common shape in the
	// shared multi-query runtime — stay cache-resident instead of zeroing
	// and GC-scanning thousands of empty slots.
	LowLevelSlots int
	// Epoch enables the epoch-rollover supervisor: periodic and
	// overflow-triggered landmark advancement across every live aggregate.
	// Nil leaves the landmark fixed for the run's lifetime.
	Epoch *EpochConfig
	// Isolate sets the limits of per-query fault isolation in the
	// multi-query runtime (see MultiRun, IsolateConfig): the breaker, the
	// cardinality cap and the attach-time admission budget. The runtime
	// always contains a member's panics and errors; nil means the zero
	// IsolateConfig — no breaker, no cap, no budget — not another mode.
	// Standalone runs ignore it.
	Isolate *IsolateConfig
}

// Run executes one prepared statement over a stream: Push tuples, then
// Close. Rows are delivered to the sink as time buckets close (and finally
// at Close), each bucket's groups in deterministic (key-sorted) order; a
// delivered row belongs to the sink (see Statement.Start).
//
// A Run is single-use and not safe for concurrent use.
type Run struct {
	p    *plan
	sink func(Tuple) error

	twoLevel bool
	low      []lowSlot
	lowMask  uint64
	// lowMax is the table's size cap; the table doubles toward it as live
	// groups approach 3/4 load. Growth depends only on this run's own fold
	// sequence, so two runs fed the same tuples stay bit-identical.
	lowMax int
	// lowUsed indexes the low-table slots occupied since the last flush, so
	// bucket flushes and landmark shifts walk only live groups instead of
	// the whole table — with many mostly-empty runs (the multi-query
	// runtime) a full-table scan per flush dominates the per-tuple cost.
	lowUsed []uint32
	// high is the high-level table: evicted partials of a two-level run, or
	// every group of a high-only one. It is keyed by the group key's hash —
	// groups sharing a hash chain through group.next — so inserting a group
	// copies no key string, and it is created on first insert: most runs of a
	// large shared catalog never evict.
	high map[uint64]*group

	// free holds the groups of closed buckets — key and value buffers and
	// aggregators attached — for the next bucket's groups to be born into
	// (bornGroup). refs is flush's scratch list of the groups being emitted.
	free []*group
	refs []*group

	bucketSet bool
	bucket    Value

	ep    *epochState
	epErr error
	// curL is the landmark groups must be born onto once a rollover (or an
	// epoch-stamped restore) has moved the run off the aggregate factories'
	// baseline; landmarkSet gates it so unrolled runs pay nothing.
	curL        float64
	landmarkSet bool

	// words keys the run's groups by word (groupKey) while it holds: from
	// start when the plan has keyTypes, until a mistyped value demotes it.
	words bool
	key   groupKey // scratch key of the tuple being folded
	args  []Value
	gv    Tuple // scratch group values, reused across Push calls
	rec   Tuple // scratch combined record

	// bx is the batch executor's scratch state, allocated on first PushBatch;
	// scalar-only runs never pay for it.
	bx *batchExec

	// ckBuf and ckSpans are Checkpoint's scratch: every group entry encoded
	// back to back, and the index into them that is sorted in their place.
	ckBuf   []byte
	ckSpans []ckSpan

	// stats
	evictions   uint64
	tuples      uint64
	windows     uint64
	checkpoints uint64
	restores    uint64
}

type lowSlot struct {
	used bool
	// listed marks the slot as present in the run's lowUsed index (set on
	// first occupancy since the last flush; duplicates must not accumulate
	// across evict/reuse cycles within one bucket).
	listed bool
	hash   uint64
	g      *group // the occupant while used
}

// group is one group's partial state. A Run's tables fill every field but
// gv, which only byte keys carry (word keys decode their values on the way
// out), and recycle the object, buffers and aggregators included, from
// bucket to bucket; the sharded runtime keys its per-shard maps by string
// and uses gv and aggs only.
type group struct {
	hash uint64
	key  groupKey
	gv   Tuple
	aggs []Aggregator
	next *group // high-level groups sharing a hash
}

// value returns the group's value of group column i; types are the plan's
// keyTypes.
func (g *group) value(i int, types []Type) Value {
	if len(g.key.w) > 0 {
		return wordValue(types[i], g.key.w[i])
	}
	return g.gv[i]
}

// groupKey is a group's identity in a Run's tables. When every group
// expression is statically int, bool or float (plan.keyTypes) and the run
// has only ever seen values of those types, the key is w: one word per
// column, the payload the canonical encoding writes after the column's type
// tag. Otherwise it is b: the canonical bytes (Value.appendKey per column).
// All keys of a run carry the same form and a key of one or more columns
// carries exactly one, so the methods work on whichever is there.
//
// The word form is the byte form without the bytes: hash is core.HashBytes
// of the canonical bytes, and compare is bytes.Compare of them — the tags
// agree column by column, and the little-endian payload bytes compare as the
// byte-reversed words do. Slot placement, chains, evictions and flush order
// are those of byte keys, bit for bit.
type groupKey struct {
	w []uint64
	b []byte
}

func (k *groupKey) equal(o *groupKey) bool {
	return slices.Equal(k.w, o.w) && bytes.Equal(k.b, o.b)
}

func (k *groupKey) compare(o *groupKey) int {
	for i, w := range k.w {
		if v := o.w[i]; w != v {
			return cmp.Compare(bits.ReverseBytes64(w), bits.ReverseBytes64(v))
		}
	}
	return bytes.Compare(k.b, o.b)
}

// hash is core.HashBytes of the canonical key bytes (FNV-1a, then Mix64);
// types supply the word form's tags.
func (k *groupKey) hash(types []Type) uint64 {
	if len(k.w) == 0 {
		return core.HashBytes(k.b)
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i, w := range k.w {
		h = (h ^ uint64(types[i])) * prime64
		for range 8 {
			h = (h ^ w&0xff) * prime64
			w >>= 8
		}
	}
	return core.Mix64(h)
}

func (k *groupKey) set(o *groupKey) {
	k.w = append(k.w[:0], o.w...)
	k.b = append(k.b[:0], o.b...)
}

// keyOf writes the key of group values gv into k and returns its hash. A run
// keyed by words turns to byte keys for good (demote) at the first value
// whose type is not its column's static type: a tuple not typed as the
// schema, which the word form cannot tell apart.
func (r *Run) keyOf(k *groupKey, gv Tuple) uint64 {
	k.w, k.b = k.w[:0], k.b[:0]
	if r.words {
		for i, v := range gv {
			if v.T != r.p.keyTypes[i] {
				r.demote()
				k.w = k.w[:0]
				break
			}
			k.w = append(k.w, keyWord(v))
		}
	}
	if !r.words {
		k.b = r.p.keyAppend(k.b, gv)
	}
	return k.hash(r.p.keyTypes)
}

// demote rewrites every live group of a word-keyed run with byte keys and
// materialized values. A key's hash does not depend on its form, so no group
// moves.
func (r *Run) demote() {
	r.words = false
	r.eachGroup(func(g *group) error {
		g.gv = make(Tuple, len(g.key.w))
		for i := range g.gv {
			g.gv[i] = g.value(i, r.p.keyTypes)
		}
		g.key.b = r.p.keyAppend(g.key.b[:0], g.gv)
		g.key.w = g.key.w[:0]
		return nil
	})
}

// eachGroup calls f on every live group, the high table's first, stopping at
// the first error.
func (r *Run) eachGroup(f func(*group) error) error {
	for _, g := range r.high {
		for ; g != nil; g = g.next {
			if err := f(g); err != nil {
				return err
			}
		}
	}
	for _, i := range r.lowUsed {
		if s := &r.low[i]; s.used {
			if err := f(s.g); err != nil {
				return err
			}
		}
	}
	return nil
}

// newRun wires a plan to a sink under the given options.
func newRun(p *plan, sink func(Tuple) error, opts Options) *Run {
	r := &Run{
		p:     p,
		sink:  sink,
		args:  make([]Value, 0, 4),
		gv:    make(Tuple, len(p.groupFns)),
		rec:   make(Tuple, len(p.groupFns)+len(p.aggSpecs)),
		words: p.keyTypes != nil,
	}
	r.ep, r.epErr = newEpochState(opts.Epoch)
	r.twoLevel = p.mergeable && !opts.DisableTwoLevel && len(p.groupFns) > 0
	if r.twoLevel {
		n := opts.LowLevelSlots
		if n <= 0 {
			n = 4096
		}
		// Round the cap up to a power of two for mask indexing.
		max := 1
		for max < n {
			max <<= 1
		}
		r.lowMax = max
		sz := 64
		if sz > max {
			sz = max
		}
		r.low = make([]lowSlot, sz)
		r.lowMask = uint64(sz - 1)
	}
	return r
}

// growLow doubles the low-level table and rehashes its live slots. Doubling
// never introduces a collision (two occupied slots differ in the old index
// bits), so no evictions happen here.
func (r *Run) growLow() {
	old := r.low
	r.low = make([]lowSlot, len(old)*2)
	r.lowMask = uint64(len(r.low) - 1)
	used := r.lowUsed[:0]
	for _, i := range r.lowUsed {
		s := &old[i]
		if !s.used {
			continue // stale index from an aborted insert
		}
		j := s.hash & r.lowMask
		r.low[j] = *s
		used = append(used, uint32(j))
	}
	r.lowUsed = used
}

// Push processes one input tuple. Tuples carrying NaN or ±Inf floats are
// rejected with a *NonFiniteValueError before touching any group state.
func (r *Run) Push(t Tuple) error {
	r.tuples++
	if err := checkTupleFinite(r.p.schema, t); err != nil {
		return err
	}
	// The epoch check runs before the tuple is folded in, so the tuple that
	// crosses a period boundary is already aggregated in the new frame.
	if r.ep != nil {
		if err := r.maybeRoll(t); err != nil {
			return err
		}
	} else if r.epErr != nil {
		return r.epErr
	}
	return r.foldTuple(t)
}

// foldTuple is the post-epoch body of Push: WHERE, group evaluation, bucket
// advancement, table probe, and aggregate stepping. The batch executor's
// scalar replay path calls it directly (counting and epoch handling differ
// there), so it must stay exactly Push minus those preambles.
func (r *Run) foldTuple(t Tuple) error {
	if r.p.where != nil {
		ok, err := r.p.where(t)
		if err != nil {
			return err
		}
		if !ok.Truthy() {
			return nil
		}
	}

	// Evaluate group-by expressions (into the reused scratch slice — the
	// steady-state Push path performs no allocation) and detect bucket
	// advancement.
	gv := r.gv
	for i, fn := range r.p.groupFns {
		v, err := fn(t)
		if err != nil {
			return err
		}
		gv[i] = v
	}
	h := r.keyOf(&r.key, gv)
	if ti := r.p.temporalIdx; ti >= 0 {
		b := gv[ti]
		if !r.bucketSet {
			r.bucket, r.bucketSet = b, true
		} else if r.p.bucketAfter(b, r.bucket) {
			if err := r.flush(); err != nil {
				return err
			}
			r.bucket = b
		}
	}

	// Probe the group table (two-level or high-only; the fast path — a
	// repeated group key hitting its slot — performs no allocation at all)
	// and fold the tuple in.
	g, born, err := r.probeGroup(h, &r.key)
	if err != nil {
		return err
	}
	if born {
		copy(g.gv, gv) // byte keys only: a word-keyed group has no gv
	}
	r.args, err = stepAggs(r.p, g.aggs, t, r.args)
	return err
}

// newAggs instantiates one aggregator per slot of the plan.
func newAggs(p *plan) []Aggregator {
	aggs := make([]Aggregator, len(p.aggSpecs))
	for i, spec := range p.aggSpecs {
		aggs[i] = spec.New()
	}
	return aggs
}

// stepAggs folds tuple t into each aggregator, reusing args as the argument
// scratch buffer; the (possibly grown) buffer is returned for the caller to
// keep. The common arities (count(*) with none, sum/avg/udaf with one) skip
// the general argument loop.
func stepAggs(p *plan, aggs []Aggregator, t Tuple, args []Value) ([]Value, error) {
	for i, a := range aggs {
		fns := p.aggArgFns[i]
		var err error
		switch len(fns) {
		case 0:
			err = a.Step(nil)
		case 1:
			v, e := fns[0](t)
			if e != nil {
				return args, e
			}
			args = append(args[:0], v)
			err = a.Step(args)
		default:
			args = args[:0]
			for _, fn := range fns {
				v, e := fn(t)
				if e != nil {
					return args, e
				}
				args = append(args, v)
			}
			err = a.Step(args)
		}
		if err != nil {
			return args, err
		}
	}
	return args, nil
}

// highGet returns the high-level group with the given key, or nil.
func (r *Run) highGet(hash uint64, key *groupKey) *group {
	g := r.high[hash]
	for g != nil && !g.key.equal(key) {
		g = g.next
	}
	return g
}

// highPut inserts a group highGet does not find.
func (r *Run) highPut(g *group) {
	if r.high == nil {
		r.high = make(map[uint64]*group)
	}
	g.next = r.high[g.hash]
	r.high[g.hash] = g
}

// evict moves a low-level partial into the high level: merged into its twin
// there if the key was evicted before, linked in as it is otherwise. Either
// way the slot is free for its next occupant at once.
func (r *Run) evict(s *lowSlot) error {
	r.evictions++
	g := s.g
	s.g = nil
	if dst := r.highGet(g.hash, &g.key); dst != nil {
		r.free = append(r.free, g)
		return mergeAggs(dst.aggs, g.aggs)
	}
	r.highPut(g)
	return nil
}

// emitGroup hands sink one group's row, cut from the front of slab, which is
// returned advanced. The row is the sink's to keep: slab is allocated per
// flush and never written again. A plan with outDirect writes the row
// straight from the group; any other finalizes the group into rec
// (groupVals ++ aggFinals) and applies HAVING and the output projection.
func emitGroup(p *plan, g *group, rec Tuple, slab []Value, sink func(Tuple) error) ([]Value, error) {
	w := len(p.outFns)
	out := Tuple(slab[:w:w])
	ng := len(p.groupFns)
	if p.outDirect != nil {
		for i, src := range p.outDirect {
			if src < ng {
				out[i] = g.value(src, p.keyTypes)
			} else {
				out[i] = g.aggs[src-ng].Final()
			}
		}
		return slab[w:], sink(out)
	}
	for i := range ng {
		rec[i] = g.value(i, p.keyTypes)
	}
	for i, a := range g.aggs {
		rec[ng+i] = a.Final()
	}
	if p.having != nil {
		ok, err := p.having(rec)
		if err != nil {
			return slab, err
		}
		if !ok.Truthy() {
			return slab, nil
		}
	}
	for i, fn := range p.outFns {
		v, err := fn(rec)
		if err != nil {
			return slab, err
		}
		out[i] = v
	}
	return slab[w:], sink(out)
}

// emitGroups emits every group of high in deterministic (key-sorted) order
// through sink, applying HAVING and the output projection. rec is the
// caller's scratch combined record (groupVals ++ aggFinals).
func emitGroups(p *plan, high map[string]*group, rec Tuple, sink func(Tuple) error) error {
	keys := make([]string, 0, len(high))
	for k := range high {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	slab := make([]Value, len(keys)*len(p.outFns))
	for _, k := range keys {
		var err error
		if slab, err = emitGroup(p, high[k], rec, slab, sink); err != nil {
			return err
		}
	}
	return nil
}

// flush emits every group of the closed bucket in key order and resets for
// the next bucket. Low-level partials are emitted from their slots — only
// one whose key was also evicted during the bucket is merged into its
// high-level twin first — and the output rows of the flush are cut from one
// slab. The bucket's groups then go to the free list.
//
// A sink or HAVING error leaves every group in place, so the bucket is
// emitted again, from its first row, by the next flush.
func (r *Run) flush() error {
	refs := r.refs[:0]
	drained := 0
	for _, i := range r.lowUsed {
		s := &r.low[i]
		if !s.used {
			continue // stale index from an aborted insert
		}
		drained++
		if len(r.high) > 0 {
			if dst := r.highGet(s.hash, &s.g.key); dst != nil {
				g := s.g
				s.g, s.used = nil, false
				r.free = append(r.free, g)
				if err := mergeAggs(dst.aggs, g.aggs); err != nil {
					return err
				}
				continue
			}
		}
		refs = append(refs, s.g)
	}
	for _, g := range r.high {
		for ; g != nil; g = g.next {
			refs = append(refs, g)
		}
	}
	// Byte order of the canonical keys: the order sort.Strings gives them.
	slices.SortFunc(refs, func(a, b *group) int { return a.key.compare(&b.key) })
	r.refs = refs
	slab := make([]Value, len(refs)*len(r.p.outFns))
	for _, g := range refs {
		var err error
		if slab, err = emitGroup(r.p, g, r.rec, slab, r.sink); err != nil {
			return err
		}
	}

	for _, g := range refs {
		g.next = nil
	}
	r.free = append(r.free, refs...)
	clear(refs)
	for _, i := range r.lowUsed {
		r.low[i] = lowSlot{}
	}
	r.lowUsed = r.lowUsed[:0]
	clear(r.high)
	r.evictions += uint64(drained)
	r.windows++
	return nil
}

// Heartbeat advances the temporal bucket without carrying data, closing
// (and emitting) any buckets older than the one containing ts. It mirrors
// GS's heartbeat/punctuation mechanism: a lull in traffic must not leave
// the previous time bucket's results unreported. ts is a value in the same
// units as the temporal group-by expression's source column (e.g. seconds
// for `group by time/60`); it is ignored for non-temporal queries.
func (r *Run) Heartbeat(ts Value) error {
	if r.ep != nil {
		if err := r.epochHeartbeat(ts); err != nil {
			return err
		}
	} else if r.epErr != nil {
		return r.epErr
	}
	return r.heartbeatBucket(ts)
}

// heartbeatBucket is the bucket-advance body of Heartbeat, after the epoch
// hook. The multi-query runtime calls it directly: its shared supervisor has
// already observed the heartbeat once for every attached query.
func (r *Run) heartbeatBucket(ts Value) error {
	ti := r.p.temporalIdx
	if ti < 0 {
		return nil
	}
	b, err := r.p.temporalOf(ts)
	if err != nil {
		return err
	}
	if !r.bucketSet {
		r.bucket, r.bucketSet = b, true
		return nil
	}
	if r.p.bucketAfter(b, r.bucket) {
		if err := r.flush(); err != nil {
			return err
		}
		r.bucket = b
	}
	return nil
}

// liveGroups approximates the live group population of the open bucket: the
// high-level table plus the low-level slots occupied since the last flush.
// lowUsed may briefly hold stale indexes from aborted inserts, so this is an
// upper bound — which is the right direction for a cardinality cap.
func (r *Run) liveGroups() int { return len(r.high) + len(r.lowUsed) }

// Close flushes the final (still open) bucket.
func (r *Run) Close() error { return r.flush() }

// Stats reports tuples processed and low-level evictions (diagnostics for
// the two-level experiments).
func (r *Run) Stats() (tuples, evictions uint64) { return r.tuples, r.evictions }

// errSinkStop can be returned by sinks to abort execution early.
var errSinkStop = fmt.Errorf("gsql: sink requested stop")

// SinkStop returns the sentinel error a sink may return to stop execution;
// Push and Close propagate it unchanged.
func SinkStop() error { return errSinkStop }
