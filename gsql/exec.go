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

	// tab is the group table the run folds through: its own, or one it
	// shares as a catalog member (keyTable). aggs holds the run's aggregate
	// slots of every group of tab by group id (aggsOf), recycled with the
	// ids; tpos indexes tab.members.
	tab  *keyTable
	tpos int
	aggs []Aggregator
	// evBase and winBase turn the table's eviction and window counts into
	// the run's own; they move off zero when the run changes tables.
	evBase, winBase uint64

	// ent is the catalog entry of a MultiRun member; nil for a standalone
	// run.
	ent *multiEntry

	ep    *epochState
	epErr error

	rec Tuple // scratch combined record

	// bx is the batch executor's scratch state and one Push's one-row batch,
	// both allocated on first use. cctx is the context holding the run's
	// argument columns in the segment being folded: the table's, or actx
	// when the run shares a table whose plan is another statement's. fails
	// are the rows of that segment whose arguments failed, in row order;
	// failNext is the first one the fold has not passed.
	bx         *batchExec
	one        *Batch
	actx, cctx *vctx
	fails      []rowErr
	failNext   int

	// ckBuf and ckSpans are Checkpoint's scratch: every group entry encoded
	// back to back, and the index into them that is sorted in their place.
	ckBuf   []byte
	ckSpans []ckSpan

	// stats
	tuples      uint64
	checkpoints uint64
	restores    uint64
}

// group is one group's partial state. A key table's groups carry their key,
// id and — under byte keys only — values (word keys decode theirs on the way
// out), and are recycled, buffers included, from bucket to bucket; each
// member keeps the group's aggregates by id. The sharded runtime keys its
// per-shard maps by string and uses gv and aggs only, as does checkpoint
// decoding.
type group struct {
	hash uint64
	id   int32
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

// groupKey is a group's identity in a key table. When every group
// expression is statically int, bool or float (plan.keyTypes) and the table
// has only ever seen values of those types, the key is w: one word per
// column, the payload the canonical encoding writes after the column's type
// tag. Otherwise it is b: the canonical bytes (Value.appendKey per column).
// All keys of a table carry the same form and a key of one or more columns
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

// newRun wires a plan to a sink under the given options, on a table of its
// own.
func newRun(p *plan, sink func(Tuple) error, opts Options) *Run {
	r := &Run{
		p:    p,
		sink: sink,
		rec:  make(Tuple, len(p.vec.groups)+len(p.aggSpecs)),
	}
	r.ep, r.epErr = newEpochState(opts.Epoch, p.schema)
	newKeyTable(p, opts).add(r)
	return r
}

// aggsOf returns the run's aggregate slots of group g.
func (r *Run) aggsOf(g *group) []Aggregator {
	k := len(r.p.aggSpecs)
	i := int(g.id) * k
	return r.aggs[i : i+k : i+k]
}

// Push processes one input tuple: a one-row PushBatch. The tuple must match
// the stream's column types, as Batch.Append requires; a tuple that does not
// is refused with Append's error, uncounted. Tuples carrying NaN or ±Inf
// floats are counted and rejected with a *NonFiniteValueError before
// touching any group state.
func (r *Run) Push(t Tuple) error {
	b, err := loadOne(r.p.schema, &r.one, t, &r.tuples)
	if err != nil {
		return err
	}
	_, err = r.PushBatch(b)
	return err
}

// loadOne readies *one (made on first use) to hold tuple t alone, for a
// Push: a non-finite tuple is counted in *tuples and refused with its
// *NonFiniteValueError, and a tuple not typed as schema s with
// Batch.Append's error.
func loadOne(s *Schema, one **Batch, t Tuple, tuples *uint64) (*Batch, error) {
	if err := checkTupleFinite(s, t); err != nil {
		*tuples++
		return nil, err
	}
	if *one == nil {
		b, err := NewBatch(s)
		if err != nil {
			return nil, err
		}
		*one = b
	}
	b := *one
	b.Reset()
	if err := b.Append(t); err != nil {
		return nil, err
	}
	return b, nil
}

// newAggs instantiates one aggregator per slot of the plan, linked as the
// plan's Sharer slots are.
func newAggs(p *plan) []Aggregator {
	aggs := make([]Aggregator, len(p.aggSpecs))
	for i, spec := range p.aggSpecs {
		aggs[i] = spec.New()
	}
	p.link(aggs)
	return aggs
}

// emitGroup hands sink one group's row (aggs its aggregate slots), cut from the front of slab, which is
// returned advanced. The row is the sink's to keep: slab is allocated per
// flush and never written again. A plan with outDirect writes the row
// straight from the group; any other finalizes the group into rec
// (groupVals ++ aggFinals) and applies HAVING and the output projection.
func emitGroup(p *plan, g *group, aggs []Aggregator, rec Tuple, slab []Value, sink func(Tuple) error) ([]Value, error) {
	w := len(p.outFns)
	out := Tuple(slab[:w:w])
	ng := len(p.groupFns)
	if p.outDirect != nil {
		for i, src := range p.outDirect {
			if src < ng {
				out[i] = g.value(src, p.keyTypes)
			} else {
				out[i] = aggs[src-ng].Final()
			}
		}
		return slab[w:], sink(out)
	}
	for i := range ng {
		rec[i] = g.value(i, p.keyTypes)
	}
	for i, a := range aggs {
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
		if slab, err = emitGroup(p, high[k], high[k].aggs, rec, slab, sink); err != nil {
			return err
		}
	}
	return nil
}

// emit hands the sink the run's row of every group of refs, in order, cut
// from one slab allocated for the flush.
func (r *Run) emit(refs []*group) error {
	slab := make([]Value, len(refs)*len(r.p.outFns))
	for _, g := range refs {
		var err error
		if slab, err = emitGroup(r.p, g, r.aggsOf(g), r.rec, slab, r.sink); err != nil {
			return err
		}
	}
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
	return r.tab.heartbeat(nil, ts)
}

// Close flushes the final (still open) bucket.
func (r *Run) Close() error { return r.tab.flush(nil, -1) }

// Stats reports tuples processed and low-level evictions (diagnostics for
// the two-level experiments).
func (r *Run) Stats() (tuples, evictions uint64) { return r.tuples, r.tab.evictions + r.evBase }

// errSinkStop can be returned by sinks to abort execution early.
var errSinkStop = fmt.Errorf("gsql: sink requested stop")

// SinkStop returns the sentinel error a sink may return to stop execution;
// Push and Close propagate it unchanged.
func SinkStop() error { return errSinkStop }
