package gsql

import (
	"bytes"
	"encoding"
	"fmt"
	"math"
	"slices"

	"forwarddecay/internal/codec"
	"forwarddecay/internal/core"
)

// Checkpoint/restore for query state. Forward decay makes this cheap: every
// aggregate's state is expressed in static weights fixed at arrival
// (§III of the paper), so a partial state serialized at any moment can be
// restored later — or on another machine — and resumed without replaying
// the stream, exactly the property the distributed deployment of §VI-B
// relies on. A checkpoint captures the open window bucket and every group's
// aggregate partials; the group aggregates themselves embed their decay
// model and landmark through the agg/sketch encodings.
//
// The format is versioned and length-prefixed, and the decoder hard-errors
// on corrupt input: wrong magic, wrong statement fingerprint, truncation,
// implausible counts, or trailing bytes all fail restore — a corrupt
// checkpoint must never panic or silently restore half a state.
//
// Layout (little-endian):
//
//	magic "FDC" + version (1 byte)
//	u64 statement fingerprint (query text + schema name)
//	u64 group-expression count, u64 aggregate-slot count
//	u8 bucketSet, value bucket (present iff bucketSet)
//	u64 tuples pushed
//	u8 epochSet, u64 epoch + f64 landmark (present iff epochSet; version 2)
//	u64 entry count, then per entry:
//	    group values (one encoded Value per group expression)
//	    per aggregate slot: u64 length + aggregator MarshalBinary bytes
//	u64 integrity hash of everything above
//
// Entries are partial states, not final groups: the same group key may
// appear in several entries (serial low/high tables, or one per shard) and
// restore folds duplicates together with Aggregator.Merge.
//
// Version 2 stamps the epoch supervisor's state — rollover count and
// current landmark — after the tuple count. On restore the stamp both
// reinstates the supervisor and cross-checks the entries: every restored
// aggregate that reports its landmark must agree with the header, so a
// checkpoint whose header and aggregate frames diverge (hand-edited, or
// spliced across epochs) is refused rather than merged across landmarks.
//
// The trailing integrity hash makes corruption detection total: length
// prefixes and tags catch structural damage, but a flipped byte inside a
// float payload would otherwise decode into silently wrong state. Restore
// verifies the hash before looking at anything else.

// ckptMagic prefixes every checkpoint; the fourth byte is the version.
var ckptMagic = [4]byte{'F', 'D', 'C', 2}

// Tags for the builtin aggregator encodings.
const (
	tagCkptCount  byte = 0xB1
	tagCkptSum    byte = 0xB2
	tagCkptAvg    byte = 0xB3
	tagCkptMinMax byte = 0xB4
)

// CheckpointAggregator is the interface an aggregator must satisfy to
// participate in checkpoint/restore: the standard binary marshaling pair.
// All builtin aggregates implement it; UDAFs that wrap the agg/sketch
// summaries can delegate to those types' encodings.
type CheckpointAggregator interface {
	Aggregator
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// binaryAppender is the append form of MarshalBinary (the method set of Go
// 1.24's encoding.BinaryAppender): AppendBinary(b) must append exactly the
// bytes MarshalBinary returns. A checkpoint encodes an aggregator that has
// the method straight into its buffer instead of through a slice of the
// aggregator's own; all builtin aggregates do.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// Checkpointable reports whether every aggregate of the statement supports
// checkpointing, returning an error naming the first that does not.
func (s *Statement) Checkpointable() error { return checkpointable(s.p) }

func checkpointable(p *plan) error {
	for _, spec := range p.aggSpecs {
		if _, ok := spec.New().(CheckpointAggregator); !ok {
			return fmt.Errorf("gsql: aggregate %s does not support checkpointing (missing MarshalBinary/UnmarshalBinary)", spec.Name)
		}
	}
	return nil
}

// fingerprint identifies the (statement, schema) pair a checkpoint belongs
// to, so a checkpoint cannot be restored into a different query.
func fingerprint(text, schemaName string) uint64 {
	return core.Hash2(core.HashString(text), core.HashString(schemaName))
}

// unsealCkpt verifies and strips the integrity hash. Any corruption —
// a flipped byte anywhere in the body or the hash itself, or a truncated
// file — fails here, before any field is interpreted.
func unsealCkpt(b []byte) ([]byte, error) {
	body, ok := codec.Unseal(b)
	if !ok {
		return nil, fmt.Errorf("gsql: checkpoint failed integrity check (corrupt or truncated)")
	}
	return body, nil
}

func appendCkptValue(b []byte, v Value) []byte {
	b = append(b, byte(v.T))
	switch v.T {
	case TInt, TBool:
		b = codec.AppendU64(b, uint64(v.I))
	case TFloat:
		b = codec.AppendF64(b, v.F)
	case TString:
		b = codec.AppendBytes64(b, v.S)
	}
	return b
}

func readCkptValue(d *codec.Dec) Value {
	switch t := Type(d.U8()); t {
	case TNull:
		return Null
	case TInt, TBool:
		return Value{T: t, I: int64(d.U64())}
	case TFloat:
		return Float(d.F64())
	case TString:
		return Str(string(d.Bytes64()))
	default:
		d.Failf("unknown value tag 0x%02x", byte(t))
		return Null
	}
}

// appendFlags appends two booleans as the low bits of one byte.
func appendFlags(b []byte, bit0, bit1 bool) []byte {
	var f byte
	if bit0 {
		f |= 1
	}
	if bit1 {
		f |= 2
	}
	return append(b, f)
}

func readFlags(d *codec.Dec) (bit0, bit1 bool) {
	f := d.U8()
	if f > 3 {
		d.Failf("flag bits 0x%02x", f)
	}
	return f&1 != 0, f&2 != 0
}

// --- group entries -----------------------------------------------------

// appendGroupEntry serializes one partial group (its group values and each
// aggregate slot's partial state, aggs).
func appendGroupEntry(b []byte, p *plan, g *group, aggs []Aggregator) ([]byte, error) {
	for i := range p.vec.groups {
		b = appendCkptValue(b, g.value(i, p.keyTypes))
	}
	for i, a := range aggs {
		if ap, ok := a.(binaryAppender); ok {
			at := len(b)
			b = codec.AppendU64(b, 0) // length, known once the state is appended
			var err error
			if b, err = ap.AppendBinary(b); err != nil {
				return nil, err
			}
			codec.PutU64(b[at:], uint64(len(b)-at-8))
			continue
		}
		m, ok := a.(encoding.BinaryMarshaler)
		if !ok {
			return nil, fmt.Errorf("gsql: aggregate %s does not support checkpointing", p.aggSpecs[i].Name)
		}
		ab, err := m.MarshalBinary()
		if err != nil {
			return nil, err
		}
		b = codec.AppendBytes64(b, ab)
	}
	return b, nil
}

// readGroupEntry decodes one partial group, instantiating fresh
// aggregators from the plan and loading their serialized partials.
func readGroupEntry(d *codec.Dec, p *plan) *group {
	gv := make(Tuple, len(p.vec.groups))
	for i := range gv {
		gv[i] = readCkptValue(d)
	}
	aggs := newAggs(p)
	for i, a := range aggs {
		ab := d.Bytes64()
		if u, ok := a.(encoding.BinaryUnmarshaler); !ok {
			d.Failf("aggregate %s does not support checkpointing", p.aggSpecs[i].Name)
		} else if err := u.UnmarshalBinary(ab); err != nil {
			d.Failf("aggregate %s: %w", p.aggSpecs[i].Name, err)
		}
	}
	return &group{gv: gv, aggs: aggs}
}

// --- header ------------------------------------------------------------

// ckptHeader is the decoded checkpoint preamble.
type ckptHeader struct {
	bucketSet bool
	bucket    Value
	tuples    uint64
	epochSet  bool
	epoch     uint64
	landmark  float64
}

// appendCkptHeader writes the checkpoint preamble shared by the serial and
// sharded paths; ep (nil when the run has no epoch supervisor) stamps the
// rollover count and current landmark.
func appendCkptHeader(b []byte, p *plan, bucketSet bool, bucket Value, tuples uint64, ep *epochState) []byte {
	b = codec.AppendU64(append(b, ckptMagic[:]...), p.fp)
	b = codec.AppendU64(b, uint64(len(p.vec.groups)))
	b = codec.AppendBool(codec.AppendU64(b, uint64(len(p.aggSpecs))), bucketSet)
	if bucketSet {
		b = appendCkptValue(b, bucket)
	}
	b = codec.AppendBool(codec.AppendU64(b, tuples), ep != nil)
	if ep != nil {
		b = codec.AppendF64(codec.AppendU64(b, ep.epoch), ep.model.Landmark)
	}
	return b
}

// readCkptHeader reads the preamble, validating it against the restoring
// plan.
func readCkptHeader(d *codec.Dec, p *plan) (h ckptHeader) {
	switch magic := d.Bytes(4); {
	case len(magic) < 4: // truncated: d has failed already
	case string(magic[:3]) != string(ckptMagic[:3]):
		d.Failf("not a checkpoint (bad magic)")
	case magic[3] != ckptMagic[3]:
		d.Failf("unsupported checkpoint version %d", magic[3])
	}
	if d.U64() != p.fp {
		d.Failf("taken by a different statement or schema")
	}
	if ng, na := d.U64(), d.U64(); ng != uint64(len(p.vec.groups)) || na != uint64(len(p.aggSpecs)) {
		d.Failf("shape (%d groups, %d aggregates) does not match plan (%d, %d)",
			ng, na, len(p.vec.groups), len(p.aggSpecs))
	}
	if h.bucketSet = d.Bool(); h.bucketSet {
		h.bucket = readCkptValue(d)
	}
	h.tuples = d.U64()
	if h.epochSet = d.Bool(); h.epochSet {
		h.epoch, h.landmark = d.U64(), d.F64()
		if math.IsNaN(h.landmark) || math.IsInf(h.landmark, 0) {
			d.Failf("stamps non-finite landmark %v", h.landmark)
		}
	}
	return h
}

// readCkpt decodes a verified checkpoint body for p: the header, then every
// partial group, handed to add with the bytes it was decoded from.
func readCkpt(body []byte, p *plan, add func(g *group, raw []byte) error) (ckptHeader, error) {
	d := codec.NewDec(body, "gsql: checkpoint")
	h := readCkptHeader(&d, p)
	// Each entry carries at least one tag byte per group value and one
	// length prefix per aggregate slot.
	for range d.Count(d.U64(), len(p.vec.groups)+8*len(p.aggSpecs)) {
		at := d.Off()
		g := readGroupEntry(&d, p)
		if err := d.Err(); err != nil {
			return h, err
		}
		if err := verifyLandmark(g.aggs, h.epochSet, h.landmark); err != nil {
			return h, err
		}
		if err := add(g, body[at:d.Off()]); err != nil {
			return h, err
		}
	}
	return h, d.Done()
}

// --- serial Run --------------------------------------------------------

// Checkpoint serializes the run's full state — open window bucket and
// every partial group in the two-level tables — without disturbing the
// run; pushing may continue afterwards. It fails if any aggregate does not
// support checkpointing (Statement.Checkpointable).
//
// Group entries are written in canonical (key-sorted) order, so two runs
// holding identical state produce identical checkpoint bytes regardless of
// where their groups live (high map vs low slots, insertion history). The
// multi-query differential suite relies on that to compare a shared-runtime
// member against its standalone twin bit-for-bit.
func (r *Run) Checkpoint() ([]byte, error) {
	if err := checkpointable(r.p); err != nil {
		return nil, err
	}
	// Every entry is encoded back to back into one scratch buffer the run
	// keeps, and the spans index is what gets sorted.
	buf, spans := r.ckBuf[:0], r.ckSpans[:0]
	err := r.tab.eachGroup(func(g *group) (err error) {
		at := len(buf)
		if buf, err = appendGroupEntry(buf, r.p, g, r.aggsOf(g)); err != nil {
			return err
		}
		spans = append(spans, ckSpan{at, len(buf)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.ckBuf, r.ckSpans = buf, spans
	// Sorting the serialized entries (group values encode first, so this is
	// key order with the aggregate payload as tie-break) makes the order
	// independent of map iteration and of which table a partial lives in —
	// equal state, equal bytes, even when an evicted partial and a reborn
	// low slot share a group key.
	slices.SortFunc(spans, func(a, b ckSpan) int { return bytes.Compare(buf[a.lo:a.hi], buf[b.lo:b.hi]) })
	// The result is the caller's to keep, so it is a buffer of its own —
	// sized once: header, count, entries, integrity hash.
	var hdrBuf [64]byte // fits the header of any numeric bucket value
	hdr := appendCkptHeader(hdrBuf[:0], r.p, r.tab.bucketSet, r.tab.bucket, r.tuples, r.ep)
	b := make([]byte, 0, len(hdr)+8+len(buf)+8)
	b = codec.AppendU64(append(b, hdr...), uint64(len(spans)))
	for _, sp := range spans {
		b = append(b, buf[sp.lo:sp.hi]...)
	}
	r.checkpoints++
	return codec.Seal(b), nil
}

// ckSpan locates one encoded group entry in Run.ckBuf.
type ckSpan struct{ lo, hi int }

// Restore resumes a run from a checkpoint taken by Run.Checkpoint or
// ParallelRun.Checkpoint on the same statement: the open window bucket and
// all partial groups are reinstated, and pushing the remainder of the
// stream yields the same results as an uninterrupted run (exact for the
// builtin aggregates; within documented error bounds for sketch UDAFs,
// whose merges are approximate). Corrupt input returns an error and never
// a partial run.
func (s *Statement) Restore(ckpt []byte, sink func(Tuple) error, opts Options) (*Run, error) {
	body, err := unsealCkpt(ckpt)
	if err != nil {
		return nil, err
	}
	r := newRun(s.p, sink, opts)
	if r.epErr != nil {
		return nil, r.epErr
	}
	t := r.tab
	h, err := readCkpt(body, s.p, func(g *group, _ []byte) error {
		g.hash = t.keyOf(&g.key, g.gv)
		if dst := t.highGet(g.hash, &g.key); dst != nil {
			return mergeAggs(r.aggsOf(dst), g.aggs)
		}
		if t.words {
			g.gv = nil // the words carry the values
		}
		g.id, t.ids = t.ids, t.ids+1
		r.aggs = append(r.aggs, g.aggs...)
		g.aggs = nil
		t.highPut(g)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.bucketSet, t.bucket, r.tuples = h.bucketSet, h.bucket, h.tuples
	if h.epochSet {
		// Groups born after the restore must join the stamped frame, not the
		// factories' baseline landmark.
		t.curL, t.landmarkSet = h.landmark, true
		if r.ep != nil {
			r.ep.restoreFrom(h.epoch, h.landmark)
		}
	}
	r.restores++
	return r, nil
}

// --- builtin aggregator encodings --------------------------------------

func (c *countAgg) MarshalBinary() ([]byte, error) { return c.AppendBinary(nil) }

func (c *countAgg) AppendBinary(b []byte) ([]byte, error) {
	return codec.AppendU64(append(b, tagCkptCount), uint64(c.n)), nil
}

func (c *countAgg) UnmarshalBinary(b []byte) error {
	d := codec.NewDec(b, "gsql: count")
	d.Tag(tagCkptCount)
	n := int64(d.U64())
	if err := d.Done(); err != nil {
		return err
	}
	c.n = n
	return nil
}

func (s *sumAgg) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

func (s *sumAgg) AppendBinary(b []byte) ([]byte, error) {
	b = codec.AppendU64(appendFlags(append(b, tagCkptSum), s.isFloat, s.seen), uint64(s.i))
	return codec.AppendF64(b, s.f), nil
}

func (s *sumAgg) UnmarshalBinary(b []byte) error {
	d := codec.NewDec(b, "gsql: sum")
	d.Tag(tagCkptSum)
	isFloat, seen := readFlags(&d)
	i, f := int64(d.U64()), d.F64()
	if err := d.Done(); err != nil {
		return err
	}
	s.isFloat, s.seen, s.i, s.f = isFloat, seen, i, f
	return nil
}

func (a *avgAgg) MarshalBinary() ([]byte, error) { return a.AppendBinary(nil) }

func (a *avgAgg) AppendBinary(b []byte) ([]byte, error) {
	return codec.AppendU64(codec.AppendF64(append(b, tagCkptAvg), a.sum), uint64(a.n)), nil
}

func (a *avgAgg) UnmarshalBinary(b []byte) error {
	d := codec.NewDec(b, "gsql: avg")
	d.Tag(tagCkptAvg)
	sum, n := d.F64(), int64(d.U64())
	if err := d.Done(); err != nil {
		return err
	}
	a.sum, a.n = sum, n
	return nil
}

func (m *minmaxAgg) MarshalBinary() ([]byte, error) { return m.AppendBinary(nil) }

func (m *minmaxAgg) AppendBinary(b []byte) ([]byte, error) {
	return appendCkptValue(appendFlags(append(b, tagCkptMinMax), m.min, m.seen), m.best), nil
}

func (m *minmaxAgg) UnmarshalBinary(b []byte) error {
	d := codec.NewDec(b, "gsql: min/max")
	d.Tag(tagCkptMinMax)
	isMin, seen := readFlags(&d)
	best := readCkptValue(&d)
	if err := d.Done(); err != nil {
		return err
	}
	m.min, m.seen, m.best = isMin, seen, best
	return nil
}
