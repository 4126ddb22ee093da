package gsql

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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

// --- primitive encoding helpers ---------------------------------------

func ckU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// sealCkpt appends the integrity hash over the assembled checkpoint body.
func sealCkpt(b []byte) []byte { return ckU64(b, core.HashBytes(b)) }

// unsealCkpt verifies and strips the integrity hash. Any corruption —
// a flipped byte anywhere in the body or the hash itself, or a truncated
// file — fails here, before any field is interpreted.
func unsealCkpt(b []byte) ([]byte, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("gsql: not a checkpoint (too short)")
	}
	body := b[:len(b)-8]
	if core.HashBytes(body) != binary.LittleEndian.Uint64(b[len(b)-8:]) {
		return nil, fmt.Errorf("gsql: checkpoint failed integrity check (corrupt or truncated)")
	}
	return body, nil
}

func appendCkptValue(b []byte, v Value) []byte {
	b = append(b, byte(v.T))
	switch v.T {
	case TInt, TBool:
		b = ckU64(b, uint64(v.I))
	case TFloat:
		b = ckU64(b, math.Float64bits(v.F))
	case TString:
		b = ckU64(b, uint64(len(v.S)))
		b = append(b, v.S...)
	}
	return b
}

// ckptDec is a consuming reader over checkpoint bytes; every read method
// hard-errors on truncation.
type ckptDec struct{ b []byte }

var errCkptTruncated = fmt.Errorf("gsql: truncated checkpoint")

func (d *ckptDec) u8() (byte, error) {
	if len(d.b) < 1 {
		return 0, errCkptTruncated
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *ckptDec) u64() (uint64, error) {
	if len(d.b) < 8 {
		return 0, errCkptTruncated
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v, nil
}

// bytesField consumes a u64 length prefix and that many bytes, bounding
// the length by the remaining input so corrupt prefixes cannot trigger
// over-allocation.
func (d *ckptDec) bytesField() ([]byte, error) {
	n, err := d.u64()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)) {
		return nil, fmt.Errorf("gsql: checkpoint field claims %d bytes but only %d remain", n, len(d.b))
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out, nil
}

func (d *ckptDec) value() (Value, error) {
	tag, err := d.u8()
	if err != nil {
		return Null, err
	}
	switch Type(tag) {
	case TNull:
		return Null, nil
	case TInt, TBool:
		u, err := d.u64()
		if err != nil {
			return Null, err
		}
		return Value{T: Type(tag), I: int64(u)}, nil
	case TFloat:
		u, err := d.u64()
		if err != nil {
			return Null, err
		}
		return Float(math.Float64frombits(u)), nil
	case TString:
		sb, err := d.bytesField()
		if err != nil {
			return Null, err
		}
		return Str(string(sb)), nil
	default:
		return Null, fmt.Errorf("gsql: checkpoint has unknown value tag 0x%02x", tag)
	}
}

// --- group entries -----------------------------------------------------

// appendGroupEntry serializes one partial group (its group values and each
// aggregate slot's partial state).
func appendGroupEntry(b []byte, p *plan, g *group) ([]byte, error) {
	for _, v := range g.gv {
		b = appendCkptValue(b, v)
	}
	for i, a := range g.aggs {
		if ap, ok := a.(binaryAppender); ok {
			at := len(b)
			b = ckU64(b, 0) // length, known once the state is appended
			var err error
			if b, err = ap.AppendBinary(b); err != nil {
				return nil, err
			}
			binary.LittleEndian.PutUint64(b[at:], uint64(len(b)-at-8))
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
		b = ckU64(b, uint64(len(ab)))
		b = append(b, ab...)
	}
	return b, nil
}

// readGroupEntry decodes one partial group, instantiating fresh
// aggregators from the plan and loading their serialized partials.
func readGroupEntry(d *ckptDec, p *plan) (*group, error) {
	gv := make(Tuple, len(p.groupFns))
	for i := range gv {
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		gv[i] = v
	}
	aggs := newAggs(p)
	for i, a := range aggs {
		ab, err := d.bytesField()
		if err != nil {
			return nil, err
		}
		u, ok := a.(encoding.BinaryUnmarshaler)
		if !ok {
			return nil, fmt.Errorf("gsql: aggregate %s does not support checkpointing", p.aggSpecs[i].Name)
		}
		if err := u.UnmarshalBinary(ab); err != nil {
			return nil, fmt.Errorf("gsql: checkpoint aggregate %s: %w", p.aggSpecs[i].Name, err)
		}
	}
	return &group{gv: gv, aggs: aggs}, nil
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
	b = append(b, ckptMagic[:]...)
	b = ckU64(b, p.fp)
	b = ckU64(b, uint64(len(p.groupFns)))
	b = ckU64(b, uint64(len(p.aggSpecs)))
	if bucketSet {
		b = append(b, 1)
		b = appendCkptValue(b, bucket)
	} else {
		b = append(b, 0)
	}
	b = ckU64(b, tuples)
	if ep != nil {
		b = append(b, 1)
		b = ckU64(b, ep.epoch)
		return ckU64(b, math.Float64bits(ep.model.Landmark))
	}
	return append(b, 0)
}

// readCkptHeader validates the preamble against the restoring plan.
func readCkptHeader(d *ckptDec, p *plan) (h ckptHeader, err error) {
	if len(d.b) < 4 || d.b[0] != ckptMagic[0] || d.b[1] != ckptMagic[1] || d.b[2] != ckptMagic[2] {
		return h, fmt.Errorf("gsql: not a checkpoint (bad magic)")
	}
	if d.b[3] != ckptMagic[3] {
		return h, fmt.Errorf("gsql: unsupported checkpoint version %d", d.b[3])
	}
	d.b = d.b[4:]
	fp, err := d.u64()
	if err != nil {
		return h, err
	}
	if fp != p.fp {
		return h, fmt.Errorf("gsql: checkpoint was taken by a different statement or schema")
	}
	ng, err := d.u64()
	if err != nil {
		return h, err
	}
	na, err := d.u64()
	if err != nil {
		return h, err
	}
	if ng != uint64(len(p.groupFns)) || na != uint64(len(p.aggSpecs)) {
		return h, fmt.Errorf("gsql: checkpoint shape (%d groups, %d aggregates) does not match plan (%d, %d)",
			ng, na, len(p.groupFns), len(p.aggSpecs))
	}
	bs, err := d.u8()
	if err != nil {
		return h, err
	}
	if bs > 1 {
		return h, fmt.Errorf("gsql: corrupt checkpoint bucket flag 0x%02x", bs)
	}
	if bs == 1 {
		if h.bucket, err = d.value(); err != nil {
			return h, err
		}
		h.bucketSet = true
	}
	if h.tuples, err = d.u64(); err != nil {
		return h, err
	}
	es, err := d.u8()
	if err != nil {
		return h, err
	}
	if es > 1 {
		return h, fmt.Errorf("gsql: corrupt checkpoint epoch flag 0x%02x", es)
	}
	if es == 1 {
		if h.epoch, err = d.u64(); err != nil {
			return h, err
		}
		lm, err := d.u64()
		if err != nil {
			return h, err
		}
		h.landmark = math.Float64frombits(lm)
		if math.IsNaN(h.landmark) || math.IsInf(h.landmark, 0) {
			return h, fmt.Errorf("gsql: checkpoint stamps non-finite landmark %v", h.landmark)
		}
		h.epochSet = true
	}
	return h, nil
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
	appendOne := func(g *group) (err error) {
		at := len(buf)
		if buf, err = appendGroupEntry(buf, r.p, g); err != nil {
			return err
		}
		spans = append(spans, ckSpan{at, len(buf)})
		return nil
	}
	for _, g := range r.high {
		for ; g != nil; g = g.next {
			if err := appendOne(g); err != nil {
				return nil, err
			}
		}
	}
	for _, i := range r.lowUsed {
		if s := &r.low[i]; s.used {
			if err := appendOne(s.g); err != nil {
				return nil, err
			}
		}
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
	hdr := appendCkptHeader(hdrBuf[:0], r.p, r.bucketSet, r.bucket, r.tuples, r.ep)
	b := make([]byte, 0, len(hdr)+8+len(buf)+8)
	b = append(b, hdr...)
	b = ckU64(b, uint64(len(spans)))
	for _, sp := range spans {
		b = append(b, buf[sp.lo:sp.hi]...)
	}
	r.checkpoints++
	return sealCkpt(b), nil
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
	d := &ckptDec{b: body}
	h, err := readCkptHeader(d, s.p)
	if err != nil {
		return nil, err
	}
	n, err := d.u64()
	if err != nil {
		return nil, err
	}
	// Each entry carries at least one length prefix per aggregate slot and
	// one tag byte per group value; bound the claimed count by that.
	if min := uint64(len(s.p.groupFns) + 8*len(s.p.aggSpecs)); min > 0 && n > uint64(len(d.b))/min {
		return nil, fmt.Errorf("gsql: checkpoint claims %d groups but only %d bytes remain", n, len(d.b))
	}
	var keyBuf []byte
	for i := uint64(0); i < n; i++ {
		g, err := readGroupEntry(d, s.p)
		if err != nil {
			return nil, err
		}
		if err := verifyLandmark(g.aggs, h.epochSet, h.landmark); err != nil {
			return nil, err
		}
		keyBuf = keyBuf[:0]
		for _, v := range g.gv {
			keyBuf = v.appendKey(keyBuf)
		}
		g.hash = core.HashBytes(keyBuf)
		if dst := r.highGet(g.hash, keyBuf); dst == nil {
			g.key = append([]byte(nil), keyBuf...)
			r.highPut(g)
		} else if err := mergeAggs(dst.aggs, g.aggs); err != nil {
			return nil, err
		}
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("gsql: %d trailing bytes in checkpoint", len(d.b))
	}
	r.bucketSet, r.bucket, r.tuples = h.bucketSet, h.bucket, h.tuples
	if h.epochSet {
		// Groups born after the restore must join the stamped frame, not the
		// factories' baseline landmark.
		r.curL, r.landmarkSet = h.landmark, true
		if r.ep != nil {
			r.ep.restoreFrom(h.epoch, h.landmark)
		}
	}
	r.restores++
	return r, nil
}

// RestoreStatement is a package-level convenience equivalent to
// s.Restore(ckpt, sink, opts).
func RestoreStatement(s *Statement, ckpt []byte, sink func(Tuple) error, opts Options) (*Run, error) {
	return s.Restore(ckpt, sink, opts)
}

// --- builtin aggregator encodings --------------------------------------

func (c *countAgg) MarshalBinary() ([]byte, error) { return c.AppendBinary(nil) }

func (c *countAgg) AppendBinary(b []byte) ([]byte, error) {
	return ckU64(append(b, tagCkptCount), uint64(c.n)), nil
}

func (c *countAgg) UnmarshalBinary(b []byte) error {
	if len(b) != 9 || b[0] != tagCkptCount {
		return fmt.Errorf("gsql: malformed count encoding")
	}
	c.n = int64(binary.LittleEndian.Uint64(b[1:]))
	return nil
}

func (s *sumAgg) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

func (s *sumAgg) AppendBinary(b []byte) ([]byte, error) {
	var flags byte
	if s.isFloat {
		flags |= 1
	}
	if s.seen {
		flags |= 2
	}
	b = append(b, tagCkptSum, flags)
	b = ckU64(b, uint64(s.i))
	return ckU64(b, math.Float64bits(s.f)), nil
}

func (s *sumAgg) UnmarshalBinary(b []byte) error {
	if len(b) != 18 || b[0] != tagCkptSum || b[1] > 3 {
		return fmt.Errorf("gsql: malformed sum encoding")
	}
	s.isFloat = b[1]&1 != 0
	s.seen = b[1]&2 != 0
	s.i = int64(binary.LittleEndian.Uint64(b[2:]))
	s.f = math.Float64frombits(binary.LittleEndian.Uint64(b[10:]))
	return nil
}

func (a *avgAgg) MarshalBinary() ([]byte, error) { return a.AppendBinary(nil) }

func (a *avgAgg) AppendBinary(b []byte) ([]byte, error) {
	b = ckU64(append(b, tagCkptAvg), math.Float64bits(a.sum))
	return ckU64(b, uint64(a.n)), nil
}

func (a *avgAgg) UnmarshalBinary(b []byte) error {
	if len(b) != 17 || b[0] != tagCkptAvg {
		return fmt.Errorf("gsql: malformed avg encoding")
	}
	a.sum = math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))
	a.n = int64(binary.LittleEndian.Uint64(b[9:]))
	return nil
}

func (m *minmaxAgg) MarshalBinary() ([]byte, error) { return m.AppendBinary(nil) }

func (m *minmaxAgg) AppendBinary(b []byte) ([]byte, error) {
	var flags byte
	if m.min {
		flags |= 1
	}
	if m.seen {
		flags |= 2
	}
	return appendCkptValue(append(b, tagCkptMinMax, flags), m.best), nil
}

func (m *minmaxAgg) UnmarshalBinary(b []byte) error {
	if len(b) < 2 || b[0] != tagCkptMinMax || b[1] > 3 {
		return fmt.Errorf("gsql: malformed min/max encoding")
	}
	d := &ckptDec{b: b[2:]}
	best, err := d.value()
	if err != nil {
		return err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("gsql: malformed min/max encoding")
	}
	m.min = b[1]&1 != 0
	m.seen = b[1]&2 != 0
	m.best = best
	return nil
}
