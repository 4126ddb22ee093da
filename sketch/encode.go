package sketch

import (
	"cmp"
	"math"
	"slices"

	"forwarddecay/internal/codec"
)

// Binary encodings for the mergeable summaries, used when shipping partial
// state between distributed sites (§VI-B of the paper). All encodings are
// little-endian, versioned with a one-byte tag, and round-trip exactly.

const (
	tagSpaceSaving byte = 0x51
	tagQDigest     byte = 0x52
	tagKMV         byte = 0x53
	tagMisraGries  byte = 0x54
	tagDominance   byte = 0x55
)

// MarshalBinary encodes the summary.
func (s *SpaceSaving) MarshalBinary() ([]byte, error) {
	b := codec.AppendU64([]byte{tagSpaceSaving}, uint64(s.k))
	b = codec.AppendF64(b, s.total)
	b = codec.AppendU64(b, uint64(len(s.entries)))
	for _, en := range s.entries {
		b = codec.AppendU64(b, en.key)
		b = codec.AppendF64(b, en.count)
		b = codec.AppendF64(b, en.err)
	}
	return b, nil
}

// UnmarshalBinary decodes a summary produced by MarshalBinary, replacing
// the receiver's state.
func (s *SpaceSaving) UnmarshalBinary(b []byte) error {
	d := codec.NewDec(b, "sketch")
	d.Tag(tagSpaceSaving)
	k := d.U64()
	if k == 0 || k > 1<<30 {
		d.Failf("implausible SpaceSaving k %d", k)
	}
	total, n := d.F64(), d.U64()
	if n > k {
		d.Failf("SpaceSaving encoding has %d entries for k=%d", n, k)
	}
	entries := make([]ssEntry, d.Count(n, 24))
	for i := range entries {
		entries[i] = ssEntry{key: d.U64(), count: d.F64(), err: d.F64()}
		// The eviction window orders counts; a NaN or infinite one has no
		// place in it.
		if c := entries[i].count; math.IsNaN(c) || math.IsInf(c, 0) {
			d.Failf("SpaceSaving count %v is not finite", c)
		}
	}
	if err := d.Done(); err != nil {
		return err
	}
	s.k, s.total, s.entries = int(k), total, entries
	s.rebuildIndex()
	return nil
}

// MarshalBinary encodes the digest (compressing first).
func (q *QDigest) MarshalBinary() ([]byte, error) {
	q.Compress()
	b := codec.AppendU64([]byte{tagQDigest}, uint64(q.logU))
	b = codec.AppendU64(b, uint64(q.k))
	b = codec.AppendF64(b, q.total)
	b = codec.AppendU64(b, uint64(len(q.nodes)))
	ids := make([]uint64, 0, len(q.nodes))
	for id := range q.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids) // not Go's map order: equal digests encode alike
	for _, id := range ids {
		b = codec.AppendU64(b, id)
		b = codec.AppendF64(b, q.nodes[id])
	}
	return b, nil
}

// UnmarshalBinary decodes a digest produced by MarshalBinary.
func (q *QDigest) UnmarshalBinary(b []byte) error {
	d := codec.NewDec(b, "sketch")
	d.Tag(tagQDigest)
	logU := d.U64()
	if logU == 0 || logU > 63 {
		d.Failf("implausible QDigest domain 2^%d", logU)
	}
	k, total, n := d.U64(), d.F64(), d.U64()
	if n > 1<<28 {
		d.Failf("implausible QDigest node count %d", n)
	}
	count := d.Count(n, 16)
	nodes := make(map[uint64]float64, count)
	maxID := uint64(2) << logU
	for range count {
		id, w := d.U64(), d.F64()
		if id == 0 || id >= maxID {
			d.Failf("QDigest node id %d out of range", id)
		}
		nodes[id] = w
	}
	if err := d.Done(); err != nil {
		return err
	}
	q.logU, q.k, q.total, q.dirty, q.nodes = uint(logU), int(k), total, 0, nodes
	return nil
}

// MarshalBinary encodes the sketch.
func (s *KMV) MarshalBinary() ([]byte, error) {
	b := codec.AppendU64([]byte{tagKMV}, uint64(s.k))
	b = codec.AppendU64(b, uint64(len(s.h)))
	for _, h := range s.h {
		b = codec.AppendU64(b, h)
	}
	return b, nil
}

// UnmarshalBinary decodes a sketch produced by MarshalBinary.
func (s *KMV) UnmarshalBinary(b []byte) error {
	d := codec.NewDec(b, "sketch")
	d.Tag(tagKMV)
	k := d.U64()
	if k == 0 || k > 1<<30 {
		d.Failf("implausible KMV k %d", k)
	}
	n := d.U64()
	if n > k {
		d.Failf("KMV encoding holds %d hashes for k=%d", n, k)
	}
	count := d.Count(n, 8)
	fresh := &KMV{k: int(k), mem: make(map[uint64]struct{}, count)}
	for range count {
		fresh.InsertHash(d.U64())
	}
	if err := d.Done(); err != nil {
		return err
	}
	*s = *fresh
	return nil
}

// MarshalBinary encodes the summary, counters in ascending key order so
// that equal summaries encode alike.
func (m *MisraGries) MarshalBinary() ([]byte, error) {
	b := codec.AppendU64([]byte{tagMisraGries}, uint64(m.k))
	b = codec.AppendF64(b, m.total)
	b = codec.AppendU64(b, uint64(len(m.keys)))
	order := make([]int32, len(m.keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int { return cmp.Compare(m.keys[i], m.keys[j]) })
	for _, i := range order {
		b = codec.AppendU64(b, m.keys[i])
		b = codec.AppendF64(b, m.counts[i])
	}
	return b, nil
}

// UnmarshalBinary decodes a summary produced by MarshalBinary. It accepts
// only what MarshalBinary writes: strictly ascending keys, finite positive
// counts and a finite total.
func (m *MisraGries) UnmarshalBinary(b []byte) error {
	d := codec.NewDec(b, "sketch")
	d.Tag(tagMisraGries)
	k := d.U64()
	if k == 0 || k > 1<<30 {
		d.Failf("implausible MisraGries k %d", k)
	}
	total, n := d.F64(), d.U64()
	if math.IsNaN(total) || math.IsInf(total, 0) {
		d.Failf("MisraGries total %v is not finite", total)
	}
	if n > k {
		d.Failf("MisraGries encoding has %d counters for k=%d", n, k)
	}
	count := d.Count(n, 16)
	keys, counts := make([]uint64, count), make([]float64, count)
	for i := range count {
		keys[i], counts[i] = d.U64(), d.F64()
		if i > 0 && keys[i] <= keys[i-1] {
			d.Failf("MisraGries keys out of order at counter %d", i)
		}
		// A counter is a positive remainder: Update and Merge drop the
		// ones they exhaust.
		if c := counts[i]; !(c > 0) || math.IsInf(c, 0) {
			d.Failf("MisraGries count %v is not finite and positive", c)
		}
	}
	if err := d.Done(); err != nil {
		return err
	}
	m.k, m.total, m.keys, m.counts = int(k), total, keys, counts
	m.idx.init(len(keys)) // sized from the counters present, never from k
	m.reindex()
	return nil
}

// MarshalBinary encodes the estimator.
func (d *Dominance) MarshalBinary() ([]byte, error) {
	b := codec.AppendF64([]byte{tagDominance}, d.logBase)
	b = codec.AppendU64(b, uint64(d.k))
	b = codec.AppendU64(b, uint64(d.maxLevels))
	b = codec.AppendF64(b, d.logShift)
	b = codec.AppendBool(b, !d.empty)
	if d.empty {
		return b, nil
	}
	b = codec.AppendU64(b, uint64(d.lo))
	b = codec.AppendU64(b, uint64(d.hi))
	b = codec.AppendU64(b, uint64(len(d.levels)))
	for l := d.lo; l <= d.hi; l++ { // every level lies in [lo, hi]
		kmv, ok := d.levels[l]
		if !ok {
			continue
		}
		kb, err := kmv.MarshalBinary()
		if err != nil {
			return nil, err
		}
		b = codec.AppendBytes64(codec.AppendU64(b, uint64(l)), kb)
	}
	return b, nil
}

// UnmarshalBinary decodes an estimator produced by MarshalBinary.
func (d *Dominance) UnmarshalBinary(b []byte) error {
	r := codec.NewDec(b, "sketch")
	r.Tag(tagDominance)
	logBase := r.F64()
	if !(logBase > 0) {
		r.Failf("implausible Dominance base")
	}
	k, maxLevels := r.U64(), r.U64()
	if k < 3 || maxLevels < 2 || k > 1<<30 || maxLevels > 1<<24 {
		r.Failf("implausible Dominance parameters")
	}
	logShift := r.F64()
	if math.IsNaN(logShift) || math.IsInf(logShift, 0) {
		r.Failf("non-finite Dominance frame offset")
	}
	out := &Dominance{logBase: logBase, k: int(k), maxLevels: int(maxLevels),
		levels: make(map[int]*KMV), empty: true, logShift: logShift}
	if r.Bool() {
		lo, hi, n := int64(r.U64()), int64(r.U64()), r.U64()
		// Update prunes so that hi-lo+1 ≤ maxLevels; a forged wider span
		// would make the LogEstimate level scan run for ~2^63 iterations.
		// uint64(hi-lo) is the span even where the int64 difference wraps.
		if hi < lo || uint64(hi-lo) >= maxLevels || n > maxLevels {
			r.Failf("inconsistent Dominance encoding")
		}
		out.lo, out.hi, out.empty = int(lo), int(hi), false
		for range r.Count(n, 16) {
			l := int64(r.U64())
			if l < lo || l > hi {
				r.Failf("Dominance level %d out of range", l)
			}
			kmv := &KMV{}
			r.Unmarshal(kmv, r.Bytes64())
			out.levels[int(l)] = kmv
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	*d = *out
	return nil
}
