package agg

import (
	"forwarddecay/decay"
	"forwarddecay/internal/codec"
	"forwarddecay/internal/core"
	"forwarddecay/sketch"
)

// Binary encodings for the distributed-mergeable aggregates: a site
// serializes its partial aggregate, ships it, and the coordinator
// unmarshals and merges (§VI-B of the paper). Encodings carry the decay
// model (in its textual form) so that mismatched models are caught at
// decode/merge time.

const (
	tagCounter       byte = 0x61
	tagSum           byte = 0x62
	tagHeavyHitters  byte = 0x63
	tagQuantiles     byte = 0x64
	tagMax           byte = 0x65
	tagMin           byte = 0x66
	tagDistinctExact byte = 0x67
)

// appendHead starts an encoding: the tag, then the model's text encoding,
// length-prefixed.
func appendHead(tag byte, m decay.Forward) ([]byte, error) {
	mt, err := m.MarshalText()
	if err != nil {
		return nil, err
	}
	return codec.AppendBytes64([]byte{tag}, mt), nil
}

// openDec starts decoding what appendHead started: it checks the tag and
// reads the model.
func openDec(b []byte, tag byte) (codec.Dec, decay.Forward) {
	d := codec.NewDec(b, "agg")
	d.Tag(tag)
	n := d.U64()
	if n > 4096 {
		d.Failf("implausible model encoding of %d bytes", n)
	}
	var m decay.Forward
	if err := m.UnmarshalText(d.Bytes(n)); err != nil {
		d.Failf("%w", err)
	}
	return d, m
}

// appendScaled appends a scaled sum's full state: emptiness, raw sum, Kahan
// compensation and log scale. Carrying the compensation keeps a restored
// accumulator bit-identical to the saved one, which the crash-restore and
// epoch-rollover equivalence suites rely on.
func appendScaled(b []byte, s *core.ScaledSum) []byte {
	sum, comp, scale, nonEmpty := s.State()
	b = codec.AppendBool(b, !nonEmpty)
	return codec.AppendF64(codec.AppendF64(codec.AppendF64(b, sum), comp), scale)
}

// readScaled reads what appendScaled appended.
func readScaled(d *codec.Dec) (s core.ScaledSum) {
	empty := d.Bool()
	sum, comp, scale := d.F64(), d.F64(), d.F64()
	s.Restore(sum, comp, scale, !empty)
	return s
}

// MarshalBinary encodes the counter with its decay model.
func (c *Counter) MarshalBinary() ([]byte, error) {
	b, err := appendHead(tagCounter, c.model)
	if err != nil {
		return nil, err
	}
	return codec.AppendU64(appendScaled(b, &c.c), c.n), nil
}

// UnmarshalBinary decodes a counter produced by MarshalBinary.
func (c *Counter) UnmarshalBinary(b []byte) error {
	d, m := openDec(b, tagCounter)
	s, n := readScaled(&d), d.U64()
	if err := d.Done(); err != nil {
		return err
	}
	c.model, c.c, c.n = m, s, n
	return nil
}

// MarshalBinary encodes the aggregate with its decay model.
func (s *Sum) MarshalBinary() ([]byte, error) {
	b, err := appendHead(tagSum, s.model)
	if err != nil {
		return nil, err
	}
	b = appendScaled(appendScaled(appendScaled(b, &s.c), &s.s), &s.s2)
	return codec.AppendU64(b, s.n), nil
}

// UnmarshalBinary decodes an aggregate produced by MarshalBinary.
func (s *Sum) UnmarshalBinary(b []byte) error {
	d, m := openDec(b, tagSum)
	c, sv, s2, n := readScaled(&d), readScaled(&d), readScaled(&d), d.U64()
	if err := d.Done(); err != nil {
		return err
	}
	s.model, s.c, s.s, s.s2, s.n = m, c, sv, s2, n
	return nil
}

// MarshalBinary encodes the summary with its decay model and log scale.
func (h *HeavyHitters) MarshalBinary() ([]byte, error) {
	b, err := appendHead(tagHeavyHitters, h.model)
	if err != nil {
		return nil, err
	}
	sb, err := h.ss.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return append(codec.AppendF64(codec.AppendBool(b, h.started), h.logScale), sb...), nil
}

// UnmarshalBinary decodes a summary produced by MarshalBinary.
func (h *HeavyHitters) UnmarshalBinary(b []byte) error {
	d, m := openDec(b, tagHeavyHitters)
	started, logScale := d.Bool(), d.F64()
	ss := &sketch.SpaceSaving{}
	d.Unmarshal(ss, d.Rest())
	if err := d.Done(); err != nil {
		return err
	}
	h.model, h.started, h.logScale, h.ss = m, started, logScale, ss
	return nil
}

// marshalExtreme encodes an extreme tracker under the given tag.
func marshalExtreme(tag byte, e *extreme) ([]byte, error) {
	b, err := appendHead(tag, e.model)
	if err != nil {
		return nil, err
	}
	b = codec.AppendF64(codec.AppendBool(b, e.set), e.ti)
	return codec.AppendF64(codec.AppendF64(b, e.v), e.lw), nil
}

// unmarshalExtreme decodes an extreme tracker, checking the tag.
func unmarshalExtreme(tag byte, b []byte, isMax bool) (extreme, error) {
	d, m := openDec(b, tag)
	e := extreme{model: m, max: isMax, set: d.Bool(), ti: d.F64(), v: d.F64(), lw: d.F64()}
	return e, d.Done()
}

// MarshalBinary encodes the aggregate with its decay model.
func (m *Max) MarshalBinary() ([]byte, error) { return marshalExtreme(tagMax, &m.e) }

// UnmarshalBinary decodes an aggregate produced by MarshalBinary.
func (m *Max) UnmarshalBinary(b []byte) error {
	e, err := unmarshalExtreme(tagMax, b, true)
	if err != nil {
		return err
	}
	m.e = e
	return nil
}

// MarshalBinary encodes the aggregate with its decay model.
func (m *Min) MarshalBinary() ([]byte, error) { return marshalExtreme(tagMin, &m.e) }

// UnmarshalBinary decodes an aggregate produced by MarshalBinary.
func (m *Min) UnmarshalBinary(b []byte) error {
	e, err := unmarshalExtreme(tagMin, b, false)
	if err != nil {
		return err
	}
	m.e = e
	return nil
}

// MarshalBinary encodes the exact distinct counter with its decay model.
func (d *DistinctExact) MarshalBinary() ([]byte, error) {
	b, err := appendHead(tagDistinctExact, d.model)
	if err != nil {
		return nil, err
	}
	b = codec.AppendU64(b, uint64(len(d.maxLW)))
	// Encode in key order so identical state always produces identical
	// bytes (checkpoint comparisons depend on it).
	for _, k := range sortedKeys(d.maxLW) {
		b = codec.AppendF64(codec.AppendU64(b, k), d.maxLW[k])
	}
	return b, nil
}

// UnmarshalBinary decodes a counter produced by MarshalBinary.
func (d *DistinctExact) UnmarshalBinary(b []byte) error {
	r, m := openDec(b, tagDistinctExact)
	count := r.Count(r.U64(), 16)
	maxLW := make(map[uint64]float64, count)
	for range count {
		k := r.U64()
		maxLW[k] = r.F64()
	}
	if err := r.Done(); err != nil {
		return err
	}
	d.model, d.maxLW = m, maxLW
	return nil
}

// MarshalBinary encodes the summary with its decay model and log scale.
func (q *Quantiles) MarshalBinary() ([]byte, error) {
	b, err := appendHead(tagQuantiles, q.model)
	if err != nil {
		return nil, err
	}
	qb, err := q.qd.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return append(codec.AppendF64(codec.AppendBool(b, q.started), q.logScale), qb...), nil
}

// UnmarshalBinary decodes a summary produced by MarshalBinary.
func (q *Quantiles) UnmarshalBinary(b []byte) error {
	d, m := openDec(b, tagQuantiles)
	started, logScale := d.Bool(), d.F64()
	qd := &sketch.QDigest{}
	d.Unmarshal(qd, d.Rest())
	if err := d.Done(); err != nil {
		return err
	}
	q.model, q.started, q.logScale, q.qd = m, started, logScale, qd
	return nil
}
