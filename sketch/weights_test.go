package sketch

import (
	"bytes"
	"encoding"
	"math"
	"testing"
)

// TestUpdateIgnoresNonFiniteWeights: a NaN or ±Inf weight changes no
// counter and no total, on a full summary as on a filling one.
func TestUpdateIgnoresNonFiniteWeights(t *testing.T) {
	type sketch interface {
		encoding.BinaryMarshaler
		Total() float64
	}
	for _, c := range []struct {
		name   string
		new    func() sketch
		update func(s sketch, key uint64, w float64)
	}{
		{"SpaceSaving", func() sketch { return NewSpaceSavingK(4) },
			func(s sketch, key uint64, w float64) { s.(*SpaceSaving).Update(key, w) }},
		{"MisraGries", func() sketch { return NewMisraGries(4) },
			func(s sketch, key uint64, w float64) { s.(*MisraGries).Update(key, w) }},
		{"QDigest", func() sketch { return NewQDigest(64, 0.1) },
			func(s sketch, key uint64, w float64) { s.(*QDigest).Update(key, w) }},
	} {
		for _, fill := range []int{2, 40} { // filling, and past k counters
			s := c.new()
			for i := 0; i < fill; i++ {
				c.update(s, uint64(i%9), float64(1+i%5))
			}
			before, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			total := s.Total()
			for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				c.update(s, 3, w)
				c.update(s, 99, w)
			}
			after, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if s.Total() != total || !bytes.Equal(after, before) {
				t.Errorf("%s after %d updates: non-finite weights moved the summary (total %v → %v)", c.name, fill, total, s.Total())
			}
		}
	}
}
