package agg_test

import (
	"encoding"
	"testing"

	"forwarddecay/agg"
	"forwarddecay/decay"
	"forwarddecay/internal/codec/codectest"
)

func fuzzModel() decay.Forward { return decay.NewForward(decay.NewPoly(2), 0) }

// aggDecoders returns a fresh instance of every aggregate with a binary
// codec, keyed by name.
func aggDecoders() map[string]encoding.BinaryUnmarshaler {
	m := fuzzModel()
	return map[string]encoding.BinaryUnmarshaler{
		"counter":       agg.NewCounter(m),
		"sum":           agg.NewSum(m),
		"heavyhitters":  agg.NewHeavyHittersK(m, 16),
		"max":           agg.NewMax(m),
		"min":           agg.NewMin(m),
		"distinctexact": agg.NewDistinctExact(m),
		"quantiles":     agg.NewQuantiles(m, 1024, 0.05),
	}
}

// FuzzAggDecode drives every aggregate decoder with arbitrary bytes:
// malformed input must error, never panic, and never trust a forged length
// field for its allocation size. Accepted input must leave a readable
// aggregate.
func FuzzAggDecode(f *testing.F) {
	f.Add([]byte{})
	// Seed with valid encodings of populated aggregates.
	m := fuzzModel()
	seeds := []encoding.BinaryMarshaler{}
	c := agg.NewCounter(m)
	s := agg.NewSum(m)
	h := agg.NewHeavyHittersK(m, 16)
	mx := agg.NewMax(m)
	mn := agg.NewMin(m)
	d := agg.NewDistinctExact(m)
	q := agg.NewQuantiles(m, 1024, 0.05)
	for i := 0; i < 200; i++ {
		ts := float64(i % 50)
		c.Observe(ts)
		s.Observe(ts, float64(i%7))
		h.Observe(uint64(i%23), ts)
		mx.Observe(ts, float64(i%97))
		mn.Observe(ts, float64(i%89))
		d.Observe(uint64(i%31), ts)
		q.Observe(uint64(i%61), ts)
	}
	seeds = append(seeds, c, s, h, mx, mn, d, q)
	for i, enc := range seeds {
		b, err := enc.MarshalBinary()
		if err != nil {
			f.Fatalf("seeding %d: %v", i, err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, dec := range aggDecoders() {
			var err error
			codectest.Allocs(t, len(data), func() { err = dec.UnmarshalBinary(data) })
			if err != nil {
				continue
			}
			// Exercise the read path of whatever decoded successfully.
			switch a := dec.(type) {
			case *agg.Counter:
				a.Value(60)
			case *agg.Sum:
				a.Value(60)
			case *agg.HeavyHitters:
				a.Estimate(1, 60)
			case *agg.Max:
				a.Value(60)
			case *agg.Min:
				a.Value(60)
			case *agg.DistinctExact:
				a.Value(60)
			case *agg.Quantiles:
				a.Quantile(0.5)
			default:
				t.Fatalf("unhandled decoder %s", name)
			}
		}
	})
}
