package sketch_test

import (
	"bytes"
	"encoding"
	"math"
	"testing"

	"forwarddecay/internal/codec"
	"forwarddecay/internal/codec/codectest"
	"forwarddecay/sketch"
)

// sketchDecoders returns one fresh instance of every sketch with a binary
// codec. Each fuzz iteration decodes into fresh receivers so no state leaks
// between inputs.
func sketchDecoders() map[string]encoding.BinaryUnmarshaler {
	return map[string]encoding.BinaryUnmarshaler{
		"spacesaving": sketch.NewSpaceSavingK(16),
		"qdigest":     sketch.NewQDigest(1<<16, 0.05),
		"kmv":         sketch.NewKMV(32),
		"misragries":  sketch.NewMisraGries(16),
		"dominance":   sketch.NewDominance(16, 1.05, 64),
	}
}

// FuzzSketchDecode drives every sketch decoder with arbitrary bytes. The
// contract under test: malformed input returns an error — it never panics
// (slice bounds, division by zero) and never allocates proportionally to a
// forged length field rather than to the actual input size — and an
// accepted Misra–Gries input re-encodes to the identical bytes.
func FuzzSketchDecode(f *testing.F) {
	f.Add([]byte{})
	// Seed with valid encodings of populated sketches so the mutator
	// explores the interesting deep-decode paths, not just magic-byte
	// rejections.
	for name, enc := range map[string]encoding.BinaryMarshaler{
		"spacesaving": func() encoding.BinaryMarshaler {
			s := sketch.NewSpaceSavingK(16)
			for i := uint64(0); i < 100; i++ {
				s.Update(i%23, float64(1+i%5))
			}
			return s
		}(),
		"qdigest": func() encoding.BinaryMarshaler {
			q := sketch.NewQDigest(1<<16, 0.05)
			for i := uint64(0); i < 100; i++ {
				q.Update(i*37%1000, 1)
			}
			return q
		}(),
		"kmv": func() encoding.BinaryMarshaler {
			s := sketch.NewKMV(32)
			for i := uint64(0); i < 200; i++ {
				s.Insert(i * 2654435761)
			}
			return s
		}(),
		"misragries": func() encoding.BinaryMarshaler {
			m := sketch.NewMisraGries(16)
			for i := uint64(0); i < 100; i++ {
				m.Update(i%31, 1)
			}
			return m
		}(),
		"dominance": func() encoding.BinaryMarshaler {
			d := sketch.NewDominance(16, 1.05, 64)
			for i := uint64(0); i < 100; i++ {
				d.Update(i%29, float64(i))
			}
			return d
		}(),
	} {
		b, err := enc.MarshalBinary()
		if err != nil {
			f.Fatalf("seeding %s: %v", name, err)
		}
		f.Add(b)
	}
	// Misra–Gries encodings the decoder must refuse: a duplicate key, a NaN
	// count, a negative count.
	for _, pairs := range [][][2]float64{
		{{3, 1}, {3, 2}},
		{{3, math.NaN()}},
		{{3, -1}},
	} {
		b := codec.AppendU64([]byte{0x54}, 16)
		b = codec.AppendU64(codec.AppendF64(b, 3), uint64(len(pairs)))
		for _, p := range pairs {
			b = codec.AppendF64(codec.AppendU64(b, uint64(p[0])), p[1])
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, dec := range sketchDecoders() {
			var err error
			codectest.Allocs(t, len(data), func() { err = dec.UnmarshalBinary(data) })
			if err != nil {
				continue // rejected cleanly: that is the contract
			}
			// Accepted input must leave a usable sketch: exercise a few
			// reads so a silently corrupt decode that breaks invariants
			// (heap order, level bounds) surfaces as a panic here.
			switch s := dec.(type) {
			case *sketch.SpaceSaving:
				s.Top(4)
				s.Estimate(1)
			case *sketch.QDigest:
				s.Quantile(0.5)
			case *sketch.KMV:
				s.Estimate()
			case *sketch.MisraGries:
				s.Estimate(1)
				// The codec is canonical: what it accepts re-encodes to
				// the same bytes.
				if b, err := s.MarshalBinary(); err != nil || !bytes.Equal(b, data) {
					t.Fatalf("misragries: accepted %x re-encodes as %x (%v)", data, b, err)
				}
			case *sketch.Dominance:
				s.Estimate()
			default:
				t.Fatalf("unhandled decoder %s", name)
			}
		}
	})
}
