package ingest_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"forwarddecay/ingest"
	"forwarddecay/internal/core"
)

// seal appends body to dst in the exported length+checksum envelope.
func seal(dst, body []byte) []byte {
	at := len(dst)
	dst = append(ingest.ReserveSealed(dst), body...)
	ingest.SealInPlace(dst, at)
	return dst
}

// TestSealedRoundtrip: the exported length+checksum envelope (which the
// write-ahead logs ride) round-trips arbitrary bodies, streams
// back-to-back records, and reports exactly how many bytes it consumed.
func TestSealedRoundtrip(t *testing.T) {
	bodies := [][]byte{
		{},
		{0x01},
		bytes.Repeat([]byte{0xab}, 300),
	}
	var stream []byte
	for _, b := range bodies {
		stream = seal(stream, b)
	}
	off := 0
	for i, want := range bodies {
		body, n, err := ingest.DecodeSealed(stream[off:], 0)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("record %d: body %x, want %x", i, body, want)
		}
		off += n
	}
	if off != len(stream) {
		t.Fatalf("consumed %d of %d stream bytes", off, len(stream))
	}
}

// TestSealedErrors: truncation reads as ErrIncomplete (retryable), a flipped
// byte as a typed checksum failure, and an oversized claim as too-large —
// before any allocation the length prefix could trigger.
func TestSealedErrors(t *testing.T) {
	rec := seal(nil, []byte("payload"))

	for cut := 1; cut < len(rec); cut++ {
		if _, _, err := ingest.DecodeSealed(rec[:len(rec)-cut], 0); !errors.Is(err, ingest.ErrIncomplete) {
			t.Fatalf("truncated by %d: %v, want ErrIncomplete", cut, err)
		}
	}

	bent := append([]byte(nil), rec...)
	bent[len(bent)-1] ^= 0x10
	var fe *ingest.FrameError
	if _, _, err := ingest.DecodeSealed(bent, 0); !errors.As(err, &fe) || fe.Kind != ingest.FrameBadChecksum {
		t.Fatalf("bent body: %v, want bad-checksum FrameError", err)
	}

	if _, _, err := ingest.DecodeSealed(rec, 3); !errors.As(err, &fe) || fe.Kind != ingest.FrameTooLarge {
		t.Fatalf("tiny limit: %v, want too-large FrameError", err)
	}
}

// flipBurst flips, from bit at of b on, the low span bits of burst.
func flipBurst(b []byte, at, span int, burst uint64) {
	for i := range span {
		if burst>>i&1 != 0 {
			b[(at+i)/8] ^= 1 << ((at + i) % 8)
		}
	}
}

// randomBurst draws an error burst of 1 to 32 bits (its first and last bit
// set) at an offset among bits [lo, hi) of a record.
func randomBurst(rng *rand.Rand, lo, hi int) (at, span int, burst uint64) {
	span = 1 + rng.IntN(32)
	at = lo + rng.IntN(hi-lo-span+1)
	return at, span, 1 | 1<<(span-1) | rng.Uint64()&(1<<span-1)
}

// TestSealedRefusesBursts: DecodeSealed refuses, as a bad checksum, every
// single-bit flip of a record's sum slot or body (bodies of 1 B to 6000 B)
// and every error burst of up to 32 bits in them at seeded offsets (bodies
// of 1 B to 64 KiB); ReadFrame refuses such bursts in data frames the same
// way. Both still read a record whose slot holds core.HashBytes of its body,
// the sum earlier releases sealed with.
func TestSealedRefusesBursts(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 2))
	refused := func(rec []byte) bool {
		var fe *ingest.FrameError
		_, _, err := ingest.DecodeSealed(rec, 0)
		return errors.As(err, &fe) && fe.Kind == ingest.FrameBadChecksum
	}
	const lo = 32 // the bits of the length prefix: a flip there is not a sum's to catch
	for _, n := range []int{1, 2, 3, 7, 8, 9, 60, 61, 1000, 6000, 64 << 10} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(rng.Uint32())
		}
		rec := seal(nil, body)
		if n <= 6000 {
			for bit := lo; bit < 8*len(rec); bit++ {
				rec[bit/8] ^= 1 << (bit % 8)
				ok := refused(rec)
				rec[bit/8] ^= 1 << (bit % 8)
				if !ok {
					t.Fatalf("%d bytes: a flip of bit %d passed", n, bit)
				}
			}
		}
		for range 64 {
			at, span, burst := randomBurst(rng, lo, 8*len(rec))
			flipBurst(rec, at, span, burst)
			ok := refused(rec)
			flipBurst(rec, at, span, burst)
			if !ok {
				t.Fatalf("%d bytes: a %d-bit burst %#x at bit %d passed", n, span, burst, at)
			}
		}
		binary.LittleEndian.PutUint64(rec[4:], core.HashBytes(body))
		if got, _, err := ingest.DecodeSealed(rec, 0); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%d bytes sealed with core.HashBytes: %v", n, err)
		}
	}

	for _, count := range []int{1, 200, 2600} {
		frame := ingest.AppendData(nil, 9, genPackets(count, uint64(count)))
		read := func() error {
			_, err := ingest.NewFrameReader(bytes.NewReader(frame), 0).ReadFrame()
			return err
		}
		for range 32 {
			at, span, burst := randomBurst(rng, lo, 8*len(frame))
			flipBurst(frame, at, span, burst)
			err := read()
			flipBurst(frame, at, span, burst)
			if fe := (*ingest.FrameError)(nil); !errors.As(err, &fe) || fe.Kind != ingest.FrameBadChecksum {
				t.Fatalf("%d packets: a %d-bit burst %#x at bit %d read as %v", count, span, burst, at, err)
			}
		}
		binary.LittleEndian.PutUint64(frame[4:], core.HashBytes(frame[ingest.SealedHeaderSize:]))
		if err := read(); err != nil {
			t.Fatalf("%d packets sealed with core.HashBytes: %v", count, err)
		}
	}
}

// BenchmarkSeal seals a record in place and decodes it back, for a body of a
// short record, a big frame and a large state image.
func BenchmarkSeal(b *testing.B) {
	for _, n := range []int{60, 6000, 1 << 20} {
		b.Run(fmt.Sprintf("bytes=%d", n), func(b *testing.B) {
			rec := make([]byte, ingest.SealedHeaderSize+n)
			b.SetBytes(int64(n))
			for range b.N {
				ingest.SealInPlace(rec, 0)
				if _, _, err := ingest.DecodeSealed(rec, 2<<20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
