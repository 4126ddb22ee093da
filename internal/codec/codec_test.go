package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"forwarddecay/internal/core"
)

func TestRoundTrip(t *testing.T) {
	b := AppendU16([]byte{7}, 0xbeef)
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, 1<<63|5)
	b = AppendF64(b, -2.5)
	b = AppendBool(AppendBool(b, true), false)
	b = AppendBytes32(b, "abc")
	b = AppendBytes64(b, []byte{1, 2})
	d := NewDec(b, "t")
	if d.U8() != 7 || d.U16() != 0xbeef || d.U32() != 0xdeadbeef || d.U64() != 1<<63|5 || d.F64() != -2.5 ||
		!d.Bool() || d.Bool() || string(d.Bytes32()) != "abc" || string(d.Bytes64()) != "\x01\x02" {
		t.Fatal("values do not round-trip")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}

	b = AppendU64(nil, 0)
	PutU64(b, 42)
	if d := NewDec(b, ""); d.U64() != 42 {
		t.Fatal("PutU64 not read back")
	}
}

// TestFirstFailureSticks: a short read records its offset and ends the
// input — a later, smaller read that would have fitted returns zero — and
// nothing after it replaces the failure.
func TestFirstFailureSticks(t *testing.T) {
	d := NewDec([]byte{1, 2, 3, 4, 5}, "ctx")
	d.U16()
	if d.U64() != 0 || d.U8() != 0 {
		t.Fatal("a read after a failure returned data")
	}
	d.Failf("later")
	d.Tag(9)
	err := d.Done()
	var e *Error
	if !errors.As(err, &e) || e.Off != 2 || e.Ctx != "ctx" || !strings.Contains(err.Error(), "need 8 bytes, have 3") ||
		!strings.HasPrefix(err.Error(), "ctx: offset 2: ") {
		t.Fatalf("error = %v, want the short read at offset 2", err)
	}

	d = NewDec([]byte{1, 2, 3}, "")
	d.U8()
	d.Failf("bad %d", 7)
	if d.U8() != 0 || d.Done().Error() != "offset 1: bad 7" {
		t.Fatalf("Failf: %v", d.Err())
	}
}

func TestCount(t *testing.T) {
	d := NewDec(make([]byte, 48), "")
	if n := d.Count(3, 16); n != 3 || d.Err() != nil {
		t.Fatalf("Count(3, 16) over 48 bytes = %d, %v", n, d.Err())
	}
	if n := d.Count(48, 0); n != 48 || d.Err() != nil {
		t.Fatalf("Count(48, 0) over 48 bytes = %d, %v", n, d.Err())
	}
	for _, n := range []uint64{4, math.MaxUint64, 1 << 62} {
		d := NewDec(make([]byte, 48), "")
		if got := d.Count(n, 16); got != 0 || d.Err() == nil {
			t.Fatalf("Count(%d, 16) over 48 bytes = %d, %v", n, got, d.Err())
		}
	}
}

func TestCheckedReads(t *testing.T) {
	for _, c := range []struct {
		in   []byte
		read func(d *Dec)
		want string
	}{
		{[]byte{2}, func(d *Dec) { d.Bool() }, "flag byte 0x02"},
		{[]byte{5}, func(d *Dec) { d.Tag(6) }, "wrong encoding tag 0x05, want 0x06"},
		{[]byte{1, 2}, func(d *Dec) { d.U8() }, "1 trailing bytes"},
		{AppendU32(nil, 9), func(d *Dec) { d.Bytes32() }, "need 9 bytes, have 0"},
		{AppendU64(nil, math.MaxUint64), func(d *Dec) { d.Bytes64() }, "have 0"},
	} {
		d := NewDec(c.in, "")
		c.read(&d)
		if err := d.Done(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%x: error %v, want %q", c.in, err, c.want)
		}
	}
}

type failing struct{ err error }

func (f failing) UnmarshalBinary([]byte) error { return f.err }

func TestUnmarshalChains(t *testing.T) {
	inner := errors.New("inner")
	d := NewDec([]byte{1, 2}, "outer")
	d.Unmarshal(failing{inner}, d.Bytes(1))
	if err := d.Done(); !errors.Is(err, inner) || err.Error() != "outer: offset 1: inner" {
		t.Fatalf("error = %v, want inner at offset 1", err)
	}
	d = NewDec(nil, "")
	d.U8()
	d.Unmarshal(failing{inner}, nil) // skipped: d has failed already
	if errors.Is(d.Err(), inner) {
		t.Fatal("Unmarshal ran after a failure")
	}
}

func TestSeal(t *testing.T) {
	sealed := Seal([]byte("body"))
	if body, ok := Unseal(sealed); !ok || string(body) != "body" {
		t.Fatalf("Unseal(Seal) = %q, %v", body, ok)
	}
	sealed[1] ^= 1
	if _, ok := Unseal(sealed); ok {
		t.Fatal("a flipped byte passed")
	}
	if _, ok := Unseal(sealed[:7]); ok {
		t.Fatal("a 7-byte input passed")
	}
}

// sumSizes are the body lengths the sum is checked at: the smallest, around
// a word, a small frame, a big frame and a large state image.
var sumSizes = []int{1, 2, 3, 7, 8, 9, 60, 61, 1000, 6000, 64 << 10}

// TestSealRefusesBursts: a sealed body refuses every single-bit flip of its
// body or sum, and every error burst of up to 32 bits at seeded offsets —
// CRC-32C's guarantee. Past 6000 bytes the body's flips are checked against
// the tagged sum alone: Unseal then also computes core.HashBytes for each,
// half a million times at 64 KiB.
func TestSealRefusesBursts(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 1))
	for _, n := range sumSizes {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(rng.Uint32())
		}
		sealed := Seal(bytes.Clone(body))
		if got, ok := Unseal(sealed); !ok || !bytes.Equal(got, body) {
			t.Fatalf("%d bytes: Unseal(Seal) = %v", n, ok)
		}
		sum := binary.LittleEndian.Uint64(sealed[n:])
		for bit := range 8 * len(sealed) {
			sealed[bit/8] ^= 1 << (bit % 8)
			var ok bool
			if bit >= 8*n || n <= 6000 {
				_, ok = Unseal(sealed)
			} else {
				ok = core.Checksum(sealed[:n]) == sum
			}
			sealed[bit/8] ^= 1 << (bit % 8)
			if ok {
				t.Fatalf("%d bytes: a flip of bit %d passed", n, bit)
			}
		}
		for range 256 {
			span := 1 + rng.IntN(32)
			at := rng.IntN(8*len(sealed) - span + 1)
			burst := uint64(1) | uint64(1)<<(span-1) | rng.Uint64()&(1<<span-1)
			flip := func() {
				for i := range span {
					if burst>>i&1 != 0 {
						sealed[(at+i)/8] ^= 1 << ((at + i) % 8)
					}
				}
			}
			flip()
			_, ok := Unseal(sealed)
			flip()
			if ok {
				t.Fatalf("%d bytes: a %d-bit burst %#x at bit %d passed", n, span, burst, at)
			}
		}
	}
}

// TestUnsealAcceptsHashBytes: a trailer holding core.HashBytes of the body,
// as Seal wrote before core.Checksum, still unseals; a tagged trailer whose
// CRC is wrong does not fall back to it.
func TestUnsealAcceptsHashBytes(t *testing.T) {
	body := []byte("a checkpoint sealed by an earlier release")
	if got, ok := Unseal(AppendU64(bytes.Clone(body), core.HashBytes(body))); !ok || !bytes.Equal(got, body) {
		t.Fatalf("a core.HashBytes trailer: %v", ok)
	}
	for _, sum := range []uint64{core.Checksum(body) ^ 1, core.Checksum(body) ^ 1<<32, core.HashBytes(body) ^ 1<<63} {
		if _, ok := Unseal(AppendU64(bytes.Clone(body), sum)); ok {
			t.Fatalf("a %#x trailer passed", sum)
		}
	}
}

// BenchmarkSeal seals and unseals a body of a short record, a big frame and
// a large state image.
func BenchmarkSeal(b *testing.B) {
	for _, n := range []int{60, 6000, 1 << 20} {
		b.Run(fmt.Sprintf("bytes=%d", n), func(b *testing.B) {
			buf := make([]byte, n, n+8)
			b.SetBytes(int64(n))
			for range b.N {
				if _, ok := Unseal(Seal(buf[:n])); !ok {
					b.Fatal("refused")
				}
			}
		})
	}
}
