// Package codectest holds the checks the decoders' tests share: the
// allocation bound of a decode, that nothing decoded refers to its input,
// and the sums of sealed records as they were before they moved to CRC-32C.
package codectest

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"forwarddecay/internal/core"
)

// A decode of n input bytes may allocate at most AllocPerByte·n + AllocBase
// bytes of heap (runtime.MemStats.TotalAlloc). The widest expansion a format
// has is a one-byte null that decodes to a 40-byte value plus its share of a
// row and of the slice the rows grow into, ≈ 75 bytes; the fuzz targets
// measure at most ≈ 25 per byte and a few KiB for a small input. The base
// leaves room for what another goroutine allocates while a decode is timed.
// A decoder that sizes anything from a forged count breaks the bound by
// orders of magnitude.
const (
	AllocPerByte = 128
	AllocBase    = 256 << 10
)

// Allocs runs decode, a decode of n input bytes, and fails t if it allocated
// more than the bound.
func Allocs(t testing.TB, n int, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(AllocPerByte*n+AllocBase); got > bound {
		t.Fatalf("decoding %d bytes allocated %d, above %d·n + %d = %d", n, got, AllocPerByte, AllocBase, bound)
	}
}

// NoRetain decodes a copy of enc, overwrites the copy, and fails t unless
// re-encoding what was decoded still gives enc.
func NoRetain(t testing.TB, enc []byte, decode func([]byte) error, encode func() ([]byte, error)) {
	t.Helper()
	in := bytes.Clone(enc)
	if err := decode(in); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range in {
		in[i] = 0xa5
	}
	got, err := encode()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(got, enc) {
		t.Fatalf("re-encoding after the input was overwritten gives %x, want %x: the decoded value refers to its input", got, enc)
	}
}

// ParentHeaders returns a copy of b whose records, sealed back to back from
// b[at:] on in the ingest envelope (u32 body length, u64 sum slot, body),
// carry core.HashBytes of their bodies, the sum records were sealed with
// before core.Checksum: bytes pinned before then compare equal to it exactly
// when the bodies are. It fails t unless every record's slot held
// core.Checksum of its body and the records end where b does.
func ParentHeaders(t testing.TB, b []byte, at int) []byte {
	t.Helper()
	b = bytes.Clone(b)
	for at < len(b) {
		if len(b)-at < 12 {
			t.Fatalf("offset %d: %d bytes left, short of a record header", at, len(b)-at)
			return nil
		}
		n := int(binary.LittleEndian.Uint32(b[at:]))
		if len(b)-at-12 < n {
			t.Fatalf("offset %d: a %d-byte body in %d bytes", at, n, len(b)-at-12)
			return nil
		}
		parentSum(t, b[at+12:at+12+n], b[at+4:at+12])
		at += 12 + n
	}
	return b
}

// ParentTrailer is ParentHeaders for one record sealed as codec.Seal seals:
// a body, then its u64 sum slot.
func ParentTrailer(t testing.TB, b []byte) []byte {
	t.Helper()
	if len(b) < 8 {
		t.Fatalf("%d bytes, short of a sum", len(b))
		return nil
	}
	b = bytes.Clone(b)
	parentSum(t, b[:len(b)-8], b[len(b)-8:])
	return b
}

// parentSum checks that slot holds core.Checksum(body) and rewrites it to
// core.HashBytes(body).
func parentSum(t testing.TB, body, slot []byte) {
	t.Helper()
	if got, want := binary.LittleEndian.Uint64(slot), core.Checksum(body); got != want {
		t.Fatalf("a %d-byte body sealed with %#x, want core.Checksum %#x", len(body), got, want)
	}
	binary.LittleEndian.PutUint64(slot, core.HashBytes(body))
}
