// Package codectest holds the checks the decoders' tests share: the
// allocation bound of a decode, and that nothing decoded refers to its input.
package codectest

import (
	"bytes"
	"runtime"
	"testing"
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
