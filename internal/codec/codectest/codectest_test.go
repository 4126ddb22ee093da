package codectest

import (
	"bytes"
	"encoding/binary"
	"testing"

	"forwarddecay/internal/codec"
	"forwarddecay/internal/core"
)

// recorder is a testing.TB that records a failure instead of stopping.
type recorder struct {
	testing.TB
	failed bool
}

func (r *recorder) Helper()               {}
func (r *recorder) Fatalf(string, ...any) { r.failed = true }

var sink []byte

// TestChecksCatchViolations: each check passes a well-behaved decoder and
// fails one that breaks its rule.
func TestChecksCatchViolations(t *testing.T) {
	var r recorder
	Allocs(&r, 1, func() {})
	if r.failed {
		t.Fatal("Allocs failed a decode that allocates nothing")
	}
	Allocs(&r, 1, func() { sink = make([]byte, 4*AllocBase) })
	if !r.failed {
		t.Fatal("Allocs passed a decode far above its bound")
	}

	enc := []byte{1, 2, 3}
	var kept []byte
	r = recorder{}
	NoRetain(&r, enc, func(b []byte) error { kept = append([]byte(nil), b...); return nil },
		func() ([]byte, error) { return kept, nil })
	if r.failed {
		t.Fatal("NoRetain failed a decoder that copies its input")
	}
	NoRetain(&r, enc, func(b []byte) error { kept = b; return nil },
		func() ([]byte, error) { return kept, nil })
	if !r.failed {
		t.Fatal("NoRetain passed a decoder that keeps its input")
	}
}

// TestParentSums: the rewrite to the earlier sum passes records sealed with
// core.Checksum, gives the bytes core.HashBytes sealing gives, and fails a
// record sealed otherwise or cut short.
func TestParentSums(t *testing.T) {
	header := func(sum func([]byte) uint64, bodies ...string) []byte {
		b := []byte("16-byte preface.")
		for _, body := range bodies {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
			b = binary.LittleEndian.AppendUint64(b, sum([]byte(body)))
			b = append(b, body...)
		}
		return b
	}
	bodies := []string{"", "a", "a record body"}
	sealed, parent := header(core.Checksum, bodies...), header(core.HashBytes, bodies...)
	if got := ParentHeaders(t, sealed, 16); !bytes.Equal(got, parent) {
		t.Fatalf("ParentHeaders gives %x, want %x", got, parent)
	}
	body := []byte("a state image")
	old := binary.LittleEndian.AppendUint64(bytes.Clone(body), core.HashBytes(body))
	if got := ParentTrailer(t, codec.Seal(bytes.Clone(body))); !bytes.Equal(got, old) {
		t.Fatalf("ParentTrailer gives %x, want %x", got, old)
	}
	for name, check := range map[string]func(testing.TB){
		"header sealed with HashBytes":  func(r testing.TB) { ParentHeaders(r, parent, 16) },
		"header cut inside a body":      func(r testing.TB) { ParentHeaders(r, sealed[:len(sealed)-1], 16) },
		"header cut inside a header":    func(r testing.TB) { ParentHeaders(r, sealed[:16+5], 16) },
		"trailer sealed with HashBytes": func(r testing.TB) { ParentTrailer(r, old) },
		"trailer short of a sum":        func(r testing.TB) { ParentTrailer(r, body[:7]) },
	} {
		r := recorder{}
		check(&r)
		if !r.failed {
			t.Errorf("%s: passed", name)
		}
	}
}
