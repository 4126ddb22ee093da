package codectest

import (
	"testing"
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
