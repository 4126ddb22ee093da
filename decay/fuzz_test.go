package decay_test

import (
	"bytes"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/internal/codec/codectest"
)

// FuzzDecayUnmarshal exercises the only codec in the repository without a
// fuzz target: the textual decay-function and Forward-model encodings that
// travel inside checkpoints and distributed summaries. The invariant is
// canonical-form stability: anything that decodes must re-encode to a form
// that decodes to the same canonical encoding (a fixpoint after one
// round-trip). Comparing encodings rather than models keeps NaN landmarks
// from tripping float equality.
func FuzzDecayUnmarshal(f *testing.F) {
	f.Add("none")
	f.Add("landmark")
	f.Add("poly(2)")
	f.Add("exp(0.05)")
	f.Add("polysum([1 0 2.5])")
	f.Add("exp(0.1)@100")
	f.Add("poly(1)@-3.5e2")
	f.Add("none@0")
	f.Add("polysum([0.5])@1e308")
	f.Add("exp(")
	f.Add("@@")
	f.Add("poly(-1)@0")
	f.Fuzz(func(t *testing.T, s string) {
		var g decay.Func
		var err error
		codectest.Allocs(t, len(s), func() { g, err = decay.DecodeFunc(s) })
		if err == nil {
			canon := decay.EncodeFunc(g)
			g2, err2 := decay.DecodeFunc(canon)
			if err2 != nil {
				t.Fatalf("canonical form %q of %q does not decode: %v", canon, s, err2)
			}
			if got := decay.EncodeFunc(g2); got != canon {
				t.Fatalf("canonical form not a fixpoint: %q -> %q -> %q", s, canon, got)
			}
		}
		var m decay.Forward
		codectest.Allocs(t, len(s), func() { err = m.UnmarshalText([]byte(s)) })
		if err == nil {
			b, err := m.MarshalText()
			if err != nil {
				t.Fatalf("decoded model from %q does not re-encode: %v", s, err)
			}
			var m2 decay.Forward
			if err := m2.UnmarshalText(b); err != nil {
				t.Fatalf("re-encoded form %q of %q does not decode: %v", b, s, err)
			}
			b2, err := m2.MarshalText()
			if err != nil {
				t.Fatalf("second encode of %q failed: %v", b, err)
			}
			if !bytes.Equal(b, b2) {
				t.Fatalf("encoding not a fixpoint: %q -> %q -> %q", s, b, b2)
			}
		}
	})
}
