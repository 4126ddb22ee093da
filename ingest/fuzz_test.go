package ingest_test

import (
	"bytes"
	"testing"

	"forwarddecay/ingest"
	"forwarddecay/internal/codec/codectest"
	"forwarddecay/netgen"
)

// FuzzFrameDecode is the wire-decoder robustness contract: arbitrary bytes
// either decode into a frame that re-encodes to exactly the consumed
// input, or fail with ErrIncomplete / a typed *FrameError — never a panic,
// never an over-read, never a partially-applied frame.
func FuzzFrameDecode(f *testing.F) {
	pkts := []netgen.Packet{
		{Time: 1.5, SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 123, DstPort: 80, Proto: 6, Len: 512},
		{Time: 2.25, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17, Len: 9},
	}
	f.Add(ingest.AppendHello(nil, 42))
	f.Add(ingest.AppendData(nil, 7, pkts))
	f.Add(ingest.AppendHeartbeat(nil, 99.5))
	f.Add(ingest.AppendAck(nil, 1<<40))
	f.Add(ingest.AppendBye(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(append(ingest.AppendHello(nil, 1), ingest.AppendBye(nil)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr ingest.Frame
		var n int
		var err error
		codectest.Allocs(t, len(data), func() { fr, n, err = ingest.DecodeFrame(data, 1<<16) })
		if err != nil {
			if err == ingest.ErrIncomplete {
				return
			}
			if _, ok := err.(*ingest.FrameError); !ok {
				t.Fatalf("decode error is %T (%v), want *FrameError or ErrIncomplete", err, err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		// Round-trip: a successfully decoded frame re-encodes to the exact
		// bytes it was decoded from.
		if re := ingest.AppendFrame(nil, fr); !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encoding differs from input: %x vs %x", re, data[:n])
		}
	})
}
