package ingest_test

import (
	"bytes"
	"errors"
	"testing"

	"forwarddecay/ingest"
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
