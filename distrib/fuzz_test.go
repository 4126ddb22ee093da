package distrib

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"forwarddecay/internal/codec"
	"forwarddecay/internal/codec/codectest"
	"forwarddecay/internal/faultinject"
)

// FuzzLogSegmentDecode is the write-ahead-log reader's robustness contract:
// an arbitrary segment image either scans cleanly, ends in a tolerable torn
// tail, or fails with a typed *LogError — never a panic, never an
// over-read, and never a record whose invariants (non-zero sequence, finite
// value and time) are violated. Seeds cover a valid multi-record segment,
// forged checksums, truncations at every interesting boundary, duplicate
// sequence numbers, and oversized length prefixes.
func FuzzLogSegmentDecode(f *testing.F) {
	valid := append([]byte(nil), walMagic[:]...)
	for i := 0; i < 5; i++ {
		valid = encodeRecord(valid, Record{Part: uint32(i % 2), Seq: uint64(i + 1), Key: uint64(i), Val: float64(i), Time: float64(i)})
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-7])               // torn tail
	f.Add(valid[:len(walMagic)])              // header only
	f.Add(valid[:3])                          // torn header
	f.Add([]byte{})                           // empty image
	f.Add(faultinject.CorruptByte(valid, 1))  // forged checksum / bent body
	f.Add(faultinject.CorruptByte(valid, 99)) // another deterministic flip

	// Duplicate sequence numbers: structurally valid, dedup is replay's job.
	dup := append([]byte(nil), walMagic[:]...)
	dup = encodeRecord(dup, Record{Part: 1, Seq: 5, Key: 1, Val: 1, Time: 1})
	dup = encodeRecord(dup, Record{Part: 1, Seq: 5, Key: 2, Val: 2, Time: 2})
	f.Add(dup)

	// A sealed frame claiming a giant body: must be rejected, not allocated.
	huge := append([]byte(nil), walMagic[:]...)
	huge = binary.LittleEndian.AppendUint32(huge, 1<<30)
	huge = append(huge, make([]byte, 64)...)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []Record
		var clean bool
		var err error
		codectest.Allocs(t, len(data), func() {
			clean, err = scanSegment(data, func(r Record) error {
				recs = append(recs, r)
				return nil
			})
		})
		if err != nil {
			var le *LogError
			if !errors.As(err, &le) {
				t.Fatalf("scan error is %T (%v), want *LogError", err, err)
			}
			if clean {
				t.Fatal("clean=true alongside an error")
			}
			return
		}
		for i, r := range recs {
			if r.Seq == 0 {
				t.Fatalf("record %d with zero sequence survived the scan", i)
			}
			if r.Val != r.Val || r.Time != r.Time {
				t.Fatalf("record %d with NaN payload survived the scan", i)
			}
		}
		// A clean scan must account for every byte: re-encoding the records
		// after the magic reproduces the image exactly.
		if clean {
			re := append([]byte(nil), walMagic[:]...)
			for _, r := range recs {
				re = encodeRecord(re, r)
			}
			if len(re) != len(data) {
				t.Fatalf("clean scan of %d bytes re-encodes to %d", len(data), len(re))
			}
			for i := range re {
				if re[i] != data[i] {
					t.Fatalf("clean scan not byte-faithful at offset %d", i)
				}
			}
		}
	})
}

// FuzzSliceDecode hardens the state-slice envelope the same way: hostile
// bytes must never panic or allocate past the codectest bound, and any
// accepted slice re-encodes faithfully. Each input is also decoded
// re-sealed, so mutations reach the parser behind the integrity hash.
func FuzzSliceDecode(f *testing.F) {
	c := &Cluster{cfg: Config{Model: elasticCfg(1).Model, HHK: 8, QuantileU: 256, QuantileEps: 0.1}}
	ps := c.newPartState()
	ps.observe(Observation{Key: 3, Value: 5, Time: 7}, 1)
	blob, err := encodeSlice(9, ps)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)-8])
	f.Add(faultinject.CorruptByte(blob, 7))
	f.Add(blob[:len(blob)-9])
	f.Add([]byte{})
	f.Add(restampSlice(f, blob, 1024)) // decodes; a cluster refuses its frame

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, codec.Seal(bytes.Clone(data))} {
			var hdr sliceHeader
			var ps *partState
			var err error
			codectest.Allocs(t, len(in), func() { hdr, ps, err = decodeSlice(in) })
			if err != nil {
				continue
			}
			if ps == nil || ps.sum == nil {
				t.Fatal("decoded slice without a sum")
			}
			if _, err := encodeSlice(hdr.part, ps); err != nil {
				t.Fatalf("accepted slice fails to re-encode: %v", err)
			}
		}
	})
}

// TestSliceKeepsNoInput: a decoded slice holds nothing of its input —
// overwriting the input afterwards changes nothing that re-encodes.
func TestSliceKeepsNoInput(t *testing.T) {
	c := &Cluster{cfg: Config{Model: elasticCfg(1).Model, HHK: 8}}
	ps := c.newPartState()
	ps.observe(Observation{Key: 3, Value: 5, Time: 7}, 1)
	blob, err := encodeSlice(9, ps)
	if err != nil {
		t.Fatal(err)
	}
	var hdr sliceHeader
	codectest.NoRetain(t, blob, func(b []byte) (err error) {
		hdr, ps, err = decodeSlice(b)
		return err
	}, func() ([]byte, error) { return encodeSlice(hdr.part, ps) })
}
