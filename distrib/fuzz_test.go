package distrib

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"forwarddecay/ingest"
	"forwarddecay/internal/codec"
	"forwarddecay/internal/codec/codectest"
	"forwarddecay/internal/core"
	"forwarddecay/internal/durable"
	"forwarddecay/internal/faultinject"
)

// segmentImage is the file of segment seg holding recs.
func segmentImage(seg uint64, recs ...Record) []byte {
	b := binary.LittleEndian.AppendUint64(append([]byte(nil), walFormat.Magic[:]...), seg)
	for _, r := range recs {
		at := len(b)
		b = appendRecord(ingest.ReserveSealed(b), r)
		ingest.SealInPlace(b, at)
	}
	return b
}

// resealed returns a copy of a segment image in which every whole record
// sealed with the FNV-1a sum of older releases (core.HashBytes, which
// core.ChecksumOK still accepts) carries core.Checksum of its body instead.
// Every other sum slot is left as it is, so a kept slot matching neither
// sum still differs from the re-encoding.
func resealed(seg []byte) []byte {
	b := bytes.Clone(seg)
	for at := durable.LogHeaderSize; at+12 <= len(b); {
		n := int(binary.LittleEndian.Uint32(b[at:]))
		if n > len(b)-at-12 {
			break
		}
		if body := b[at+12 : at+12+n]; binary.LittleEndian.Uint64(b[at+4:]) == core.HashBytes(body) {
			binary.LittleEndian.PutUint64(b[at+4:], core.Checksum(body))
		}
		at += 12 + n
	}
	return b
}

// FuzzLogSegmentDecode is the write-ahead-log reader's robustness contract:
// a log directory holding an arbitrary segment image either opens, with a
// torn tail repaired, or fails with a typed *LogError — never a panic, never
// an over-read, and never a record whose invariants (non-zero sequence,
// finite value and time) are violated. Seeds cover a valid multi-record
// segment, forged checksums, truncations at every interesting boundary,
// duplicate sequence numbers, and oversized length prefixes.
func FuzzLogSegmentDecode(f *testing.F) {
	var recs []Record
	for i := 0; i < 5; i++ {
		recs = append(recs, Record{Part: uint32(i % 2), Seq: uint64(i + 1), Key: uint64(i), Val: float64(i), Time: float64(i)})
	}
	valid := segmentImage(1, recs...)
	f.Add(valid)
	f.Add(valid[:len(valid)-7])               // torn tail
	f.Add(valid[:durable.LogHeaderSize])      // header only
	f.Add(valid[:3])                          // torn header
	f.Add(valid[:11])                         // torn segment number
	f.Add([]byte{})                           // empty image
	f.Add(segmentImage(2, recs...))           // a header naming another segment
	f.Add(faultinject.CorruptByte(valid, 1))  // forged checksum / bent body
	f.Add(faultinject.CorruptByte(valid, 99)) // another deterministic flip

	// Duplicate sequence numbers: structurally valid, dedup is replay's job.
	f.Add(segmentImage(1, Record{Part: 1, Seq: 5, Key: 1, Val: 1, Time: 1}, Record{Part: 1, Seq: 5, Key: 2, Val: 2, Time: 2}))

	// A sealed frame claiming a giant body: must be rejected, not allocated.
	huge := binary.LittleEndian.AppendUint32(segmentImage(1), 1<<30)
	f.Add(append(huge, make([]byte, 64)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal-00000001.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var l *Log
		var err error
		codectest.Allocs(t, len(data), func() { l, err = OpenLog(dir, 0) })
		if err != nil {
			var le *LogError
			if !errors.As(err, &le) {
				t.Fatalf("open error is %T (%v), want *LogError", err, err)
			}
			return
		}
		var recs []Record // every record, duplicates too
		if err := l.log.Scan(func(_ uint64, body []byte) error {
			r, err := decodeRecordBody(body)
			recs = append(recs, r)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			if r.Seq == 0 {
				t.Fatalf("record %d with zero sequence survived the scan", i)
			}
			if r.Val != r.Val || r.Time != r.Time {
				t.Fatalf("record %d with NaN payload survived the scan", i)
			}
		}
		// An opened segment accounts for every byte it keeps: it re-encodes
		// exactly from its records (a legacy sum read as the current one),
		// and a repair only cut a torn tail off (or replaced a torn header).
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resealed(kept), segmentImage(1, recs...)) {
			t.Fatalf("the opened segment is not its records re-encoded:\n %x", kept)
		}
		if len(data) >= durable.LogHeaderSize && !bytes.Equal(kept, data[:len(kept)]) {
			t.Fatal("the repair changed more than a torn tail")
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
