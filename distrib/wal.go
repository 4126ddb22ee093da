package distrib

// Replayable ingest log. Every ring-routed observation is appended here,
// under the routing lock, before it is delivered to a site, so a crashed
// site's replacement rebuilds its partitions from the last checkpoint slice
// plus the records after the slice's sequence watermark. Segments are the
// shared segment log's (internal/durable): `wal-%08d.seg`, headed by
// "FDWAL\x02\x00\x00" · u64 segment. A record body is u8 type(1) · u32
// partition · u64 seq · u64 key · f64 value · f64 time (37 bytes). Each
// segment's coverage, its highest sequence per partition, decides Trim.

import (
	"fmt"
	"maps"
	"math"

	"forwarddecay/internal/codec"
	"forwarddecay/internal/durable"
)

var walFormat = durable.LogFormat{Name: "wal-%08d.seg", Magic: [8]byte{'F', 'D', 'W', 'A', 'L', 2, 0, 0}, MaxRecord: 1 << 12}

const walRecordType = 1

// Record is one logged observation with its partition and sequence number.
type Record struct {
	Part uint32
	Seq  uint64
	Key  uint64
	Val  float64
	Time float64
}

// LogError reports a damaged log segment (durable.LogError).
type LogError = durable.LogError

// appendRecord appends a record's body to b.
func appendRecord(b []byte, r Record) []byte {
	b = codec.AppendU64(codec.AppendU32(append(b, walRecordType), r.Part), r.Seq)
	return codec.AppendF64(codec.AppendF64(codec.AppendU64(b, r.Key), r.Val), r.Time)
}

// decodeRecordBody parses a checksum-verified record body.
func decodeRecordBody(body []byte) (Record, error) {
	d := codec.NewDec(body, "distrib: wal record")
	d.Tag(walRecordType)
	r := Record{Part: d.U32(), Seq: d.U64(), Key: d.U64(), Val: d.F64(), Time: d.F64()}
	if d.Err() == nil && (r.Seq == 0 || math.IsNaN(r.Val) || math.IsInf(r.Val, 0) || math.IsNaN(r.Time) || math.IsInf(r.Time, 0)) {
		d.Failf("record with sequence %d, value %v, time %v", r.Seq, r.Val, r.Time)
	}
	return r, d.Done()
}

// Log is a segmented write-ahead log of ring-routed observations. Not
// self-locking: the Cluster serializes access under its routing lock.
type Log struct {
	log      *durable.Log
	segBytes int64
	seqs     map[uint32]uint64            // the last sequence assigned, per partition
	segs     map[uint64]map[uint32]uint64 // per segment: its highest sequence per partition
	cur      map[uint32]uint64            // the active segment's entry in segs
}

// OpenLog opens (creating if needed) a log rooted at dir whose segments
// rotate at segmentBytes (≤ 0: 1 MiB), restoring the sequence counters. A
// torn tail is repaired under the segment log's rule; damage is a *LogError.
func OpenLog(dir string, segmentBytes int) (*Log, error) {
	if segmentBytes <= 0 {
		segmentBytes = 1 << 20
	}
	l := &Log{segBytes: int64(segmentBytes), seqs: map[uint32]uint64{}, segs: map[uint64]map[uint32]uint64{}}
	var err error
	l.log, err = durable.OpenLog(dir, walFormat, 0, func(seg uint64, body []byte) error {
		r, err := decodeRecordBody(body)
		if err != nil {
			return err
		}
		cover := l.cover(seg)
		cover[r.Part] = max(cover[r.Part], r.Seq)
		l.seqs[r.Part] = max(l.seqs[r.Part], r.Seq)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("distrib: %w", err)
	}
	l.cur = l.cover(l.log.Seg())
	return l, nil
}

// cover returns a segment's coverage entry, adding it if needed.
func (l *Log) cover(seg uint64) map[uint32]uint64 {
	if l.segs[seg] == nil {
		l.segs[seg] = map[uint32]uint64{}
	}
	return l.segs[seg]
}

// Append logs the observation under its partition's next sequence number and
// returns it. The record is in the file before Append returns.
func (l *Log) Append(part uint32, key uint64, val, ts float64) (uint64, error) {
	if l.log.Size() >= l.segBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	seq := l.seqs[part] + 1
	if err := l.log.Commit(appendRecord(l.log.Begin(), Record{Part: part, Seq: seq, Key: key, Val: val, Time: ts})); err != nil {
		return 0, err
	}
	l.seqs[part], l.cur[part] = seq, seq
	return seq, nil
}

// rotate starts the next segment and seals the outgoing one, so its records
// are durable before any checkpoint can cover (and Trim delete) them.
func (l *Log) rotate() error {
	old, err := l.log.Rotate()
	if err != nil {
		return err
	}
	l.cur = l.cover(l.log.Seg())
	if err := l.log.Seal(old); err != nil {
		return fmt.Errorf("distrib: wal: sealing segment: %w", err)
	}
	return nil
}

// Replay streams the retained records of the selected partitions to fn, in
// log order, skipping those at or below the `after` watermarks and repeated
// sequence numbers. It returns the number of records delivered.
func (l *Log) Replay(parts map[uint32]bool, after map[uint32]uint64, fn func(Record) error) (int, error) {
	if err := l.log.Sync(); err != nil {
		return 0, err
	}
	seen := map[uint32]uint64{}
	maps.Copy(seen, after)
	delivered := 0
	err := l.log.Scan(func(_ uint64, body []byte) error {
		r, err := decodeRecordBody(body)
		if err != nil || parts != nil && !parts[r.Part] || r.Seq <= seen[r.Part] {
			return err // a filtered, duplicate or checkpoint-covered record is skipped
		}
		if err := fn(r); err != nil {
			return err
		}
		seen[r.Part] = r.Seq
		delivered++
		return nil
	})
	return delivered, err
}

// Trim deletes every closed segment whose records are all covered by the
// checkpoint watermarks (partition → highest checkpointed sequence), durably,
// and returns how many went. The active segment always survives.
func (l *Log) Trim(watermark map[uint32]uint64) (int, error) {
	return l.log.Remove(func(seg uint64) bool {
		for p, s := range l.segs[seg] {
			if s > watermark[p] {
				return false
			}
		}
		delete(l.segs, seg)
		return true
	})
}

// Close flushes (fsync) and closes the active segment.
func (l *Log) Close() error {
	err := l.log.Sync()
	if cerr := l.log.Close(); err == nil {
		err = cerr
	}
	return err
}
