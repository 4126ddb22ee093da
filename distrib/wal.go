package distrib

// Segmented, checksummed, replayable ingest log. Every ring-routed
// observation is appended here — under the routing lock, so log order and
// site-apply order agree per partition — before it is delivered to a site.
// A crashed site's replacement therefore rebuilds its partitions from the
// last checkpoint slice plus a replay of the records after the slice's
// sequence watermark, instead of silently losing its window.
//
// Each record is sealed with the ingest package's length+checksum envelope
// (the exact codec the wire frames travel in), carries a per-partition
// sequence number, and lives in a size-rotated segment file:
//
//	segment file  =  8-byte magic "FDWAL\x01\x00\x00"  ·  sealed records
//	record body   =  u8 type(1) · u32 partition · u64 seq · u64 key ·
//	                 f64 value · f64 time        (little-endian, 37 bytes)
//
// Segments rotate at SegmentBytes and are trimmed at checkpoint boundaries:
// a segment whose every record is covered by the checkpoint watermarks is
// deleted. Replay deduplicates by sequence number, so duplicated or
// overlapping records (a crashed writer re-appending, an overlapping
// segment) apply exactly once, in sequence order. A torn final record in
// the newest segment — the signature of a crash mid-append — is tolerated
// on open and truncated away; torn bytes anywhere else are corruption and
// refuse to load.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"forwarddecay/ingest"
	"forwarddecay/internal/durable"
)

// walMagic opens every segment file: "FDWAL" + version 1 + two zero bytes.
var walMagic = [8]byte{'F', 'D', 'W', 'A', 'L', 1, 0, 0}

// walRecordType tags observation records inside a segment.
const walRecordType = 1

// walRecordLen is the encoded body length of one record.
const walRecordLen = 1 + 4 + 8 + 8 + 8 + 8

// walMaxRecord bounds the sealed-body length a segment reader accepts, so a
// corrupt length prefix can never trigger a giant allocation.
const walMaxRecord = 1 << 12

// Record is one logged observation with its partition and sequence number.
type Record struct {
	Part uint32
	Seq  uint64
	Key  uint64
	Val  float64
	Time float64
}

// LogError reports a structurally damaged log segment: a bad magic, a
// forged checksum, a mid-segment truncation, or a malformed record body.
type LogError struct {
	// Segment names the offending file (empty when decoding raw bytes).
	Segment string
	// Off is the byte offset of the damage within the segment.
	Off int
	// Cause details the defect.
	Cause error
}

func (e *LogError) Error() string {
	where := "segment"
	if e.Segment != "" {
		where = e.Segment
	}
	return fmt.Sprintf("distrib: wal %s: offset %d: %v", where, e.Off, e.Cause)
}

func (e *LogError) Unwrap() error { return e.Cause }

// encodeRecord appends a sealed record to dst.
func encodeRecord(dst []byte, r Record) []byte {
	body := make([]byte, 0, walRecordLen)
	body = append(body, walRecordType)
	body = binary.LittleEndian.AppendUint32(body, r.Part)
	body = binary.LittleEndian.AppendUint64(body, r.Seq)
	body = binary.LittleEndian.AppendUint64(body, r.Key)
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(r.Val))
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(r.Time))
	return ingest.AppendSealed(dst, body)
}

// decodeRecordBody parses a checksum-verified record body.
func decodeRecordBody(body []byte) (Record, error) {
	if len(body) != walRecordLen {
		return Record{}, fmt.Errorf("record body is %d bytes, want %d", len(body), walRecordLen)
	}
	if body[0] != walRecordType {
		return Record{}, fmt.Errorf("unknown record type 0x%02x", body[0])
	}
	r := Record{
		Part: binary.LittleEndian.Uint32(body[1:]),
		Seq:  binary.LittleEndian.Uint64(body[5:]),
		Key:  binary.LittleEndian.Uint64(body[13:]),
		Val:  math.Float64frombits(binary.LittleEndian.Uint64(body[21:])),
		Time: math.Float64frombits(binary.LittleEndian.Uint64(body[29:])),
	}
	if r.Seq == 0 {
		return Record{}, errors.New("record with sequence 0")
	}
	if math.IsNaN(r.Val) || math.IsInf(r.Val, 0) || math.IsNaN(r.Time) || math.IsInf(r.Time, 0) {
		return Record{}, fmt.Errorf("non-finite record value %v / time %v", r.Val, r.Time)
	}
	return r, nil
}

// scanSegment walks the sealed records of a segment image, calling fn for
// each. It returns clean=false with a nil error when the image ends inside
// a record (a torn tail: tolerable only on the newest segment) and a
// *LogError for structural damage — bad magic, forged checksum, malformed
// body. fn errors abort the scan.
func scanSegment(b []byte, fn func(Record) error) (clean bool, err error) {
	if len(b) < len(walMagic) {
		return false, nil // a header torn mid-write reads as an empty tail
	}
	if [8]byte(b[:8]) != walMagic {
		return false, &LogError{Off: 0, Cause: errors.New("bad segment magic")}
	}
	off := len(walMagic)
	for off < len(b) {
		body, n, err := ingest.DecodeSealed(b[off:], walMaxRecord)
		if errors.Is(err, ingest.ErrIncomplete) {
			return false, nil
		}
		if err != nil {
			return false, &LogError{Off: off, Cause: err}
		}
		rec, err := decodeRecordBody(body)
		if err != nil {
			return false, &LogError{Off: off, Cause: err}
		}
		if err := fn(rec); err != nil {
			return false, err
		}
		off += n
	}
	return true, nil
}

// segMeta summarizes one closed or active segment.
type segMeta struct {
	index int
	path  string
	// maxSeq is the highest sequence the segment holds per partition; a
	// segment is trimmable once a checkpoint covers every entry.
	maxSeq map[uint32]uint64
}

// covered reports whether every record of the segment is at or below the
// checkpoint watermarks.
func (m *segMeta) covered(watermark map[uint32]uint64) bool {
	for p, s := range m.maxSeq {
		if s > watermark[p] {
			return false
		}
	}
	return true
}

// LogConfig parameterizes a write-ahead log.
type LogConfig struct {
	// SegmentBytes rotates the active segment once it reaches this size
	// (default 1 MiB).
	SegmentBytes int
}

// Log is a segmented write-ahead log of ring-routed observations. Methods
// are not self-locking: the Cluster serializes access under its routing
// lock (append order must match delivery order anyway), and standalone
// users must do the same.
type Log struct {
	dir  string
	cfg  LogConfig
	segs []segMeta // closed + active, ascending index
	cur  *os.File  // active segment
	curN int       // bytes written to cur
	// seqs is the next-to-assign sequence number minus one, per partition.
	seqs map[uint32]uint64
}

// OpenLog opens (creating if needed) a log rooted at dir, scanning any
// existing segments to restore per-partition sequence counters. A torn
// final record in the newest segment is truncated away; damage anywhere
// else returns a *LogError.
func OpenLog(dir string, cfg LogConfig) (*Log, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 1 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("distrib: wal: %w", err)
	}
	l := &Log{dir: dir, cfg: cfg, seqs: map[uint32]uint64{}}
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("distrib: wal: %w", err)
	}
	sort.Strings(names)
	for i, path := range names {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(path), "wal-%08d.seg", &idx); err != nil {
			return nil, fmt.Errorf("distrib: wal: unrecognized segment name %q", path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("distrib: wal: %w", err)
		}
		meta := segMeta{index: idx, path: path, maxSeq: map[uint32]uint64{}}
		goodBytes := len(walMagic)
		clean, err := scanSegment(data, func(r Record) error {
			if r.Seq > meta.maxSeq[r.Part] {
				meta.maxSeq[r.Part] = r.Seq
			}
			if r.Seq > l.seqs[r.Part] {
				l.seqs[r.Part] = r.Seq
			}
			goodBytes += frameOverhead + walRecordLen
			return nil
		})
		if err != nil {
			if le, ok := err.(*LogError); ok {
				le.Segment = filepath.Base(path)
			}
			return nil, err
		}
		if !clean {
			if i != len(names)-1 {
				return nil, &LogError{Segment: filepath.Base(path), Off: goodBytes,
					Cause: errors.New("truncated record in a non-final segment")}
			}
			if len(data) < len(walMagic) {
				// The header itself never completed: the segment holds nothing.
				// Drop the file; rotation recreates it on the next append.
				if err := os.Remove(path); err != nil {
					return nil, fmt.Errorf("distrib: wal: removing torn segment: %w", err)
				}
				continue
			}
			// Torn tail of the newest segment: a crash mid-append. The record
			// was never acknowledged; truncate it away.
			if err := os.Truncate(path, int64(goodBytes)); err != nil {
				return nil, fmt.Errorf("distrib: wal: truncating torn tail: %w", err)
			}
		}
		l.segs = append(l.segs, meta)
	}
	return l, l.openActive()
}

// frameOverhead is the sealed-record envelope cost (mirrors the ingest
// header: u32 length + u64 checksum).
const frameOverhead = 4 + 8

// openActive ensures the newest segment is open for appending, creating
// segment 0 on a fresh log.
func (l *Log) openActive() error {
	if len(l.segs) == 0 {
		return l.rotate()
	}
	last := &l.segs[len(l.segs)-1]
	f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("distrib: wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("distrib: wal: %w", err)
	}
	l.cur, l.curN = f, int(st.Size())
	return nil
}

// rotate seals the active segment — fsync then close, so a sealed segment's
// records are durable before any successor can trim it — and starts the next
// one, syncing the directory so the new segment's name survives a power cut.
func (l *Log) rotate() error {
	if l.cur != nil {
		if err := durable.SyncFile(l.cur); err != nil {
			return fmt.Errorf("distrib: wal: sealing segment: %w", err)
		}
		if err := l.cur.Close(); err != nil {
			return fmt.Errorf("distrib: wal: %w", err)
		}
		l.cur = nil
	}
	next := 0
	if n := len(l.segs); n > 0 {
		next = l.segs[n-1].index + 1
	}
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%08d.seg", next))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("distrib: wal: %w", err)
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		return fmt.Errorf("distrib: wal: %w", err)
	}
	if err := durable.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("distrib: wal: %w", err)
	}
	l.segs = append(l.segs, segMeta{index: next, path: path, maxSeq: map[uint32]uint64{}})
	l.cur, l.curN = f, len(walMagic)
	return nil
}

// Append assigns the next sequence number for the observation's partition,
// writes the sealed record, and returns the sequence. The write lands in
// the file before Append returns, so an observation acknowledged to the
// caller is durable against a site crash (the process-crash story is the
// checkpoint; see OpenLog's torn-tail handling).
func (l *Log) Append(part uint32, key uint64, val, ts float64) (uint64, error) {
	if l.curN >= l.cfg.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	seq := l.seqs[part] + 1
	rec := Record{Part: part, Seq: seq, Key: key, Val: val, Time: ts}
	buf := encodeRecord(nil, rec)
	if _, err := l.cur.Write(buf); err != nil {
		return 0, fmt.Errorf("distrib: wal append: %w", err)
	}
	l.seqs[part] = seq
	l.curN += len(buf)
	active := &l.segs[len(l.segs)-1]
	if seq > active.maxSeq[part] {
		active.maxSeq[part] = seq
	}
	return seq, nil
}

// Replay streams the retained records for the selected partitions, in
// segment and record order, to fn — skipping records at or below the
// per-partition `after` watermark and deduplicating repeated sequence
// numbers. It returns the number of records delivered.
func (l *Log) Replay(parts map[uint32]bool, after map[uint32]uint64, fn func(Record) error) (int, error) {
	if err := l.sync(); err != nil {
		return 0, err
	}
	seen := map[uint32]uint64{}
	for p, s := range after {
		seen[p] = s
	}
	delivered := 0
	for i := range l.segs {
		data, err := os.ReadFile(l.segs[i].path)
		if err != nil {
			return delivered, fmt.Errorf("distrib: wal replay: %w", err)
		}
		clean, err := scanSegment(data, func(r Record) error {
			if parts != nil && !parts[r.Part] {
				return nil
			}
			if r.Seq <= seen[r.Part] {
				return nil // duplicate or checkpoint-covered
			}
			if err := fn(r); err != nil {
				return err
			}
			seen[r.Part] = r.Seq
			delivered++
			return nil
		})
		if err != nil {
			if le, ok := err.(*LogError); ok {
				le.Segment = filepath.Base(l.segs[i].path)
			}
			return delivered, err
		}
		if !clean && i != len(l.segs)-1 {
			return delivered, &LogError{Segment: filepath.Base(l.segs[i].path),
				Cause: errors.New("truncated record in a non-final segment")}
		}
	}
	return delivered, nil
}

// sync flushes the active segment to the file system (through the shared
// fault point, so the durability drills cover this path too).
func (l *Log) sync() error {
	if l.cur == nil {
		return nil
	}
	if err := durable.SyncFile(l.cur); err != nil {
		return fmt.Errorf("distrib: wal: %w", err)
	}
	return nil
}

// Trim deletes every closed segment whose records are all covered by the
// checkpoint watermarks (partition → highest checkpointed sequence). The
// active segment always survives. It returns the number of segments
// removed.
func (l *Log) Trim(watermark map[uint32]uint64) (int, error) {
	kept := l.segs[:0]
	removed := 0
	for i := range l.segs {
		m := l.segs[i]
		if i < len(l.segs)-1 && m.covered(watermark) {
			if err := os.Remove(m.path); err != nil {
				return removed, fmt.Errorf("distrib: wal trim: %w", err)
			}
			removed++
			continue
		}
		kept = append(kept, m)
	}
	l.segs = kept
	if removed > 0 {
		// Make the removals durable: without a directory sync a power cut
		// can resurrect trimmed segments, and replay would then re-deliver
		// records the checkpoint already covers (harmless for dedup, but the
		// segment count the operators monitor would lie).
		if err := durable.SyncDir(l.dir); err != nil {
			return removed, fmt.Errorf("distrib: wal trim: %w", err)
		}
	}
	return removed, nil
}

// Close flushes (fsync) and closes the active segment.
func (l *Log) Close() error {
	if l.cur == nil {
		return nil
	}
	serr := durable.SyncFile(l.cur)
	err := l.cur.Close()
	l.cur = nil
	if serr != nil {
		return fmt.Errorf("distrib: wal: %w", serr)
	}
	if err != nil {
		return fmt.Errorf("distrib: wal: %w", err)
	}
	return nil
}
