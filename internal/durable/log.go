package durable

// The segment log under both write-ahead logs (DESIGN.md §11.2): numbered
// files, each an 8-byte magic and its number as a u64, then sealed records
// (the ingest envelope) written one syscall each. The one torn-tail rule: a
// record or header cut short by a crash is repaired on open (truncated away,
// or the headless file removed) only where no record follows it in the log;
// anything else that does not scan is a *LogError naming file and offset.
// Rotate hands the outgoing segment back for the caller's policy to Seal;
// Sync makes the active one durable.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"forwarddecay/ingest"
)

// LogHeaderSize is the size of a segment's header.
const LogHeaderSize = 16

// LogFormat names a log's segment files and bounds its records.
type LogFormat struct {
	Name      string // segment n's file is fmt.Sprintf(Name, n); Name holds one %08d
	Magic     [8]byte
	MaxRecord int // the largest record body the log writes or reads
}

// LogError reports a damaged segment.
type LogError struct {
	Segment string // the file's base name
	Off     int    // the offset of the damage in it
	Cause   error
}

func (e *LogError) Error() string {
	return fmt.Sprintf("wal %s: offset %d: %v", e.Segment, e.Off, e.Cause)
}

func (e *LogError) Unwrap() error { return e.Cause }

// Log is a segment log open for appending. Not self-locking: Remove and Seal
// may run beside appends if ordered after the Rotate they follow.
type Log struct {
	dir   string
	fm    LogFormat
	segs  []uint64 // the segments on disk, ascending; the last is the active one
	f     *os.File // the active segment
	size  int64    // bytes in the active segment
	named bool     // the active segment's directory entry is known durable
	buf   []byte   // the record being written, reused
	err   error    // sticky: after a failed write or sync, bytes may be torn or lost
}

// OpenLog opens the log in dir, creating dir if needed: it removes the
// segments numbered below from, hands every other record's body to each (an
// error there is damage at that record) and repairs a torn tail. Appends
// continue the newest segment, or start segment max(from, 1).
func OpenLog(dir string, fm LogFormat, from uint64, each func(seg uint64, body []byte) error) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, fm: fm}
	names, err := filepath.Glob(filepath.Join(dir, strings.Replace(fm.Name, "%08d", "*", 1)))
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		var seg uint64
		if _, err := fmt.Sscanf(filepath.Base(name), strings.Replace(fm.Name, "%08d", "%d", 1), &seg); err != nil {
			return nil, &LogError{Segment: filepath.Base(name), Cause: err}
		}
		if seg >= from {
			l.segs = append(l.segs, seg)
		} else if err := os.Remove(name); err != nil {
			return nil, err
		}
	}
	slices.Sort(l.segs)
	torn, err := l.scan(each)
	if err != nil {
		return nil, err
	}
	for _, t := range torn {
		if t.end >= LogHeaderSize {
			err = os.Truncate(l.path(t.seg), int64(t.end))
		} else if err = os.Remove(l.path(t.seg)); err == nil {
			l.segs = slices.DeleteFunc(l.segs, func(s uint64) bool { return s == t.seg })
		}
		if err != nil {
			return nil, fmt.Errorf("wal: repairing a torn tail: %w", err)
		}
	}
	if len(l.segs) == 0 {
		l.segs, l.named = []uint64{max(from, 1)}, true
		if l.f, err = l.create(l.Seg()); err == nil {
			err = SyncDir(dir)
		}
	} else {
		l.f, err = os.OpenFile(l.path(l.Seg()), os.O_WRONLY|os.O_APPEND, 0)
	}
	if err == nil {
		l.size, err = l.f.Seek(0, io.SeekEnd)
	}
	if err != nil {
		l.f.Close()
		return nil, err
	}
	return l, nil
}

// tornTail is a segment whose complete records end at end, inside its
// header or a record.
type tornTail struct {
	seg uint64
	end int
}

// scan hands every record on disk to each, in order, and returns the torn
// tails. A torn tail that a record follows is damage.
func (l *Log) scan(each func(seg uint64, body []byte) error) (torn []tornTail, err error) {
	for _, seg := range l.segs {
		name := filepath.Base(l.path(seg))
		data, err := os.ReadFile(l.path(seg))
		if err != nil {
			return nil, err
		}
		off := min(len(data), LogHeaderSize)
		if off == LogHeaderSize && ([8]byte(data) != l.fm.Magic || binary.LittleEndian.Uint64(data[8:]) != seg) {
			return nil, &LogError{Segment: name, Cause: fmt.Errorf("bad header %x", data[:off])}
		}
		for off < len(data) {
			body, n, err := ingest.DecodeSealed(data[off:], l.fm.MaxRecord)
			if errors.Is(err, ingest.ErrIncomplete) {
				break
			}
			if err == nil && len(torn) > 0 {
				t := torn[0]
				return nil, &LogError{Segment: filepath.Base(l.path(t.seg)), Off: t.end,
					Cause: fmt.Errorf("a torn record is followed by %s's records", name)}
			}
			if err == nil {
				err = each(seg, body)
			}
			if err != nil {
				return nil, &LogError{Segment: name, Off: off, Cause: err}
			}
			off += n
		}
		if off < len(data) || off < LogHeaderSize {
			torn = append(torn, tornTail{seg, off})
		}
	}
	return torn, nil
}

// Scan is scan without the repair.
func (l *Log) Scan(each func(seg uint64, body []byte) error) error {
	_, err := l.scan(each)
	return err
}

// Seg returns the active segment's number.
func (l *Log) Seg() uint64 { return l.segs[len(l.segs)-1] }

// Size returns the active segment's size in bytes.
func (l *Log) Size() int64 { return l.size }

// Begin starts a record in the log's buffer; the caller appends the body and
// passes the result to Commit.
func (l *Log) Begin() []byte { return ingest.ReserveSealed(l.buf[:0]) }

// Commit seals the record in place and writes it with one write syscall. A
// record over the format's bound is refused before any byte is written.
func (l *Log) Commit(b []byte) error {
	l.buf = b
	if n := len(b) - ingest.SealedHeaderSize; l.err == nil && n > l.fm.MaxRecord {
		return fmt.Errorf("wal: a %d-byte record exceeds the %d-byte limit", n, l.fm.MaxRecord)
	}
	if l.err == nil {
		ingest.SealInPlace(b, 0)
		_, l.err = l.f.Write(b)
		l.size += int64(len(b))
	}
	return l.err
}

// Sync makes the active segment durable: its directory entry, when that may
// not be durable yet, then its bytes.
func (l *Log) Sync() error {
	if l.err == nil && !l.named {
		l.err = SyncDir(l.dir)
		l.named = l.err == nil
	}
	if l.err == nil {
		l.err = SyncFile(l.f)
	}
	return l.err
}

// Rotate starts the next segment, without waiting on the disk, and returns
// the previous one still open.
func (l *Log) Rotate() (old *os.File, err error) {
	seg := l.Seg() + 1
	f, err := l.create(seg)
	if err != nil {
		return nil, err
	}
	old, l.f, l.size, l.named = l.f, f, LogHeaderSize, false
	l.segs = append(l.segs, seg)
	return old, nil
}

// Seal makes a segment Rotate handed back durable, bytes and name, and
// closes it.
func (l *Log) Seal(old *os.File) error {
	err := SyncFile(old)
	if cerr := old.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = SyncDir(l.dir)
	}
	return err
}

// Remove deletes the segments before the active one that drop selects, then
// syncs the directory so that none comes back. It returns how many went.
func (l *Log) Remove(drop func(seg uint64) bool) (n int, err error) {
	kept := l.segs[:0]
	for i, seg := range l.segs {
		if err == nil && i < len(l.segs)-1 && drop(seg) {
			if err = os.Remove(l.path(seg)); err == nil || os.IsNotExist(err) {
				err, n = nil, n+1
				continue
			}
		}
		kept = append(kept, seg)
	}
	if l.segs = kept; err == nil && n > 0 {
		err = SyncDir(l.dir)
	}
	return n, err
}

// Close closes the active segment without syncing it. The handle stays, so
// an append racing the close fails instead of reading a nil.
func (l *Log) Close() error { return l.f.Close() }

func (l *Log) path(seg uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf(l.fm.Name, seg))
}

// create makes (exclusively) and heads a segment's file, name not synced.
func (l *Log) create(seg uint64) (*os.File, error) {
	f, err := os.OpenFile(l.path(seg), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err == nil {
		if _, err = f.Write(binary.LittleEndian.AppendUint64(append(make([]byte, 0, LogHeaderSize), l.fm.Magic[:]...), seg)); err != nil {
			f.Close()
			os.Remove(l.path(seg))
		}
	}
	return f, err
}
