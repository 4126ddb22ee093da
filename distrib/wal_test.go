package distrib

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"forwarddecay/ingest"
)

func walAppendN(t *testing.T, l *Log, n int) []Record {
	t.Helper()
	var recs []Record
	for i := 0; i < n; i++ {
		part := uint32(i % 3)
		seq, err := l.Append(part, uint64(100+i), float64(i), float64(10*i))
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, Record{Part: part, Seq: seq, Key: uint64(100 + i), Val: float64(i), Time: float64(10 * i)})
	}
	return recs
}

func walReplayAll(t *testing.T, l *Log) []Record {
	t.Helper()
	var got []Record
	if _, err := l.Replay(nil, nil, func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestLogRoundtrip: appended records replay identically, in order, with
// dense per-partition sequence numbers.
func TestLogRoundtrip(t *testing.T) {
	l, err := OpenLog(t.TempDir(), LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := walAppendN(t, l, 30)
	got := walReplayAll(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, appended %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	for p := uint32(0); p < 3; p++ {
		if l.seqs[p] != 10 {
			t.Errorf("partition %d LastSeq = %d, want 10", p, l.seqs[p])
		}
	}
}

// TestLogRotationAndReopen: small segments force rotation; reopening the
// directory restores sequence counters and replays everything, and new
// appends continue the sequence instead of restarting it.
func TestLogRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogConfig{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	walAppendN(t, l, 40)
	if len(l.segs) < 2 {
		t.Fatalf("128-byte segments held 40 records in %d segment(s)", len(l.segs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(dir, LogConfig{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.seqs[0]; got != 14 {
		t.Fatalf("reopened LastSeq(0) = %d, want 14", got)
	}
	seq, err := l2.Append(0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 15 {
		t.Fatalf("append after reopen assigned seq %d, want 15", seq)
	}
	if got := walReplayAll(t, l2); len(got) != 41 {
		t.Fatalf("replayed %d records after reopen, want 41", len(got))
	}
}

// TestLogReplayWatermarksAndDedup: the `after` watermarks skip
// checkpoint-covered records, the partition filter selects, and repeated
// sequences apply once.
func TestLogReplayWatermarksAndDedup(t *testing.T) {
	l, err := OpenLog(t.TempDir(), LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	walAppendN(t, l, 30) // 10 records in each of partitions 0,1,2

	var got []Record
	n, err := l.Replay(map[uint32]bool{1: true}, map[uint32]uint64{1: 7}, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(got) != 3 {
		t.Fatalf("replayed %d records past watermark 7, want 3", n)
	}
	for i, r := range got {
		if r.Part != 1 || r.Seq != uint64(8+i) {
			t.Fatalf("record %d: part %d seq %d, want part 1 seq %d", i, r.Part, r.Seq, 8+i)
		}
	}
}

// TestLogTrim: checkpoint watermarks covering the closed segments retire
// them; the active segment and uncovered segments survive, and replay past
// the watermarks still works.
func TestLogTrim(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogConfig{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	walAppendN(t, l, 40)
	before := len(l.segs)
	if before < 3 {
		t.Fatalf("need ≥3 segments for a meaningful trim, got %d", before)
	}

	// Watermarks cover everything: all closed segments go, the active stays.
	wm := map[uint32]uint64{0: 14, 1: 13, 2: 13}
	removed, err := l.Trim(wm)
	if err != nil {
		t.Fatal(err)
	}
	if removed != before-1 || len(l.segs) != 1 {
		t.Fatalf("trim removed %d of %d segments, %d left", removed, before, len(l.segs))
	}
	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(files) != 1 {
		t.Fatalf("%d segment files on disk after trim, want 1", len(files))
	}
	// New appends land in the surviving active segment and are exactly what
	// a replay past the watermarks yields.
	if _, err := l.Append(0, 9, 9, 9); err != nil {
		t.Fatal(err)
	}
	n, err := l.Replay(nil, wm, func(r Record) error {
		if r.Seq <= wm[r.Part] {
			t.Fatalf("replayed covered record %+v", r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replay past watermarks yielded %d records, want the 1 post-trim append", n)
	}
}

// TestLogTornTailRecovery: a crash mid-append leaves a half-written final
// record; OpenLog truncates it away and the log keeps working. The torn
// record was never acknowledged, so dropping it is correct.
func TestLogTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	walAppendN(t, l, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(files) != 1 {
		t.Fatalf("expected one segment, got %d", len(files))
	}
	st, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	if err := os.Truncate(files[0], st.Size()-(frameOverhead+walRecordLen)/2); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	defer l2.Close()
	got := walReplayAll(t, l2)
	if len(got) != 9 {
		t.Fatalf("replayed %d records after torn tail, want 9", len(got))
	}
	// The torn record's sequence was never durable, so it is reassigned.
	part := got[len(got)-1].Part
	if seq, err := l2.Append(part, 1, 1, 1); err != nil || seq != l2.seqs[part] {
		t.Fatalf("append after torn-tail recovery: seq %d err %v", seq, err)
	}
}

// TestLogForgedChecksumRefused: flipping a byte inside a record makes the
// segment refuse to load with a *LogError that unwraps to the ingest
// checksum failure — corruption is never silently replayed.
func TestLogForgedChecksumRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	walAppendN(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(walMagic)+frameOverhead+3] ^= 0x40 // inside the first record body
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenLog(dir, LogConfig{})
	var le *LogError
	if !errors.As(err, &le) {
		t.Fatalf("forged checksum loaded: %v", err)
	}
	var fe *ingest.FrameError
	if !errors.As(err, &fe) || fe.Kind != ingest.FrameBadChecksum {
		t.Fatalf("cause is %v, want an ingest bad-checksum frame error", err)
	}
}

// TestLogTruncatedMiddleSegmentRefused: a torn record is only tolerable in
// the newest segment; the same damage in an older segment is corruption.
func TestLogTruncatedMiddleSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogConfig{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	walAppendN(t, l, 40)
	if len(l.segs) < 2 {
		t.Fatalf("need multiple segments, got %d", len(l.segs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	st, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], st.Size()-5); err != nil {
		t.Fatal(err)
	}
	var le *LogError
	if _, err := OpenLog(dir, LogConfig{}); !errors.As(err, &le) {
		t.Fatalf("truncated middle segment loaded: %v", err)
	}
}
