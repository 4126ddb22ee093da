package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"forwarddecay/ingest"
	"forwarddecay/internal/faultinject"
)

var testFormat = LogFormat{Name: "seg-%08d.log", Magic: [8]byte{'T', 'E', 'S', 'T', 1, 0, 0, 0}, MaxRecord: 64}

// rec is the body of the history's record i; the lengths vary.
func rec(i int) []byte { return []byte(strings.Repeat(string(rune('a'+i)), 1+i%5)) }

func skip(uint64, []byte) error { return nil }

func segName(seg uint64) string { return fmt.Sprintf("seg-%08d.log", seg) }

// history runs the scripted history on a fresh log in dir: records 0–2 in
// segment 1 and a sync, a rotation, 3–5 in segment 2, a rotation, 6–7 in
// segment 3, the removal of segment 1, record 8 and a sync. Each rotation
// seals the old segment at once. It stops at the first error and returns
// it, with the records the log should hold by then: those committed, less
// segment 1's once its removal was asked for.
func history(dir string) (held [][]byte, err error) {
	l, err := OpenLog(dir, testFormat, 0, skip)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	type entry struct {
		seg  uint64
		body []byte
	}
	var log []entry
	commit := func(from, to int) func() error {
		return func() error {
			for i := from; i < to; i++ {
				if err := l.Commit(append(l.Begin(), rec(i)...)); err != nil {
					return err
				}
				log = append(log, entry{l.Seg(), rec(i)})
			}
			return nil
		}
	}
	rotate := func() error {
		old, err := l.Rotate()
		if err != nil {
			return err
		}
		return l.Seal(old)
	}
	remove := func() error {
		log = slices.DeleteFunc(log, func(e entry) bool { return e.seg == 1 })
		_, err := l.Remove(func(seg uint64) bool { return seg == 1 })
		return err
	}
	for _, step := range []func() error{commit(0, 3), l.Sync, rotate, commit(3, 6), rotate, commit(6, 8), remove, commit(8, 9), l.Sync} {
		if err = step(); err != nil {
			break
		}
	}
	for _, e := range log {
		held = append(held, e.body)
	}
	return held, err
}

// reopen opens the log in dir and returns its records.
func reopen(t *testing.T, dir string) (*Log, [][]byte) {
	t.Helper()
	var got [][]byte
	l, err := OpenLog(dir, testFormat, 0, func(_ uint64, body []byte) error {
		got = append(got, bytes.Clone(body))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got
}

// appendAndReopen checks that the log in dir continues: one more record,
// closed and reopened, follows want.
func appendAndReopen(t *testing.T, dir string, want [][]byte) {
	t.Helper()
	l, got := reopen(t, dir)
	if !slices.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("reopened to %q, want %q", got, want)
	}
	if err := l.Commit(append(l.Begin(), "more"...)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, got = reopen(t, dir)
	l.Close()
	if want = append(slices.Clone(want), []byte("more")); !slices.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("after an append: %q, want %q", got, want)
	}
}

// writeDir writes a log directory holding the given segment images.
func writeDir(t *testing.T, segs map[uint64][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for seg, data := range segs {
		if err := os.WriteFile(filepath.Join(dir, segName(seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// recordEnds lists the offsets in a segment image at which a record ends,
// the header's end first.
func recordEnds(data []byte) []int {
	ends := []int{LogHeaderSize}
	for off := LogHeaderSize; off < len(data); {
		_, n, err := ingest.DecodeSealed(data[off:], testFormat.MaxRecord)
		if err != nil {
			break
		}
		off += n
		ends = append(ends, off)
	}
	return ends
}

// TestLogHistoryRoundTrip: the scripted history leaves segments 2 and 3,
// and a reopen reads back exactly the records it holds.
func TestLogHistoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	held, err := history(dir)
	if err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(names) != 2 || filepath.Base(names[0]) != segName(2) || filepath.Base(names[1]) != segName(3) {
		t.Fatalf("segments on disk: %v", names)
	}
	appendAndReopen(t, dir, held)
}

// TestLogTornNewestSegment truncates the newest segment at every byte
// offset, its header included: the log reopens to exactly the records
// written in full, and appends continue.
func TestLogTornNewestSegment(t *testing.T) {
	base := t.TempDir()
	held, err := history(base)
	if err != nil {
		t.Fatal(err)
	}
	seg2, _ := os.ReadFile(filepath.Join(base, segName(2)))
	seg3, _ := os.ReadFile(filepath.Join(base, segName(3)))
	ends := recordEnds(seg3)
	for cut := 0; cut <= len(seg3); cut++ {
		dir := writeDir(t, map[uint64][]byte{2: seg2, 3: seg3[:cut]})
		whole := 0 // segment 3's records written in full
		for _, end := range ends[1:] {
			if end <= cut {
				whole++
			}
		}
		appendAndReopen(t, dir, held[:len(held)-3+whole])
	}
}

// TestLogDamagedOlderSegment: a truncation or a byte flip in a segment that
// records follow is a *LogError naming that segment. A cut exactly at a
// record boundary leaves a shorter, well-formed segment, which no reader can
// tell from one that was written that way; every other cut is caught.
func TestLogDamagedOlderSegment(t *testing.T) {
	base := t.TempDir()
	if _, err := history(base); err != nil {
		t.Fatal(err)
	}
	seg2, _ := os.ReadFile(filepath.Join(base, segName(2)))
	seg3, _ := os.ReadFile(filepath.Join(base, segName(3)))
	refused := func(what string, damaged []byte) {
		t.Helper()
		_, err := OpenLog(writeDir(t, map[uint64][]byte{2: damaged, 3: seg3}), testFormat, 0, skip)
		var le *LogError
		if !errors.As(err, &le) || le.Segment != segName(2) {
			t.Fatalf("%s: open gave %v, want a *LogError naming %s", what, err, segName(2))
		}
	}
	ends := recordEnds(seg2)
	for cut := 0; cut < len(seg2); cut++ {
		if !slices.Contains(ends, cut) {
			refused(fmt.Sprintf("cut at %d", cut), seg2[:cut])
		}
	}
	for off := range seg2 {
		flipped := bytes.Clone(seg2)
		flipped[off] ^= 0x20
		refused(fmt.Sprintf("flip at %d", off), flipped)
	}
}

// TestLogSyncPointsEnumerated fails each durable.sync and durable.dirsync
// point of the history in turn: the history surfaces the injected error,
// and a reopen sees a prefix of what it acknowledged: all of it, since no
// written byte is lost here (no power is cut). Appends then continue.
func TestLogSyncPointsEnumerated(t *testing.T) {
	defer faultinject.Reset()
	counts := map[string]uint64{}
	for _, point := range []string{"durable.sync", "durable.dirsync"} {
		faultinject.Set(point, faultinject.Fault{})
	}
	if _, err := history(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, point := range []string{"durable.sync", "durable.dirsync"} {
		counts[point] = faultinject.Hits(point)
	}
	// Files: the first sync, two seals, the last sync. Directory: the new
	// log's creation, two seals, the removal, and the last sync, whose
	// segment's name no seal has made durable yet.
	if counts["durable.sync"] != 4 || counts["durable.dirsync"] != 5 {
		t.Fatalf("the history hits %v, want 4 file and 5 directory syncs", counts)
	}
	injected := errors.New("injected sync failure")
	for point, n := range counts {
		for hit := uint64(1); hit <= n; hit++ {
			faultinject.Reset()
			faultinject.Set(point, faultinject.Fault{ErrAt: hit, Err: injected})
			dir := t.TempDir()
			held, err := history(dir)
			if !errors.Is(err, injected) {
				t.Fatalf("%s hit %d: the history gave %v, want the injected error", point, hit, err)
			}
			faultinject.Reset()
			_, got := reopen(t, dir)
			if !slices.EqualFunc(got, held, bytes.Equal) {
				t.Fatalf("%s hit %d: reopened to %q, want %q", point, hit, got, held)
			}
			appendAndReopen(t, dir, got)
		}
	}
}

// TestLogCommitAllocs: an append encodes in the log's reused buffer and
// issues one write, allocating nothing.
func TestLogCommitAllocs(t *testing.T) {
	l, err := OpenLog(t.TempDir(), testFormat, 0, skip)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	body := rec(3)
	if avg := testing.AllocsPerRun(100, func() {
		if err := l.Commit(append(l.Begin(), body...)); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Commit allocates %.2f objects, want 0", avg)
	}
}

// TestLogRefusesOversizedRecord: a record over the bound is refused before
// any byte is written, and the log stays open.
func TestLogRefusesOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, testFormat, 0, skip)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(append(l.Begin(), make([]byte, testFormat.MaxRecord+1)...)); err == nil {
		t.Fatal("an oversized record was written")
	}
	if err := l.Commit(append(l.Begin(), "ok"...)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	appendAndReopen(t, dir, [][]byte{[]byte("ok")})
}
