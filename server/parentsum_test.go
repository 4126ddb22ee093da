package server

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/codec"
	"forwarddecay/internal/codec/codectest"
	"forwarddecay/internal/core"
	"forwarddecay/internal/durable"
)

// fixtureSegments are the log segments in testdata, sealed with core.HashBytes
// as every record was before core.Checksum.
var fixtureSegments = []string{"ingest-00000001.wal", "ingest-00000002.wal"}

// copyFixtureSegments copies the testdata segments into a new directory.
func copyFixtureSegments(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range fixtureSegments {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// badSums are the two ways a sum slot can be wrong: the tag with a CRC that
// is not the body's, and a value that is neither sum.
func badSums(body []byte) map[string]uint64 {
	return map[string]uint64{
		"tagged, wrong CRC": core.Checksum(body) ^ 1,
		"neither sum":       core.HashBytes(body) ^ 1<<63,
	}
}

// TestParentLayoutSealedWAL: segments whose records carry core.HashBytes sums
// replay exactly the records the log writes today, records appended to them
// carry the new sum and replay beside them, and a record whose slot holds
// neither of its sums is refused.
func TestParentLayoutSealedWAL(t *testing.T) {
	fresh := t.TempDir()
	writeFixtureHistory(t, fresh)
	_, want, err := openWAL(fresh, walPos{})
	if err != nil {
		t.Fatal(err)
	}

	dir := copyFixtureSegments(t)
	w, got, err := openWAL(dir, walPos{})
	if err != nil {
		t.Fatalf("parent segments: %v", err)
	}
	if len(got) != 8 || !reflect.DeepEqual(got, want) {
		t.Fatalf("parent segments replay %d records:\n%+v\nwant %d:\n%+v", len(got), got, len(want), want)
	}
	// A segment that holds both sums: the parent's records, then one sealed now.
	if err := w.LogHeartbeat(gsql.Int(11)); err != nil {
		t.Fatal(err)
	}
	w.close()
	_, mixed, err := openWAL(dir, walPos{})
	if err != nil || len(mixed) != len(want)+1 || !reflect.DeepEqual(mixed[:len(want)], want) || mixed[len(want)].hb != gsql.Int(11) {
		t.Fatalf("mixed segment: %d records, %v", len(mixed), err)
	}

	// The first record of the first segment, after its header, is damaged.
	for _, name := range []string{"tagged, wrong CRC", "neither sum"} {
		dir := copyFixtureSegments(t)
		path := filepath.Join(dir, fixtureSegments[0])
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at := durable.LogHeaderSize
		body := b[at+ingest.SealedHeaderSize : at+ingest.SealedHeaderSize+int(binary.LittleEndian.Uint32(b[at:]))]
		binary.LittleEndian.PutUint64(b[at+4:], badSums(body)[name])
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var le *durable.LogError
		var fe *ingest.FrameError
		if _, _, err := openWAL(dir, walPos{}); !errors.As(err, &le) || !errors.As(err, &fe) || fe.Kind != ingest.FrameBadChecksum {
			t.Errorf("%s: opened with %v, want a bad-checksum LogError", name, err)
		}
	}
}

// TestParentLayoutSealedState: a directory whose state file, engine
// checkpoints and log records all carry core.HashBytes sums, as earlier
// releases sealed them, restores its query from the state, replays the log
// tail past it, and streams on bit-identical to the serial oracle. A state
// file whose sum slot holds neither of its sums is refused.
func TestParentLayoutSealedState(t *testing.T) {
	dir := t.TempDir()
	pkts := genPackets(t, 6000, 50, 61)
	want := oracleRows(t, pkts)
	const frame = 64
	cut, logged := 40*frame, 60*frame // state through cut; the rest to logged only in the log

	svc1 := startService(t, dir, func(c *Config) { c.ResultLog = 1 << 15 })
	id, err := svc1.Attach(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, dialIngest(t, svc1, 5), pkts[:cut])
	if err := svc1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	st, err := loadState(dir)
	if err != nil || st == nil || len(st.queries) != 1 {
		t.Fatalf("state after shutdown: %+v, %v", st, err)
	}
	w, _, err := openWAL(dir, walPos{st.walEpoch, st.walApplied})
	if err != nil {
		t.Fatal(err)
	}
	seq := st.sessions[5]
	for i := cut; i < logged; i += frame {
		seq++
		if err := w.LogFrame(5, seq, pkts[i:i+frame]); err != nil {
			t.Fatal(err)
		}
	}
	w.close()

	// Every sum in the directory goes back to core.HashBytes: the log's
	// records, each query's engine checkpoint and the state file's trailer.
	segs, err := filepath.Glob(filepath.Join(dir, "ingest-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	for _, name := range segs {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, codectest.ParentHeaders(t, b, durable.LogHeaderSize), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b := beginState(nil, st.walEpoch, st.walApplied, st.nextQueryID, len(st.queries))
	for i := range st.queries {
		st.queries[i].ckpt = codectest.ParentTrailer(t, st.queries[i].ckpt)
		ring := newResultLog(1 << 15)
		ring.restoreRows(st.queries[i].base, st.queries[i].rows)
		b = appendQueryState(b, &st.queries[i], ring)
	}
	image := codectest.ParentTrailer(t, codec.Seal(finishState(b, st.sessions)))

	body := image[:len(image)-8]
	for name, slot := range badSums(body) {
		bad := binary.LittleEndian.AppendUint64(append([]byte(nil), body...), slot)
		if _, err := decodeState(bad); err == nil {
			t.Errorf("%s: a state file decoded", name)
		}
	}
	if err := writeState(dir, image); err != nil {
		t.Fatal(err)
	}

	svc2 := startService(t, dir, func(c *Config) { c.ResultLog = 1 << 15 })
	if got := svc2.rt.Load().listener.Sessions()[5]; got != seq {
		t.Fatalf("session 5 recovered at seq %d, want %d (the state's and the replayed tail's)", got, seq)
	}
	ch, err := dialControl(t, svc2).Subscribe(id, 1, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, dialIngest(t, svc2, 6), pkts[logged:])
	rows, _ := collectRows(t, ch, 1, len(want), 30*time.Second)
	requireIdentical(t, want, rows, "stream continued from a directory sealed with core.HashBytes")
}
