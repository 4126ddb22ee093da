package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"forwarddecay/gsql"
	"forwarddecay/internal/codec/codectest"
	"forwarddecay/internal/durable"
)

// walName formats the file name for an epoch.
func walName(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ingest-%08d.wal", epoch))
}

// walFiles lists the epochs that have a file in dir.
func walFiles(t *testing.T, dir string) (epochs []uint64) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "ingest-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		var e uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "ingest-%08d.wal", &e); err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, e)
	}
	slices.Sort(epochs)
	return epochs
}

// tear appends the first bytes of a record a crash cut short.
func tear(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
}

// writeFixtureHistory writes every record kind across a rotation: frames,
// both heartbeat types and the four catalog records, in two epoch files.
func writeFixtureHistory(t *testing.T, dir string) {
	t.Helper()
	w, _, err := openWAL(dir, walPos{})
	if err != nil {
		t.Fatal(err)
	}
	pkts := genPackets(t, 6, 100, 3)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.LogFrame(7, 1, pkts[:4]))
	must(w.LogHeartbeat(gsql.Int(-3)))
	must(w.LogHeartbeat(gsql.Float(4.5)))
	must(w.logCatalog(walRecord{kind: recAttach, id: 1, text: testQuery}))
	must(w.logCatalog(walRecord{kind: recQuarantine, id: 1, text: gsql.QuarantineBreaker, ckpt: []byte{1, 2, 3}}))
	must(w.logCatalog(walRecord{kind: recRevive, id: 1}))
	old, err := w.rotate()
	must(err)
	must(old.Close())
	must(w.LogFrame(7, 2, pkts[4:]))
	must(w.logCatalog(walRecord{kind: recDetach, id: 1}))
	must(w.close())
}

// TestWALBytesMatchFixture: the log writes, byte for byte, the files in
// testdata, which were recorded before the segment mechanics moved into
// internal/durable, but for the sum slots: those were core.HashBytes then
// and are core.Checksum now, so every slot is checked and rewritten to the
// earlier sum before the comparison. Every record kind and a rotation are
// covered.
func TestWALBytesMatchFixture(t *testing.T) {
	dir := t.TempDir()
	writeFixtureHistory(t, dir)
	for _, name := range []string{"ingest-00000001.wal", "ingest-00000002.wal"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got = codectest.ParentHeaders(t, got, durable.LogHeaderSize)
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s moved:\n got  %x\n want %x", name, got, want)
		}
	}
}

// TestRestartAfterCrashInRotation: a rotation creates the next epoch's file
// and then writes its header. A kill between the two, or a power cut before
// the new file was synced, leaves the newest file shorter than its header.
// That file holds no record, so the log opens past it, and so does the
// service.
func TestRestartAfterCrashInRotation(t *testing.T) {
	for _, size := range []int{0, 5, 15} {
		dir := t.TempDir()
		w, _, err := openWAL(dir, walPos{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.logCatalog(walRecord{kind: recAttach, id: 1, text: testQuery}); err != nil {
			t.Fatal(err)
		}
		if err := w.LogFrame(7, 1, genPackets(t, 20, 100, 1)); err != nil {
			t.Fatal(err)
		}
		w.close()
		hdr, err := os.ReadFile(walName(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		hdr[8] = 2 // epoch 2's header, cut short
		if err := os.WriteFile(walName(dir, 2), hdr[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, recs, err := openWAL(dir, walPos{})
		if err != nil {
			t.Fatalf("%d-byte newest file: %v", size, err)
		}
		if len(recs) != 2 || recs[0].kind != recAttach || recs[1].kind != recFrame {
			t.Fatalf("%d-byte newest file: replayed %d records", size, len(recs))
		}
		if err := w2.LogHeartbeat(gsql.Int(9)); err != nil {
			t.Fatal(err)
		}
		w2.close()
		if _, recs, err = openWAL(dir, walPos{}); err != nil || len(recs) != 3 {
			t.Fatalf("%d-byte newest file, appended after: %d records, %v", size, len(recs), err)
		}

		svc := startService(t, dir, nil)
		svc.mu.Lock()
		n := len(svc.queries)
		svc.mu.Unlock()
		if n != 1 || svc.Mode() != ModeHealthy {
			t.Fatalf("%d-byte newest file: service up in mode %v with %d queries, want healthy with 1", size, svc.Mode(), n)
		}
		if err := svc.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALAppendAllocs: a frame append encodes, seals and writes in the
// log's reused buffer, so the pump's log step allocates nothing.
func TestWALAppendAllocs(t *testing.T) {
	w, _, err := openWAL(t.TempDir(), walPos{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	pkts := genPackets(t, 64, 100, 1)
	seq := uint64(0)
	if avg := testing.AllocsPerRun(200, func() {
		seq++
		if err := w.LogFrame(7, seq, pkts); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("LogFrame allocates %.2f objects per append, want 0", avg)
	}
}
