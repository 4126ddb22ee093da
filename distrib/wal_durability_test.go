package distrib

import (
	"errors"
	"strings"
	"testing"

	"forwarddecay/internal/faultinject"
)

// TestLogRotateSyncFailureSurfaced: a failed fsync while sealing the outgoing
// segment must abort the rotation with the injected error — the seal is what
// makes "this segment's records are durable" true before a checkpoint can
// ever cover (and Trim can ever delete) them.
func TestLogRotateSyncFailureSurfaced(t *testing.T) {
	defer faultinject.Reset()
	l, err := OpenLog(t.TempDir(), LogConfig{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Fill past the rotation threshold so the next Append must rotate.
	if _, err := l.Append(0, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0, 2, 2, 2); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("simulated device failure at segment seal")
	faultinject.Set("durable.sync", faultinject.Fault{ErrEvery: 1, Err: injected})
	_, err = l.Append(0, 3, 3, 3)
	if !errors.Is(err, injected) {
		t.Fatalf("Append during poisoned rotation: err = %v, want wrapped %v", err, injected)
	}
	if !strings.Contains(err.Error(), "sealing segment") {
		t.Errorf("error does not name the seal step: %v", err)
	}
	// Healing the device lets the log resume: the deferred rotation happens
	// and the record lands in the fresh segment.
	faultinject.Reset()
	seq, err := l.Append(0, 3, 3, 3)
	if err != nil {
		t.Fatalf("Append after heal: %v", err)
	}
	if seq != 3 {
		t.Fatalf("post-heal seq = %d, want 3", seq)
	}
}

// TestLogTrimDirSyncFailureSurfaced: Trim reports a directory-sync failure
// instead of silently claiming the removals are durable.
func TestLogTrimDirSyncFailureSurfaced(t *testing.T) {
	defer faultinject.Reset()
	l, err := OpenLog(t.TempDir(), LogConfig{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	walAppendN(t, l, 12) // forces several rotations at 64-byte segments
	if len(l.segs) < 2 {
		t.Fatalf("expected multiple segments, have %d", len(l.segs))
	}
	injected := errors.New("simulated device failure at dir fsync")
	faultinject.Set("durable.dirsync", faultinject.Fault{ErrEvery: 1, Err: injected})
	watermark := map[uint32]uint64{0: 1 << 60, 1: 1 << 60, 2: 1 << 60}
	if _, err := l.Trim(watermark); !errors.Is(err, injected) {
		t.Fatalf("Trim: err = %v, want wrapped %v", err, injected)
	}
}

// TestLogCloseSyncFailureSurfaced: Close fsyncs the active segment and
// reports a failure rather than losing the tail silently.
func TestLogCloseSyncFailureSurfaced(t *testing.T) {
	defer faultinject.Reset()
	l, err := OpenLog(t.TempDir(), LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	walAppendN(t, l, 3)
	injected := errors.New("simulated device failure at close fsync")
	faultinject.Set("durable.sync", faultinject.Fault{ErrEvery: 1, Err: injected})
	if err := l.Close(); !errors.Is(err, injected) {
		t.Fatalf("Close: err = %v, want wrapped %v", err, injected)
	}
}
