package distrib

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"forwarddecay/decay"
	"forwarddecay/internal/codec"
	"forwarddecay/internal/faultinject"
)

func faultCfg(sites int) Config {
	return Config{
		Sites:       sites,
		Model:       decay.NewForward(decay.NewExp(0.01), 0),
		HHK:         16,
		QuantileU:   1 << 16,
		QuantileEps: 0.05,
	}
}

func feed(t *testing.T, c *Cluster, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ob := Observation{Key: uint64(i % 17), Value: float64(1 + i%7), Time: float64(i % 100)}
		if err := c.Observe(i%c.Sites(), ob); err != nil {
			t.Fatal(err)
		}
	}
}

// TestObserveRejectsNonFinite: NaN/±Inf values and timestamps are rejected
// at the cluster ingest boundary with a typed error naming the field, and
// never reach a site.
func TestObserveRejectsNonFinite(t *testing.T) {
	c, err := New(faultCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var bad *BadObservationError
	err = c.Observe(0, Observation{Key: 1, Value: math.NaN(), Time: 1})
	if !errors.As(err, &bad) || bad.Field != "Value" {
		t.Fatalf("NaN value: %v", err)
	}
	err = c.Observe(0, Observation{Key: 1, Value: 1, Time: math.Inf(1)})
	if !errors.As(err, &bad) || bad.Field != "Time" {
		t.Fatalf("Inf time: %v", err)
	}
	// The cluster still snapshots cleanly with only good data merged.
	feed(t, c, 100)
	sum, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Sum.Count(100); got <= 0 || math.IsNaN(got) {
		t.Fatalf("poisoned decayed count: %v", got)
	}
}

// restampSlice re-seals a slice with its envelope's landmark stamp
// changed, as a corrupt writer would: the hash is valid, the frame is not.
func restampSlice(t testing.TB, blob []byte, landmark float64) []byte {
	t.Helper()
	payload, ok := codec.Unseal(blob)
	if !ok {
		t.Fatal("slice does not unseal")
	}
	payload = bytes.Clone(payload)
	codec.PutU64(payload[1+4+8:], math.Float64bits(landmark)) // version, partition, lastSeq
	return codec.Seal(payload)
}

// TestMergeRejectsMismatchedModel: a slice whose landmark stamp is not the
// cluster's is refused with a *LandmarkError wherever a slice is trusted —
// a snapshot answer (before anything is merged, naming the site), a
// handoff install, and a checkpoint rebuild. Silently blending
// incompatible decayed weights would corrupt the summary.
func TestMergeRejectsMismatchedModel(t *testing.T) {
	cfg := faultCfg(1)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Forge a partition slice cut under a different landmark, and one
	// re-sealed with a different stamp over state cut in the cluster's.
	forgerCfg := cfg
	forgerCfg.Model = decay.NewForward(decay.NewExp(0.01), 500)
	forger := &Cluster{cfg: forgerCfg}
	ps := forger.newPartState()
	ps.observe(Observation{Key: 1, Value: 3, Time: 510}, 0)
	blob, err := encodeSlice(7, ps)
	if err != nil {
		t.Fatal(err)
	}
	good := c.newPartState()
	good.observe(Observation{Key: 2, Value: 5, Time: 10}, 0)
	goodBlob, err := encodeSlice(3, good)
	if err != nil {
		t.Fatal(err)
	}
	ownBlob, err := encodeSlice(7, good)
	if err != nil {
		t.Fatal(err)
	}
	restamped := restampSlice(t, ownBlob, 500)

	for name, bad := range map[string][]byte{"foreign": blob, "restamped": restamped} {
		var le *LandmarkError
		// A good slice riding along must not be merged either: the whole
		// site is rejected atomically.
		parts, mergeErr := c.decodeAnswer(3, siteAnswer{parts: map[uint32][]byte{7: bad, 3: goodBlob}})
		if !errors.As(mergeErr, &le) || le.Part != 7 || le.Slice != 500 || le.Cluster != 0 {
			t.Fatalf("%s: snapshot decode = %v, want *LandmarkError for partition 7", name, mergeErr)
		}
		if !strings.Contains(mergeErr.Error(), "site 3") {
			t.Fatalf("%s: error does not name the offending site: %v", name, mergeErr)
		}
		if parts != nil {
			t.Fatalf("%s: rejected site still returned %d partitions", name, len(parts))
		}

		held := map[uint32]*partState{}
		if err := installSlices(held, map[uint32][]byte{7: bad}, cfg.Model.Landmark); !errors.As(err, &le) || le.Part != 7 {
			t.Fatalf("%s: install = %v, want *LandmarkError", name, err)
		}
		if len(held) != 0 {
			t.Fatalf("%s: refused slice was installed", name)
		}

		c.opMu.Lock()
		c.ckpt[7] = ckptEntry{blob: bad}
		c.routeMu.Lock()
		_, err := c.rebuildParts([]uint32{7})
		c.routeMu.Unlock()
		delete(c.ckpt, 7)
		c.opMu.Unlock()
		if !errors.As(err, &le) || le.Part != 7 {
			t.Fatalf("%s: rebuild = %v, want *LandmarkError", name, err)
		}
	}
}

// TestSnapshotRetriesTransientFailure: with the default retry budget, a
// site that fails exactly one snapshot attempt is retried and the snapshot
// completes with no missing sites.
func TestSnapshotRetriesTransientFailure(t *testing.T) {
	defer faultinject.Reset()
	c, err := New(faultCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	feed(t, c, 300)
	faultinject.Set("distrib.site.snapshot", faultinject.Fault{ErrAt: 1})
	sum, err := c.Snapshot()
	if err != nil {
		t.Fatalf("transient failure not retried: %v", err)
	}
	if len(sum.MissingSites) != 0 {
		t.Fatalf("retry should have recovered the site, missing %v", sum.MissingSites)
	}
	if hits := faultinject.Hits("distrib.site.snapshot"); hits != 4 {
		t.Fatalf("expected 3 site answers + 1 retry = 4 hits, got %d", hits)
	}
}

// TestSnapshotSkipsFailedSiteWithinTolerance: a persistently failing site
// is skipped when MaxFailedSites allows, and the Summary names exactly the
// missing partition while covering the rest.
func TestSnapshotSkipsFailedSiteWithinTolerance(t *testing.T) {
	defer faultinject.Reset()
	cfg := faultCfg(3)
	cfg.SnapshotRetries = -1 // no retries: first failure is final
	cfg.MaxFailedSites = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	feed(t, c, 300)
	// Site 0 answers first; make its every attempt fail.
	faultinject.Set("distrib.site.snapshot", faultinject.Fault{ErrAt: 1})
	sum, err := c.Snapshot()
	if err != nil {
		t.Fatalf("tolerated failure still failed snapshot: %v", err)
	}
	if len(sum.MissingSites) != 1 || sum.MissingSites[0] != 0 {
		t.Fatalf("MissingSites = %v, want [0]", sum.MissingSites)
	}
	// The surviving partitions are still merged and queryable.
	if got := sum.Sum.Count(100); got <= 0 {
		t.Fatalf("surviving sites not merged: count %v", got)
	}
}

// TestSnapshotFailsBeyondTolerance: more failing sites than MaxFailedSites
// fails the whole snapshot with the failing site's error rather than
// silently returning a hollow summary.
func TestSnapshotFailsBeyondTolerance(t *testing.T) {
	defer faultinject.Reset()
	cfg := faultCfg(3)
	cfg.SnapshotRetries = -1
	cfg.MaxFailedSites = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	feed(t, c, 90)
	faultinject.Set("distrib.site.snapshot", faultinject.Fault{ErrEvery: 1}) // every attempt fails
	if _, err := c.Snapshot(); err == nil {
		t.Fatal("snapshot succeeded with every site failing")
	} else if !strings.Contains(err.Error(), "site") {
		t.Fatalf("error does not identify a site: %v", err)
	}
}

// TestSnapshotTimeoutSkipsStalledSite: a site that stalls while serving a
// snapshot is bounded by SnapshotTimeout per attempt and then skipped
// within the failure tolerance — the coordinator never hangs on a dead
// site.
func TestSnapshotTimeoutSkipsStalledSite(t *testing.T) {
	defer faultinject.Reset()
	cfg := faultCfg(2)
	cfg.SnapshotTimeout = 30 * time.Millisecond
	cfg.SnapshotRetries = -1
	cfg.MaxFailedSites = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	feed(t, c, 100)
	faultinject.Set("distrib.site.snapshot", faultinject.Fault{DelayAt: 1, Delay: 300 * time.Millisecond})
	start := time.Now()
	sum, err := c.Snapshot()
	if err != nil {
		t.Fatalf("stalled site not skipped: %v", err)
	}
	if len(sum.MissingSites) != 1 {
		t.Fatalf("MissingSites = %v, want one stalled site", sum.MissingSites)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("coordinator hung on stalled site: %v", el)
	}
	// The stalled site's late answer must not wedge it: it still serves
	// the next snapshot (after its injected delay has elapsed).
	faultinject.Reset()
	time.Sleep(350 * time.Millisecond)
	sum2, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum2.MissingSites) != 0 {
		t.Fatalf("recovered site still missing: %v", sum2.MissingSites)
	}
}
