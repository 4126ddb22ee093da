package distrib

import (
	"errors"
	"strings"
	"testing"
	"time"

	"forwarddecay/decay"
	"forwarddecay/internal/faultinject"
	"forwarddecay/metrics"
)

// elasticCfg uses a dyadic decay rate and will be fed integer timestamps,
// so log replays are exact in float64 and bit-for-bit comparisons against
// an oracle are meaningful.
func elasticCfg(sites int) Config {
	return Config{
		Sites:       sites,
		Model:       decay.NewForward(decay.NewExp(1.0/1024), 0),
		HHK:         32,
		QuantileU:   1 << 11,
		QuantileEps: 0.05,
		Partitions:  32,
	}
}

// feedKeyed drives identical keyed observations into any number of
// clusters, failing on any rejected (unacknowledged) observation.
func feedKeyed(t *testing.T, lo, hi int, cls ...*Cluster) {
	t.Helper()
	for i := lo; i < hi; i++ {
		ob := Observation{Key: uint64(i % 23), Value: float64(1 + i%11), Time: float64(i)}
		for _, c := range cls {
			if err := c.ObserveKeyed(ob); err != nil {
				t.Fatalf("observation %d not acknowledged: %v", i, err)
			}
		}
	}
}

// requireBitIdentical compares a subject snapshot to the oracle's with ==:
// the same per-partition observation order must leave no float-level trace
// of the churn.
func requireBitIdentical(t *testing.T, subject, oracle *Cluster, now float64) {
	t.Helper()
	ss, err := subject.Snapshot()
	if err != nil {
		t.Fatalf("subject snapshot: %v", err)
	}
	if len(ss.MissingSites) != 0 {
		t.Fatalf("subject snapshot missing sites %v", ss.MissingSites)
	}
	os, err := oracle.Snapshot()
	if err != nil {
		t.Fatalf("oracle snapshot: %v", err)
	}
	if ss.Sum.N() != os.Sum.N() {
		t.Fatalf("subject N %d, oracle N %d: acknowledged observations lost", ss.Sum.N(), os.Sum.N())
	}
	if got, want := ss.Sum.Value(now), os.Sum.Value(now); got != want {
		t.Fatalf("subject sum %v, oracle %v (not bit-identical)", got, want)
	}
	if got, want := ss.Sum.Count(now), os.Sum.Count(now); got != want {
		t.Fatalf("subject count %v, oracle %v (not bit-identical)", got, want)
	}
	if got, want := ss.Sum.Mean(), os.Sum.Mean(); got != want {
		t.Fatalf("subject mean %v, oracle %v", got, want)
	}
	if got, want := ss.Sum.Variance(), os.Sum.Variance(); got != want {
		t.Fatalf("subject variance %v, oracle %v", got, want)
	}
}

// TestAddRemoveSiteHandoffExact grows and shrinks a live cluster mid-stream
// and requires the merged snapshot to stay bit-identical to a static-roster
// oracle fed the same stream: the quiesce→cut→ship→install handoff must be
// invisible at float level.
func TestAddRemoveSiteHandoffExact(t *testing.T) {
	subject, err := New(elasticCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	defer subject.Close()
	oracle, err := New(elasticCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	feedKeyed(t, 0, 2000, subject, oracle)
	added, err := subject.AddSite()
	if err != nil {
		t.Fatalf("AddSite: %v", err)
	}
	if subject.Sites() != 4 {
		t.Fatalf("Sites() = %d after add, want 4", subject.Sites())
	}
	feedKeyed(t, 2000, 4000, subject, oracle)
	requireBitIdentical(t, subject, oracle, 4000)

	if err := subject.RemoveSite(added); err != nil {
		t.Fatalf("RemoveSite: %v", err)
	}
	if subject.Sites() != 3 {
		t.Fatalf("Sites() = %d after remove, want 3", subject.Sites())
	}
	feedKeyed(t, 4000, 6000, subject, oracle)
	requireBitIdentical(t, subject, oracle, 6000)

	h := subject.Health()
	if h.Handoffs != 2 {
		t.Errorf("Handoffs = %d, want 2", h.Handoffs)
	}
	if h.HandoffPartitions == 0 {
		t.Error("handoffs moved zero partitions")
	}
}

// TestCrashRecoverFromLog kills a site mid-stream: keyed observations keep
// being acknowledged (absorbed by the write-ahead log), snapshots stay
// complete via coordinator-side rebuild, and RecoverSite returns the site
// bit-identical to the oracle that never crashed.
func TestCrashRecoverFromLog(t *testing.T) {
	ms := metrics.NewCounterSet()
	cfg := elasticCfg(3)
	cfg.WALDir = t.TempDir()
	cfg.WALSegmentBytes = 1 << 14
	cfg.Metrics = ms
	subject, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer subject.Close()
	oracle, err := New(elasticCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	feedKeyed(t, 0, 1500, subject, oracle)
	if err := subject.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	feedKeyed(t, 1500, 2500, subject, oracle)

	victim := subject.LiveSites()[1]
	if err := subject.CrashSite(victim); err != nil {
		t.Fatal(err)
	}
	if got := subject.DownSites(); len(got) != 1 || got[0] != victim {
		t.Fatalf("DownSites = %v, want [%d]", got, victim)
	}
	// Observations for the dead site's partitions are acknowledged into the
	// log; a snapshot while it is down rebuilds them coordinator-side.
	feedKeyed(t, 2500, 3500, subject, oracle)
	requireBitIdentical(t, subject, oracle, 3500)

	if err := subject.RecoverSite(victim); err != nil {
		t.Fatalf("RecoverSite: %v", err)
	}
	feedKeyed(t, 3500, 4500, subject, oracle)
	requireBitIdentical(t, subject, oracle, 4500)

	h := subject.Health()
	if h.SiteCrashes != 1 || h.SiteRejoins != 1 {
		t.Errorf("crashes/rejoins = %d/%d, want 1/1", h.SiteCrashes, h.SiteRejoins)
	}
	if h.ReplayedRecords == 0 {
		t.Error("recovery replayed zero log records")
	}
	if h.LoggedRecords != 4500 {
		t.Errorf("LoggedRecords = %d, want 4500", h.LoggedRecords)
	}
	// The same counters are mirrored into the metrics registry.
	if got := ms.Get("distrib.site_rejoins"); got != 1 {
		t.Errorf("metrics mirror distrib.site_rejoins = %d, want 1", got)
	}
	if got := ms.Get("distrib.logged_records"); got != 4500 {
		t.Errorf("metrics mirror distrib.logged_records = %d, want 4500", got)
	}
}

// TestCrashDuringHandoff arms the handoff fault point: the source site dies
// mid-cut, AddSite quarantines it and rebuilds the moved partitions from
// checkpoint + log — and the final state is still bit-identical.
func TestCrashDuringHandoff(t *testing.T) {
	defer faultinject.Reset()
	cfg := elasticCfg(2)
	cfg.WALDir = t.TempDir()
	subject, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer subject.Close()
	oracle, err := New(elasticCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	feedKeyed(t, 0, 2000, subject, oracle)
	if err := subject.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feedKeyed(t, 2000, 3000, subject, oracle)

	faultinject.Set("distrib.site.handoff", faultinject.Fault{ErrAt: 1})
	_, err = subject.AddSite()
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("AddSite with handoff fault returned %v, want quarantine error", err)
	}
	faultinject.Reset()
	if h := subject.Health(); h.SiteCrashes == 0 {
		t.Error("handoff crash not recorded")
	}
	// The crashed source's partitions and the moved partitions both come
	// back from the log; ingest continues unharmed.
	feedKeyed(t, 3000, 4000, subject, oracle)
	requireBitIdentical(t, subject, oracle, 4000)
}

// TestRouteErrors: explicit targeting of unknown or downed sites fails with
// a typed *RouteError instead of the old silent index wrapping, and keyed
// routing to a downed owner without a log is also a typed error.
func TestRouteErrors(t *testing.T) {
	c, err := New(elasticCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ob := Observation{Key: 5, Value: 1, Time: 1}

	var re *RouteError
	if err := c.Observe(99, ob); !errors.As(err, &re) || re.Site != 99 {
		t.Fatalf("Observe(99) = %v, want *RouteError for site 99", err)
	}
	if err := c.Observe(-1, ob); !errors.As(err, &re) {
		t.Fatalf("Observe(-1) = %v, want *RouteError (no wrapping)", err)
	}

	// Crash a keyed owner: with no WAL the route must fail loudly.
	owner, ok := c.ring.Owner(c.partitionOf(ob.Key))
	if !ok {
		t.Fatal("no owner")
	}
	if err := c.CrashSite(owner); err != nil {
		t.Fatal(err)
	}
	if err := c.ObserveKeyed(ob); !errors.As(err, &re) || re.Site != owner {
		t.Fatalf("ObserveKeyed to downed owner = %v, want *RouteError for site %d", err, owner)
	}
	if err := c.Observe(owner, ob); !errors.As(err, &re) {
		t.Fatalf("Observe(downed) = %v, want *RouteError", err)
	}
	if err := c.CrashSite(owner); !errors.As(err, &re) {
		t.Fatalf("CrashSite(downed) = %v, want *RouteError", err)
	}
	if err := c.RecoverSite(99); !errors.As(err, &re) {
		t.Fatalf("RecoverSite(99) = %v, want *RouteError", err)
	}
}

// TestRemoveDownedSite: removing a crashed site reassigns its partitions to
// the survivors via log rebuild, after which it no longer counts as down.
func TestRemoveDownedSite(t *testing.T) {
	cfg := elasticCfg(3)
	cfg.WALDir = t.TempDir()
	subject, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer subject.Close()
	oracle, err := New(elasticCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	feedKeyed(t, 0, 2000, subject, oracle)
	victim := subject.LiveSites()[0]
	if err := subject.CrashSite(victim); err != nil {
		t.Fatal(err)
	}
	if err := subject.RemoveSite(victim); err != nil {
		t.Fatalf("removing downed site: %v", err)
	}
	if len(subject.DownSites()) != 0 {
		t.Fatalf("DownSites = %v after removal", subject.DownSites())
	}
	feedKeyed(t, 2000, 3000, subject, oracle)
	requireBitIdentical(t, subject, oracle, 3000)
}

// TestRemoveLastSiteRefused: the cluster refuses to shrink to zero.
func TestRemoveLastSiteRefused(t *testing.T) {
	c, err := New(elasticCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RemoveSite(c.LiveSites()[0]); err == nil {
		t.Fatal("removed the last live site")
	}
}

// TestSnapshotRetryCountersExposed: the pre-existing retry machinery now
// feeds the health counters and the optional metrics registry.
func TestSnapshotRetryCountersExposed(t *testing.T) {
	defer faultinject.Reset()
	ms := metrics.NewCounterSet()
	cfg := elasticCfg(2)
	cfg.Metrics = ms
	cfg.MaxFailedSites = 1
	cfg.SnapshotTimeout = time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	feedKeyed(t, 0, 100, c)
	// Hits 1 and 2 are the first site's attempt and retry; hit 3 is the
	// second site's attempt, which passes.
	faultinject.Set("distrib.site.snapshot", faultinject.Fault{ErrAt: 1, ErrEvery: 2})
	if _, err := c.Snapshot(); err != nil {
		t.Fatalf("snapshot within tolerance: %v", err)
	}
	h := c.Health()
	if h.SnapshotRetries == 0 {
		t.Error("retries not counted")
	}
	if h.FailedSites != 1 {
		t.Errorf("FailedSites = %d, want 1", h.FailedSites)
	}
	if ms.Get("distrib.snapshot_retries") != h.SnapshotRetries {
		t.Error("metrics mirror out of sync with Health")
	}
}
