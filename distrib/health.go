package distrib

// Cluster health counters. Every robustness event the elastic tier absorbs
// — a retried snapshot, a skipped site, a shard handoff, a replayed log
// record — increments a counter here, readable
// in-process via Cluster.Health and mirrored into an optional
// metrics.CounterSet (Config.Metrics) so operators scrape them alongside
// the runtimes' RuntimeStats.

import (
	"sync/atomic"

	"forwarddecay/metrics"
)

// Health is a point-in-time copy of a cluster's health counters.
type Health struct {
	// SnapshotRetries counts per-site snapshot attempts beyond the first.
	SnapshotRetries uint64
	// FailedSites counts sites skipped by snapshots under MaxFailedSites.
	FailedSites uint64
	// Handoffs counts completed membership changes that moved state
	// (AddSite, RemoveSite, RecoverSite).
	Handoffs uint64
	// HandoffPartitions counts partitions moved across sites by handoffs.
	HandoffPartitions uint64
	// ReplayedRecords counts write-ahead-log records re-applied during
	// rebuilds (site recovery, handoff fallback, down-site snapshots).
	ReplayedRecords uint64
	// SiteCrashes counts sites torn down by CrashSite or quarantined by a
	// mid-handoff failure.
	SiteCrashes uint64
	// SiteRejoins counts sites rebuilt from checkpoint + log replay.
	SiteRejoins uint64
	// LoggedRecords counts observations appended to the write-ahead log.
	LoggedRecords uint64
	// TrimmedSegments counts log segments retired at checkpoint boundaries.
	TrimmedSegments uint64
}

// counterNames mirror the Health fields into a CounterSet, namespaced so a
// shared registry can host several components.
const (
	cntSnapshotRetries   = "distrib.snapshot_retries"
	cntFailedSites       = "distrib.failed_sites"
	cntHandoffs          = "distrib.handoffs"
	cntHandoffPartitions = "distrib.handoff_partitions"
	cntReplayedRecords   = "distrib.replayed_records"
	cntSiteCrashes       = "distrib.site_crashes"
	cntSiteRejoins       = "distrib.site_rejoins"
	cntLoggedRecords     = "distrib.logged_records"
	cntTrimmedSegments   = "distrib.trimmed_segments"
)

// health is the live counter block on a Cluster.
type health struct {
	snapshotRetries atomic.Uint64
	failedSites     atomic.Uint64
	handoffs        atomic.Uint64
	handoffParts    atomic.Uint64
	replayed        atomic.Uint64
	crashes         atomic.Uint64
	rejoins         atomic.Uint64
	logged          atomic.Uint64
	trimmed         atomic.Uint64
	set             *metrics.CounterSet // optional mirror; nil when unset
}

// bump adds delta to a counter and its metrics mirror.
func (h *health) bump(c *atomic.Uint64, name string, delta uint64) {
	if delta == 0 {
		return
	}
	c.Add(delta)
	if h.set != nil {
		h.set.Add(name, delta)
	}
}

// Health returns a copy of the cluster's health counters.
func (c *Cluster) Health() Health {
	h := &c.health
	return Health{
		SnapshotRetries:   h.snapshotRetries.Load(),
		FailedSites:       h.failedSites.Load(),
		Handoffs:          h.handoffs.Load(),
		HandoffPartitions: h.handoffParts.Load(),
		ReplayedRecords:   h.replayed.Load(),
		SiteCrashes:       h.crashes.Load(),
		SiteRejoins:       h.rejoins.Load(),
		LoggedRecords:     h.logged.Load(),
		TrimmedSegments:   h.trimmed.Load(),
	}
}
