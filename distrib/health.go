package distrib

// Cluster health counters. Every robustness event the elastic tier absorbs
// — a retried snapshot, a skipped site, a shard handoff, a replayed log
// record — increments a counter here, readable in-process via
// Cluster.Health. The counters live in Config.Metrics when it is set, so
// operators scrape them alongside the runtimes' RuntimeStats.

import "forwarddecay/metrics"

// Health is a point-in-time copy of a cluster's health counters.
type Health struct {
	// SnapshotRetries counts per-site snapshot attempts beyond the first.
	SnapshotRetries uint64
	// FailedSites counts sites skipped by snapshots under MaxFailedSites.
	FailedSites uint64
	// Handoffs counts membership changes that moved state: AddSite and
	// RemoveSite. RecoverSite counts under SiteRejoins instead.
	Handoffs uint64
	// HandoffPartitions counts the partition slices handoffs delivered:
	// installed into the new owner, or parked in the checkpoint when that
	// owner is down.
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

// health holds the live counters, resolved once from the registry.
type health struct {
	snapshotRetries, failedSites, handoffs, handoffParts, replayed,
	crashes, rejoins, logged, trimmed *metrics.Counter
}

// newHealth resolves the counters in set under "distrib.*" names, so a
// shared registry can host several components; nil gives the cluster a
// private set.
func newHealth(set *metrics.CounterSet) health {
	if set == nil {
		set = metrics.NewCounterSet()
	}
	return health{
		snapshotRetries: set.Counter("distrib.snapshot_retries"),
		failedSites:     set.Counter("distrib.failed_sites"),
		handoffs:        set.Counter("distrib.handoffs"),
		handoffParts:    set.Counter("distrib.handoff_partitions"),
		replayed:        set.Counter("distrib.replayed_records"),
		crashes:         set.Counter("distrib.site_crashes"),
		rejoins:         set.Counter("distrib.site_rejoins"),
		logged:          set.Counter("distrib.logged_records"),
		trimmed:         set.Counter("distrib.trimmed_segments"),
	}
}

// Health returns a copy of the cluster's health counters.
func (c *Cluster) Health() Health {
	h := &c.health
	return Health{
		SnapshotRetries:   h.snapshotRetries.Value(),
		FailedSites:       h.failedSites.Value(),
		Handoffs:          h.handoffs.Value(),
		HandoffPartitions: h.handoffParts.Value(),
		ReplayedRecords:   h.replayed.Value(),
		SiteCrashes:       h.crashes.Value(),
		SiteRejoins:       h.rejoins.Value(),
		LoggedRecords:     h.logged.Value(),
		TrimmedSegments:   h.trimmed.Value(),
	}
}
