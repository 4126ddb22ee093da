package faultinject

// Deterministic chaos-soak schedules. A soak test replays a simulated
// multi-week stream against a runtime while interleaving faults — crashes,
// corrupt checkpoints, heartbeats, restores — and compares the result against
// a fault-free oracle fed the identical event sequence. Everything is a pure
// function of the seed, so a failing soak replays bit-for-bit.
//
// The scheduler lives here (and not in the runtime packages that consume it)
// so the same event tape can drive the serial gsql runtime, the sharded
// runtime, and the distributed coordinator without import cycles:
// faultinject imports nothing from this repository.

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
)

// SoakOp is the kind of one scheduled soak event.
type SoakOp uint8

const (
	// SoakTuple delivers one stream tuple (Key, Val at time T).
	SoakTuple SoakOp = iota
	// SoakHeartbeat advances stream time without data.
	SoakHeartbeat
	// SoakCheckpoint snapshots the subject runtime's state.
	SoakCheckpoint
	// SoakCrash kills the subject runtime; the harness restores it from the
	// latest checkpoint and replays the tuples delivered since.
	SoakCrash
	// SoakCorrupt hands the harness a corrupted copy of the latest
	// checkpoint, which a restore must refuse (the original stays good).
	SoakCorrupt

	// Site-churn events for elastic-cluster soaks. The events carry no site
	// id: the harness picks the victim deterministically from its own roster
	// state, so one tape drives clusters of any shape.

	// SoakSiteAdd grows the cluster by one site (live shard handoff).
	SoakSiteAdd
	// SoakSiteRemove retires one site (live shard handoff to survivors).
	SoakSiteRemove
	// SoakSiteCrash kills one site's process, discarding its memory.
	SoakSiteCrash
	// SoakSiteRejoin recovers the oldest crashed site from checkpoint+log.
	SoakSiteRejoin
	// SoakHandoffCrash performs a membership change with the handoff fault
	// point armed, so the source site dies mid-transfer.
	SoakHandoffCrash

	// Catalog-churn events for standing-query soaks. As with site churn,
	// the events carry no query id: the harness picks attach texts and
	// detach/revive victims deterministically from its own catalog state.

	// SoakAttach attaches one standing query mid-stream.
	SoakAttach
	// SoakDetach detaches one attached query.
	SoakDetach
	// SoakPoison attaches a hostile query that faults on every tuple, so
	// the runtime's breaker must fence it without disturbing neighbors.
	SoakPoison
	// SoakRevive lifts the oldest quarantined query back into the catalog.
	SoakRevive
)

// String names the op for failure messages.
func (op SoakOp) String() string {
	switch op {
	case SoakTuple:
		return "tuple"
	case SoakHeartbeat:
		return "heartbeat"
	case SoakCheckpoint:
		return "checkpoint"
	case SoakCrash:
		return "crash"
	case SoakCorrupt:
		return "corrupt"
	case SoakSiteAdd:
		return "site-add"
	case SoakSiteRemove:
		return "site-remove"
	case SoakSiteCrash:
		return "site-crash"
	case SoakSiteRejoin:
		return "site-rejoin"
	case SoakHandoffCrash:
		return "handoff-crash"
	case SoakAttach:
		return "attach"
	case SoakDetach:
		return "detach"
	case SoakPoison:
		return "poison"
	case SoakRevive:
		return "revive"
	default:
		return "unknown"
	}
}

// SoakEvent is one scheduled event of a soak run.
type SoakEvent struct {
	Op SoakOp
	// T is the event's stream time (meaningful for every op; fault ops fire
	// between the tuples around them).
	T float64
	// Key and Val carry the payload of SoakTuple events.
	Key uint64
	Val float64
}

// SoakConfig parameterizes a generated schedule. All periods are in stream
// time; zero disables the corresponding event kind (except MeanGap, which is
// required).
type SoakConfig struct {
	// Seed makes the schedule (gaps, keys, values) deterministic.
	Seed uint64
	// Start is the stream time of the first tuple.
	Start float64
	// Duration is the total simulated span; events stop at Start+Duration.
	Duration float64
	// MeanGap is the average spacing between tuples. Gaps are integers in
	// [1, 2·MeanGap) so timestamps stay exact in float64 — soak oracles can
	// then compare bit-for-bit.
	MeanGap float64
	// Keys is the number of distinct tuple keys (default 16).
	Keys int
	// HeartbeatEvery inserts a heartbeat at this period.
	HeartbeatEvery float64
	// CheckpointEvery inserts a checkpoint at this period.
	CheckpointEvery float64
	// CrashEvery inserts a crash/restore at this period (the harness decides
	// what a crash means for the runtime under test).
	CrashEvery float64
	// CorruptEvery inserts a corrupt-checkpoint probe at this period.
	CorruptEvery float64

	// SiteAddEvery / SiteRemoveEvery / SiteCrashEvery insert the matching
	// site-churn event at their period.
	SiteAddEvery    float64
	SiteRemoveEvery float64
	SiteCrashEvery  float64
	// SiteRejoinAfter schedules a SoakSiteRejoin this long after each
	// SoakSiteCrash (crashed sites stay down forever when zero).
	SiteRejoinAfter float64
	// HandoffCrashEvery inserts a membership change whose handoff is made to
	// fail mid-transfer at this period.
	HandoffCrashEvery float64

	// AttachEvery / DetachEvery insert catalog-churn events at their
	// period; PoisonEvery attaches a per-tuple-faulting query instead.
	AttachEvery float64
	DetachEvery float64
	PoisonEvery float64
	// ReviveAfter schedules a SoakRevive this long after each SoakPoison
	// (quarantined queries stay fenced forever when zero).
	ReviveAfter float64
}

// soakRNG is splitmix64 — the repository's standard deterministic generator.
type soakRNG uint64

func (r *soakRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SoakSchedule generates the full event tape for a configuration: tuples at
// pseudo-random integer gaps interleaved — in deterministic order — with the
// configured periodic fault events. Events are sorted by time; fault events
// scheduled at the same instant fire in a fixed order (heartbeat, checkpoint,
// corrupt, crash) before the next tuple.
func SoakSchedule(cfg SoakConfig) []SoakEvent {
	if cfg.Keys <= 0 {
		cfg.Keys = 16
	}
	if cfg.MeanGap < 1 {
		cfg.MeanGap = 1
	}
	rng := soakRNG(cfg.Seed)
	end := cfg.Start + cfg.Duration

	var events []SoakEvent
	// Periodic fault events first, one series per enabled kind. They are
	// generated in a fixed kind order so equal-time events tie-break
	// deterministically under the stable sort below.
	periodic := []struct {
		op    SoakOp
		every float64
	}{
		{SoakHeartbeat, cfg.HeartbeatEvery},
		{SoakCheckpoint, cfg.CheckpointEvery},
		{SoakCorrupt, cfg.CorruptEvery},
		{SoakCrash, cfg.CrashEvery},
		// Churn kinds come after the original four, so tapes generated by
		// older configurations are unchanged byte-for-byte.
		{SoakSiteAdd, cfg.SiteAddEvery},
		{SoakSiteRemove, cfg.SiteRemoveEvery},
		{SoakSiteCrash, cfg.SiteCrashEvery},
		{SoakHandoffCrash, cfg.HandoffCrashEvery},
		// Catalog churn comes last of all, for the same reason.
		{SoakAttach, cfg.AttachEvery},
		{SoakDetach, cfg.DetachEvery},
		{SoakPoison, cfg.PoisonEvery},
	}
	for _, p := range periodic {
		if p.every <= 0 {
			continue
		}
		for t := cfg.Start + p.every; t < end; t += p.every {
			events = append(events, SoakEvent{Op: p.op, T: t})
		}
	}
	// Each crash earns a rejoin a fixed delay later (generated after the
	// crash series, so rejoins tie-break after every periodic kind).
	if cfg.SiteCrashEvery > 0 && cfg.SiteRejoinAfter > 0 {
		for t := cfg.Start + cfg.SiteCrashEvery; t < end; t += cfg.SiteCrashEvery {
			if rt := t + cfg.SiteRejoinAfter; rt < end {
				events = append(events, SoakEvent{Op: SoakSiteRejoin, T: rt})
			}
		}
	}
	// Each poison earns a revive a fixed delay later, mirroring the
	// crash/rejoin pairing above.
	if cfg.PoisonEvery > 0 && cfg.ReviveAfter > 0 {
		for t := cfg.Start + cfg.PoisonEvery; t < end; t += cfg.PoisonEvery {
			if rt := t + cfg.ReviveAfter; rt < end {
				events = append(events, SoakEvent{Op: SoakRevive, T: rt})
			}
		}
	}
	// Tuple tape: integer gaps in [1, 2·MeanGap), keys and values from the
	// same generator.
	span := uint64(2*cfg.MeanGap) - 1
	if span < 1 {
		span = 1
	}
	for t := cfg.Start; t < end; {
		key := rng.next() % uint64(cfg.Keys)
		val := float64(1 + rng.next()%1000)
		events = append(events, SoakEvent{Op: SoakTuple, T: t, Key: key, Val: val})
		t += float64(1 + rng.next()%span)
	}
	// A stable sort preserves generation order among equal-time events, so
	// fault kinds fire in the fixed order above before tuples at the same
	// instant.
	sort.SliceStable(events, func(i, j int) bool { return events[i].T < events[j].T })
	return events
}

// SoakDigest is a SHA-256 over a tape's events, one "op time key value" line
// each, so a test can pin the tape a soak replays.
func SoakDigest(events []SoakEvent) string {
	h := sha256.New()
	for _, ev := range events {
		fmt.Fprintf(h, "%s %s %d %s\n", ev.Op, strconv.FormatFloat(ev.T, 'g', -1, 64), ev.Key, strconv.FormatFloat(ev.Val, 'g', -1, 64))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
