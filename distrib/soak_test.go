package distrib

import (
	"testing"

	"forwarddecay/decay"
	"forwarddecay/internal/core"
	"forwarddecay/internal/faultinject"
	"forwarddecay/metrics"
)

// siteChurnTape is the site-churn soak's schedule over a number of days.
func siteChurnTape(days float64) faultinject.SoakConfig {
	return faultinject.SoakConfig{
		Seed:     0xd15c0,
		Duration: days * 86400,
		MeanGap:  25,
		Keys:     64,

		CheckpointEvery: 10800, // 3 h

		SiteCrashEvery:    7200, // 2 h
		SiteRejoinAfter:   3600,
		SiteAddEvery:      28800, // 8 h
		SiteRemoveEvery:   43200, // 12 h
		HandoffCrashEvery: 86400, // daily
	}
}

// TestSiteChurnTapePinned pins the soak's tapes: their digests were taken
// when the tapes still held landmark-roll events, over every other event,
// so the soak replays the same tuples and churn it always did.
func TestSiteChurnTapePinned(t *testing.T) {
	for days, want := range map[float64]string{
		2: "c92c6ea53e124bf1ed05188bf6f4e70f98a3fdec1e338b1bd1e694b3195db9f2",
		4: "f5ce3a460aa13d626e8919fbd2970a7724e42b086e93cd0ab1765c1648758908",
	} {
		if got := faultinject.SoakDigest(faultinject.SoakSchedule(siteChurnTape(days))); got != want {
			t.Errorf("%v-day site-churn tape digest %s, want %s", days, got, want)
		}
	}
}

// TestDistribChurnSoak replays a simulated multi-day tape against an
// elastic, write-ahead-logged cluster while churning its roster — crashes,
// rejoins-from-log, adds, removes, crashes mid-handoff — and requires the
// result to match a fault-free static-roster oracle bit-for-bit on the
// decayed sum/count/mean/variance, with zero lost acknowledged
// observations and the sketch summaries within their ε bounds. The decay
// rate is dyadic and every timestamp is an integer, so checkpoint restores
// and log replays are exact in float64: any single misrouted,
// double-applied or lost observation shows up as a float-level mismatch.
func TestDistribChurnSoak(t *testing.T) {
	days := 4.0
	if testing.Short() {
		days = 2
	}
	tape := faultinject.SoakSchedule(siteChurnTape(days))

	ms := metrics.NewCounterSet()
	cfg := Config{
		Sites:           4,
		Model:           decay.NewForward(decay.NewExp(1.0/1024), 0),
		HHK:             64,
		QuantileU:       1 << 10,
		QuantileEps:     0.05,
		Partitions:      64,
		WALDir:          t.TempDir(),
		WALSegmentBytes: 1 << 14, // small segments so checkpoints can trim
		Metrics:         ms,
	}
	subject, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer subject.Close()
	ocfg := cfg
	ocfg.WALDir, ocfg.Metrics = "", nil
	oracle, err := New(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	var (
		churn       int // executed churn events
		fed         uint64
		now         float64
		checkpoints int
	)

	for idx, ev := range tape {
		now = ev.T
		draw := core.Hash2(0xd15c0, uint64(idx))
		live := subject.LiveSites()
		down := subject.DownSites()
		switch ev.Op {
		case faultinject.SoakTuple:
			ob := Observation{Key: ev.Key, Value: ev.Val, Time: ev.T}
			if err := subject.ObserveKeyed(ob); err != nil {
				t.Fatalf("t=%v subject rejected tuple: %v", now, err)
			}
			if err := oracle.ObserveKeyed(ob); err != nil {
				t.Fatalf("t=%v oracle rejected tuple: %v", now, err)
			}
			fed++
		case faultinject.SoakCheckpoint:
			if err := subject.Checkpoint(); err != nil {
				t.Fatalf("t=%v checkpoint: %v", now, err)
			}
			checkpoints++
			// Periodic mid-soak probe: the clusters must already agree,
			// including coordinator-side rebuilds of any down sites.
			if checkpoints%4 == 0 {
				requireBitIdentical(t, subject, oracle, now)
			}
		case faultinject.SoakSiteCrash:
			if len(live) < 2 {
				continue
			}
			if err := subject.CrashSite(live[int(draw%uint64(len(live)))]); err != nil {
				t.Fatalf("t=%v crash: %v", now, err)
			}
			churn++
		case faultinject.SoakSiteRejoin:
			if len(down) == 0 {
				continue
			}
			if err := subject.RecoverSite(down[0]); err != nil {
				t.Fatalf("t=%v rejoin site %d: %v", now, down[0], err)
			}
			churn++
		case faultinject.SoakSiteAdd:
			if len(live)+len(down) >= 10 {
				continue
			}
			if _, err := subject.AddSite(); err != nil {
				t.Fatalf("t=%v add: %v", now, err)
			}
			churn++
		case faultinject.SoakSiteRemove:
			// Alternate between retiring a downed site (rebuild path) and a
			// live one (quiesce-and-cut path).
			if len(down) > 0 && draw%2 == 0 {
				if err := subject.RemoveSite(down[0]); err != nil {
					t.Fatalf("t=%v remove down site %d: %v", now, down[0], err)
				}
				churn++
			} else if len(live) >= 2 {
				victim := live[int(draw%uint64(len(live)))]
				if err := subject.RemoveSite(victim); err != nil {
					t.Fatalf("t=%v remove live site %d: %v", now, victim, err)
				}
				churn++
			}
		case faultinject.SoakHandoffCrash:
			if len(live)+len(down) >= 10 || len(live) == 0 {
				continue
			}
			faultinject.Set("distrib.site.handoff", faultinject.Fault{ErrAt: 1})
			// The source dies mid-cut; AddSite reports the quarantine and
			// falls back to the log. The join itself must still happen. (If
			// every moved partition happened to come from an already-down
			// site, no live cut occurs and the fault point stays unhit.)
			_, err := subject.AddSite()
			hit := faultinject.Hits("distrib.site.handoff") > 0
			faultinject.Reset()
			if hit && err == nil {
				t.Fatalf("t=%v handoff fault did not surface", now)
			}
			churn++
		}
	}

	if churn < 50 {
		t.Fatalf("soak executed only %d churn events, want >= 50", churn)
	}
	if err := subject.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Bit-for-bit on the decayed moments; N equality is the zero-loss claim
	// (every acknowledged observation is in exactly one partition state).
	requireBitIdentical(t, subject, oracle, now)

	ss, err := subject.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	os, err := oracle.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if ss.Sum.N() != fed || os.Sum.N() != fed {
		t.Fatalf("subject/oracle N = %d/%d, fed %d", ss.Sum.N(), os.Sum.N(), fed)
	}
	// Heavy hitters: the oracle's φ-heavy hitters survive churn at φ/2 (the
	// standard merged-summary guarantee).
	const phi = 0.02
	got := map[uint64]bool{}
	for _, it := range ss.HH.Query(now, phi/2) {
		got[it.Key] = true
	}
	for _, it := range os.HH.Query(now, phi) {
		if !got[it.Key] {
			t.Errorf("churned cluster lost heavy hitter %d", it.Key)
		}
	}
	// Quantiles: both digests saw identical per-partition inputs, so the
	// merged answers agree within the digest's ε on the value scale.
	for _, q := range []float64{0.1, 0.5, 0.9} {
		sq, oq := ss.Quantiles.Quantile(q), os.Quantiles.Quantile(q)
		lo, hi := float64(oq)*0.8-8, float64(oq)*1.2+8
		if float64(sq) < lo || float64(sq) > hi {
			t.Errorf("quantile %.1f: subject %d, oracle %d", q, sq, oq)
		}
	}

	h := subject.Health()
	t.Logf("soak: %d tuples, %d churn events, health %+v", fed, churn, h)
	if h.SiteCrashes == 0 || h.SiteRejoins == 0 || h.Handoffs == 0 {
		t.Errorf("churn did not exercise crashes/rejoins/handoffs: %+v", h)
	}
	if h.ReplayedRecords == 0 {
		t.Error("no log records were replayed during recovery")
	}
	if h.TrimmedSegments == 0 {
		t.Error("checkpoints never trimmed the log")
	}
	if ms.Get("distrib.site_crashes") != h.SiteCrashes {
		t.Error("metrics mirror diverged from Health")
	}
}
