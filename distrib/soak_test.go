package distrib

import (
	"testing"

	"forwarddecay/decay"
	"forwarddecay/internal/core"
	"forwarddecay/internal/faultinject"
	"forwarddecay/metrics"
)

// TestDistribChurnSoak replays a simulated multi-day tape against an
// elastic, write-ahead-logged cluster while churning its roster — crashes,
// rejoins-from-log, adds, removes, crashes mid-handoff and mid-roll — and
// requires the result to match a fault-free static-roster oracle
// bit-for-bit on the decayed sum/count/mean/variance, with zero lost
// acknowledged observations and the sketch summaries within their ε
// bounds. The decay rate is dyadic and every timestamp and landmark is an
// integer, so landmark shifts, checkpoint rebases and log replays are
// exact in float64: any single misrouted, double-applied, lost or
// frame-blended observation shows up as a float-level mismatch.
func TestDistribChurnSoak(t *testing.T) {
	days := 4.0
	if testing.Short() {
		days = 2
	}
	tape := faultinject.SoakSchedule(faultinject.SoakConfig{
		Seed:     0xd15c0,
		Duration: days * 86400,
		MeanGap:  25,
		Keys:     64,

		CheckpointEvery: 10800, // 3 h
		RollEvery:       21600, // 6 h

		SiteCrashEvery:    7200, // 2 h
		SiteRejoinAfter:   3600,
		SiteAddEvery:      28800, // 8 h
		SiteRemoveEvery:   43200, // 12 h
		HandoffCrashEvery: 86400, // daily
		RollCrashEvery:    46800, // 13 h: off-phase with RollEvery, so the
		// crashing roll is not pre-empted by a plain roll at the same instant
	})

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
		lastL       float64
		now         float64
		checkpoints int
	)
	rollBoth := func(newL float64) {
		if newL <= lastL {
			return
		}
		if err := subject.RollEpoch(newL); err != nil {
			t.Fatalf("t=%v subject roll to %v: %v", now, newL, err)
		}
		if err := oracle.RollEpoch(newL); err != nil {
			t.Fatalf("t=%v oracle roll to %v: %v", now, newL, err)
		}
		lastL = newL
	}

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
		case faultinject.SoakRoll:
			rollBoth(ev.T - 3600)
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
		case faultinject.SoakRollCrash:
			newL := ev.T - 3600
			if newL <= lastL {
				continue
			}
			faultinject.Set("distrib.site.epoch.prepare", faultinject.Fault{ErrAt: 1})
			err := subject.RollEpoch(newL)
			faultinject.Reset()
			if err != nil {
				t.Fatalf("t=%v roll with mid-roll crash did not converge: %v", now, err)
			}
			if err := oracle.RollEpoch(newL); err != nil {
				t.Fatalf("t=%v oracle roll: %v", now, err)
			}
			lastL = newL
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
	if h.EpochReproposals == 0 {
		t.Error("mid-roll crashes did not trigger a re-propose")
	}
	if h.TrimmedSegments == 0 {
		t.Error("checkpoints never trimmed the log")
	}
	if ms.Get("distrib.site_crashes") != h.SiteCrashes {
		t.Error("metrics mirror diverged from Health")
	}
}
