package sketch

import (
	"math"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/internal/core"
)

// timedItem is a timestamped value for reference computations.
type timedItem struct {
	ts float64
	v  float64
}

// genTimed generates n items with Poisson-ish spacing and packet-like values.
func genTimed(seed uint64, n int, rate float64) []timedItem {
	rng := core.NewRNG(seed)
	items := make([]timedItem, n)
	ts := 0.0
	for i := range items {
		ts += rng.ExpFloat64() / rate
		v := 40 + float64(rng.Intn(1460))
		items[i] = timedItem{ts, v}
	}
	return items
}

func exactWindowSum(items []timedItem, t, w float64) (sum, count float64) {
	for _, it := range items {
		if it.ts > t-w && it.ts <= t {
			sum += it.v
			count++
		}
	}
	return
}

func exactDecayedSum(items []timedItem, f decay.AgeFunc, t float64) (sum float64) {
	f0 := f.Eval(0)
	for _, it := range items {
		a := t - it.ts
		if a < 0 {
			a = 0
		}
		sum += it.v * f.Eval(a) / f0
	}
	return
}

func TestEHWindowSumAndCount(t *testing.T) {
	const eps, window = 0.05, 60.0
	items := genTimed(21, 50000, 100) // ~500s of stream
	h := NewExpHistogram(eps, window)
	for _, it := range items {
		h.Insert(it.ts, it.v)
	}
	now := items[len(items)-1].ts
	for _, back := range []float64{0, 5, 20} {
		tq := now + back
		wantS, wantC := exactWindowSum(items, tq, window)
		gotS, gotC := h.WindowSum(tq), h.WindowCount(tq)
		if wantS > 0 && math.Abs(gotS-wantS) > 3*eps*wantS {
			t.Errorf("t=%v: WindowSum %v, want %v ± %v%%", tq, gotS, wantS, 300*eps)
		}
		if wantC > 0 && math.Abs(gotC-wantC) > 3*eps*wantC {
			t.Errorf("t=%v: WindowCount %v, want %v", tq, gotC, wantC)
		}
	}
}

func TestEHSpaceIsLogarithmic(t *testing.T) {
	const eps, window = 0.1, 60.0
	items := genTimed(22, 200000, 400)
	h := NewExpHistogram(eps, window)
	for _, it := range items {
		h.Insert(it.ts, it.v)
	}
	// Window holds ~24000 items; the histogram must compress that to
	// O((1/eps)·log(sum)) buckets — far fewer than the item count.
	if h.Len() > 1000 {
		t.Errorf("EH holds %d buckets; expected logarithmic compression", h.Len())
	}
	if h.Len() < 10 {
		t.Errorf("EH holds only %d buckets; compression suspiciously aggressive", h.Len())
	}
}

func TestEHDecayedSumPolyAndExp(t *testing.T) {
	// The Cohen–Strauss style decayed query should track the exact decayed
	// sum within a modest relative error for smooth decay functions.
	items := genTimed(23, 30000, 100)
	now := items[len(items)-1].ts
	for _, f := range []decay.AgeFunc{
		decay.NewAgePoly(1.5),
		decay.NewAgeExp(0.05),
		decay.AgeSubPoly{},
	} {
		h := NewExpHistogram(0.05, 0) // unbounded: decay never truly expires
		for _, it := range items {
			h.Insert(it.ts, it.v)
		}
		wantS := exactDecayedSum(items, f, now)
		if gotS := h.DecayedSum(f, now); math.Abs(gotS-wantS) > 0.15*wantS {
			t.Errorf("%v: DecayedSum %v, want %v ± 15%%", f, gotS, wantS)
		}
	}
}

func TestEHUnboundedIsExactTotal(t *testing.T) {
	items := genTimed(24, 5000, 50)
	h := NewExpHistogram(0.1, 0)
	var total float64
	for _, it := range items {
		h.Insert(it.ts, it.v)
		total += it.v
	}
	now := items[len(items)-1].ts
	if got := h.WindowSum(now); math.Abs(got-total) > 1e-6*total {
		t.Errorf("unbounded WindowSum = %v, want exact total %v", got, total)
	}
}

func TestEHExpiry(t *testing.T) {
	h := NewExpHistogram(0.1, 10)
	for ts := 0.0; ts < 100; ts++ {
		h.Insert(ts, 1)
	}
	// Everything older than t−10 must be gone.
	got := h.WindowCount(99)
	if math.Abs(got-10) > 3 {
		t.Errorf("WindowCount = %v, want ≈ 10", got)
	}
	// Far in the future everything expires.
	if got := h.WindowCount(1000); got != 0 {
		t.Errorf("all-expired WindowCount = %v, want 0", got)
	}
	if h.Len() != 0 {
		t.Errorf("all-expired Len = %d, want 0", h.Len())
	}
}

func TestEHClampsTimestampsAndIgnoresNonPositive(t *testing.T) {
	h := NewExpHistogram(0.1, 60)
	h.Insert(10, 5)
	h.Insert(5, 3) // out of order: clamped to ts=10
	h.Insert(10, 0)
	h.Insert(10, -2)
	if got := h.WindowSum(10); math.Abs(got-8) > 1e-9 {
		t.Errorf("WindowSum = %v, want 8", got)
	}
}

func TestWaveWindowCount(t *testing.T) {
	const window = 60.0
	items := genTimed(25, 80000, 200)
	w := NewWave(50, window)
	for _, it := range items {
		w.Insert(it.ts)
	}
	now := items[len(items)-1].ts
	_, want := exactWindowSum(items, now, window)
	got := w.WindowCount(now)
	if math.Abs(got-want) > 0.1*want {
		t.Errorf("Wave WindowCount = %v, want %v ± 10%%", got, want)
	}
}

func TestWaveCountSinceVariousAges(t *testing.T) {
	items := genTimed(26, 60000, 150)
	w := NewWave(64, 120)
	for _, it := range items {
		w.Insert(it.ts)
	}
	now := items[len(items)-1].ts
	for _, age := range []float64{1, 10, 30, 60, 100} {
		var want float64
		for _, it := range items {
			if it.ts >= now-age {
				want++
			}
		}
		got := w.CountSince(now - age)
		if want > 50 && math.Abs(got-want) > 0.1*want {
			t.Errorf("CountSince(age=%v) = %v, want %v ± 10%%", age, got, want)
		}
	}
}

func TestWaveSpaceIsBounded(t *testing.T) {
	w := NewWave(32, 60)
	items := genTimed(27, 200000, 500)
	for _, it := range items {
		w.Insert(it.ts)
	}
	// Entries per level are capped; total entries ≤ levels × (k+2).
	maxEntries := len(w.levels) * 34
	if got := w.SizeBytes(); got > 64+len(w.levels)*24+maxEntries*16*2 {
		t.Errorf("Wave size %d exceeds cap-based bound", got)
	}
	if w.n != 200000 {
		t.Errorf("N = %d", w.n)
	}
}

func TestEHVsWaveAblation(t *testing.T) {
	// Both structures answer window counts; cross-validate on one stream.
	items := genTimed(28, 40000, 100)
	h := NewExpHistogram(0.05, 30)
	w := NewWave(40, 30)
	for _, it := range items {
		h.Insert(it.ts, 1)
		w.Insert(it.ts)
	}
	now := items[len(items)-1].ts
	_, want := exactWindowSum(items, now, 30)
	he, we := h.WindowCount(now), w.WindowCount(now)
	if math.Abs(he-want) > 0.1*want || math.Abs(we-want) > 0.1*want {
		t.Errorf("EH=%v Wave=%v, want %v ± 10%%", he, we, want)
	}
}
