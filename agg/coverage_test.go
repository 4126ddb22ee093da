package agg

import (
	"testing"

	"forwarddecay/decay"
)

// TestModelAccessors covers every aggregate's Model() getter.
func TestModelAccessors(t *testing.T) {
	m := decay.NewForward(decay.NewPoly(2), 5)
	if NewCounter(m).Model() != m || NewSum(m).Model() != m {
		t.Error("Counter/Sum Model() mismatch")
	}
	if NewHeavyHittersK(m, 4).Model() != m || NewQuantiles(m, 16, 0.1).Model() != m {
		t.Error("HeavyHitters/Quantiles Model() mismatch")
	}
	if NewDistinctExact(m).Model() != m || NewDistinct(m, 8, 2, 4).model != m {
		t.Error("Distinct Model() mismatch")
	}
}

// TestSizeBytesPositive covers the space accounting entry points.
func TestSizeBytesPositive(t *testing.T) {
	m := decay.NewForward(decay.NewExp(0.1), 0)
	h := NewHeavyHittersK(m, 8)
	h.Observe(1, 1)
	if h.SizeBytes() <= 0 {
		t.Error("HeavyHitters SizeBytes")
	}
	q := NewQuantiles(m, 64, 0.1)
	q.Observe(3, 1)
	if q.SizeBytes() <= 0 {
		t.Error("Quantiles SizeBytes")
	}
}

// TestCounterShiftLandmarkSuccessAndValuePreserved covers the Counter
// shift path (the Sum path is tested elsewhere).
func TestCounterShiftLandmark(t *testing.T) {
	m := decay.NewForward(decay.NewExp(0.2), 0)
	c := NewCounter(m)
	for ti := 1.0; ti <= 50; ti++ {
		c.Observe(ti)
	}
	before := c.Value(60)
	if err := c.ShiftLandmark(30); err != nil {
		t.Fatal(err)
	}
	if !almostEq(c.Value(60), before, 1e-9) {
		t.Errorf("value changed: %v vs %v", c.Value(60), before)
	}
	if c.Model().Landmark != 30 {
		t.Errorf("landmark = %v", c.Model().Landmark)
	}
	// Non-shiftable function errors.
	p := NewCounter(decay.NewForward(decay.LandmarkWindow{}, 0))
	if err := p.ShiftLandmark(5); err == nil {
		t.Error("landmark-window shift must fail")
	}
}

// TestQuantilesMergeScaleAlignment exercises both branches of the
// log-scale alignment in Quantiles.Merge: other-above and other-below.
func TestQuantilesMergeScaleAlignment(t *testing.T) {
	m := decay.NewForward(decay.NewExp(1), 0)
	mkQ := func(tiLo, tiHi float64, v uint64) *Quantiles {
		q := NewQuantiles(m, 64, 0.1)
		for ti := tiLo; ti <= tiHi; ti++ {
			q.Observe(v, ti)
		}
		return q
	}
	// a's internal scale ends much lower than b's (b saw later items).
	a := mkQ(1, 100, 10)
	b := mkQ(600, 700, 40)
	if err := a.Merge(b); err != nil { // other above: a rebases up
		t.Fatal(err)
	}
	// At t=700 the mass is utterly dominated by b's items near 700.
	if got := a.Quantile(0.5); got != 40 {
		t.Errorf("merged (up) median = %d, want 40", got)
	}

	c := mkQ(600, 700, 40)
	d := mkQ(1, 100, 10)
	if err := c.Merge(d); err != nil { // other below: d is scaled down
		t.Fatal(err)
	}
	if got := c.Quantile(0.5); got != 40 {
		t.Errorf("merged (down) median = %d, want 40", got)
	}
	// Empty-other and empty-self merges.
	e := NewQuantiles(m, 64, 0.1)
	if err := c.Merge(e); err != nil {
		t.Fatal(err)
	}
	if err := e.Merge(c); err != nil {
		t.Fatal(err)
	}
	if got := e.Quantile(0.5); got != 40 {
		t.Errorf("merge into empty: median %d", got)
	}
}

// TestHeavyHittersMergeScaleAlignment mirrors the same branches for
// HeavyHitters.Merge.
func TestHeavyHittersMergeScaleAlignment(t *testing.T) {
	m := decay.NewForward(decay.NewExp(1), 0)
	mk := func(tiLo, tiHi float64, key uint64) *HeavyHitters {
		h := NewHeavyHittersK(m, 8)
		for ti := tiLo; ti <= tiHi; ti++ {
			h.Observe(key, ti)
		}
		return h
	}
	a := mk(1, 100, 7)
	b := mk(600, 700, 9)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	top := a.Query(700, 0.5)
	if len(top) == 0 || top[0].Key != 9 {
		t.Errorf("merged (up) top = %+v, want key 9", top)
	}
	c := mk(600, 700, 9)
	d := mk(1, 100, 7)
	if err := c.Merge(d); err != nil {
		t.Fatal(err)
	}
	top = c.Query(700, 0.5)
	if len(top) == 0 || top[0].Key != 9 {
		t.Errorf("merged (down) top = %+v, want key 9", top)
	}
	// Empty merges.
	e := NewHeavyHittersK(m, 8)
	if err := c.Merge(e); err != nil {
		t.Fatal(err)
	}
	if err := e.Merge(c); err != nil {
		t.Fatal(err)
	}
	if e.DecayedCount(700) <= 0 {
		t.Error("merge into empty lost mass")
	}
}

// TestDistinctApproxMerge covers the approximate distinct merge wrapper.
func TestDistinctApproxMerge(t *testing.T) {
	m := decay.NewForward(decay.NewPoly(2), -1)
	a := NewDistinct(m, 256, 1.1, 256)
	b := NewDistinct(m, 256, 1.1, 256)
	keys, ts := decayedZipfStream(95, 8000, 600)
	exact := NewDistinctExact(m)
	for i := range keys {
		exact.Observe(keys[i], ts[i])
		if i%2 == 0 {
			a.Observe(keys[i], ts[i])
		} else {
			b.Observe(keys[i], ts[i])
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	tq := ts[len(ts)-1]
	got, want := a.Value(tq), exact.Value(tq)
	if got < 0.7*want || got > 1.3*want {
		t.Errorf("merged approx D = %v, exact %v", got, want)
	}
}
