package agg_test

import (
	"errors"
	"math"
	"testing"

	"forwarddecay/agg"
	"forwarddecay/decay"
)

// badInputs enumerates the non-finite floats every ingest boundary must
// reject.
var badInputs = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// requireRejected asserts the aggregate recorded a typed *NonFiniteError
// after the bad observation and that its result is unchanged.
func requireRejected(t *testing.T, name string, err error, before, after float64) {
	t.Helper()
	var nfe *agg.NonFiniteError
	if !errors.As(err, &nfe) {
		t.Fatalf("%s: Err() = %v, want *NonFiniteError", name, err)
	}
	if before != after || math.IsNaN(after) {
		t.Fatalf("%s: state changed by rejected input: %v -> %v", name, before, after)
	}
}

// TestCounterRejectsNonFinite: Counter must skip non-finite timestamps and
// weights, keep its count bit-identical, and report the rejection.
func TestCounterRejectsNonFinite(t *testing.T) {
	model := decay.NewForward(decay.NewPoly(2), 0)
	for _, bad := range badInputs {
		c := agg.NewCounter(model)
		c.Observe(10)
		c.Observe(20)
		before := c.Value(30)
		c.Observe(bad) // bad timestamp
		requireRejected(t, "Counter/ts", c.Err(), before, c.Value(30))

		c2 := agg.NewCounter(model)
		c2.Observe(10)
		before = c2.Value(30)
		c2.ObserveN(20, bad) // bad weight
		requireRejected(t, "Counter/n", c2.Err(), before, c2.Value(30))
	}
}

// TestSumRejectsNonFinite: Sum must skip non-finite timestamps and values.
func TestSumRejectsNonFinite(t *testing.T) {
	model := decay.NewForward(decay.NewPoly(2), 0)
	for _, bad := range badInputs {
		s := agg.NewSum(model)
		s.Observe(10, 5)
		s.Observe(20, 7)
		before := s.Value(30)
		s.Observe(bad, 3)
		requireRejected(t, "Sum/ts", s.Err(), before, s.Value(30))

		s2 := agg.NewSum(model)
		s2.Observe(10, 5)
		before = s2.Value(30)
		s2.Observe(20, bad)
		requireRejected(t, "Sum/v", s2.Err(), before, s2.Value(30))
	}
}

// TestHeavyHittersRejectsNonFinite: a NaN timestamp at the landmark was the
// classic poisoning input (it pinned the running log-scale); all non-finite
// timestamps and weights must now be skipped.
func TestHeavyHittersRejectsNonFinite(t *testing.T) {
	model := decay.NewForward(decay.NewPoly(2), 0)
	for _, bad := range badInputs {
		h := agg.NewHeavyHittersK(model, 16)
		h.Observe(1, 10)
		h.Observe(1, 20)
		before, _ := h.Estimate(1, 30)
		h.Observe(1, bad)
		after, _ := h.Estimate(1, 30)
		requireRejected(t, "HeavyHitters/ts", h.Err(), before, after)

		h2 := agg.NewHeavyHittersK(model, 16)
		h2.Observe(1, 10)
		before, _ = h2.Estimate(1, 30)
		h2.ObserveN(1, 20, bad)
		after, _ = h2.Estimate(1, 30)
		requireRejected(t, "HeavyHitters/n", h2.Err(), before, after)
	}
}

// TestQuantilesRejectsNonFinite: Quantiles must skip non-finite timestamps.
func TestQuantilesRejectsNonFinite(t *testing.T) {
	model := decay.NewForward(decay.NewPoly(2), 0)
	for _, bad := range badInputs {
		q := agg.NewQuantiles(model, 1024, 0.05)
		for i := 1; i <= 100; i++ {
			q.Observe(uint64(i%50), float64(i))
		}
		before := float64(q.Quantile(0.5))
		q.Observe(7, bad)
		requireRejected(t, "Quantiles/ts", q.Err(), before, float64(q.Quantile(0.5)))
	}
}

// TestDistinctRejectsNonFinite: both the exact and the sketched distinct
// counters must skip non-finite timestamps.
func TestDistinctRejectsNonFinite(t *testing.T) {
	model := decay.NewForward(decay.NewExp(0.01), 0)
	for _, bad := range badInputs {
		d := agg.NewDistinctExact(model)
		d.Observe(1, 10)
		d.Observe(2, 20)
		before := d.Value(30)
		d.Observe(3, bad)
		requireRejected(t, "DistinctExact/ts", d.Err(), before, d.Value(30))

		ds := agg.NewDistinct(model, 64, 1.05, 1024)
		ds.Observe(1, 10)
		ds.Observe(2, 20)
		before = ds.Value(30)
		ds.Observe(3, bad)
		requireRejected(t, "Distinct/ts", ds.Err(), before, ds.Value(30))
	}
}

// TestMinMaxRejectsNonFinite: Max and Min must skip non-finite timestamps
// and values — a NaN value would otherwise defeat every later comparison.
func TestMinMaxRejectsNonFinite(t *testing.T) {
	model := decay.NewForward(decay.NewPoly(2), 0)
	for _, bad := range badInputs {
		m := agg.NewMax(model)
		m.Observe(10, 5)
		m.Observe(20, 9)
		before := m.Value(30)
		m.Observe(bad, 100)
		requireRejected(t, "Max/ts", m.Err(), before, m.Value(30))

		m2 := agg.NewMax(model)
		m2.Observe(10, 5)
		before = m2.Value(30)
		m2.Observe(20, bad)
		requireRejected(t, "Max/v", m2.Err(), before, m2.Value(30))

		n := agg.NewMin(model)
		n.Observe(10, 5)
		before = n.Value(30)
		n.Observe(bad, -100)
		requireRejected(t, "Min/ts", n.Err(), before, n.Value(30))
	}
}

// TestCheckFinite: the shared boundary predicate classifies inputs.
func TestCheckFinite(t *testing.T) {
	if agg.IsFinite(math.NaN()) || agg.IsFinite(math.Inf(-1)) || !agg.IsFinite(0) {
		t.Fatal("IsFinite misclassifies")
	}
}
