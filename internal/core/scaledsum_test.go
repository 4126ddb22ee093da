package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScaledSumMatchesDirectSum(t *testing.T) {
	rng := NewRNG(1)
	var s ScaledSum
	var direct float64
	for i := 0; i < 10000; i++ {
		lw := 10 * rng.Float64() // weights within float range
		x := -2 + 4*rng.Float64()
		s.Add(lw, x)
		direct += math.Exp(lw) * x
	}
	got := s.Value(0)
	if math.Abs(got-direct) > 1e-9*math.Abs(direct) {
		t.Errorf("ScaledSum %v, direct %v", got, direct)
	}
}

func TestScaledSumRebasingExactness(t *testing.T) {
	// Accumulate with monotonically exploding log-weights; compare against
	// a reference computed relative to the final normalizer.
	var s ScaledSum
	const n = 5000
	var ref KahanSum
	logNorm := float64(n) // normalizer e^n
	for i := 1; i <= n; i++ {
		lw := float64(i)
		s.Add(lw, 2)
		ref.Add(2 * math.Exp(lw-logNorm))
	}
	got := s.Value(logNorm)
	want := ref.Value()
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("rebased sum %v, want %v", got, want)
	}
}

func TestScaledSumIgnoresDegenerate(t *testing.T) {
	var s ScaledSum
	s.Add(math.Inf(-1), 5) // zero weight
	s.Add(math.NaN(), 5)
	s.Add(3, 0) // zero value
	if s.nonEmpty || s.Value(0) != 0 {
		t.Errorf("degenerate adds should leave the sum empty; got %v", s.Value(0))
	}
}

func TestScaledSumLog(t *testing.T) {
	var s ScaledSum
	s.Add(700, 2) // weight e^700 (beyond float64 on its own), value 2
	s.Add(700, 3)
	want := 700 + math.Log(5)
	sum, logScale := s.Raw()
	if got := math.Log(sum) + logScale; math.Abs(got-want) > 1e-9 {
		t.Errorf("ln of the sum = %v, want %v", got, want)
	}
}

func TestScaledSumMergeEqualsCombined(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		var a, b, whole ScaledSum
		for i := 0; i < 500; i++ {
			lw := 600 * rng.Float64() // spans rebasing territory
			x := rng.Float64()
			whole.Add(lw, x)
			if i%2 == 0 {
				a.Add(lw, x)
			} else {
				b.Add(lw, x)
			}
		}
		a.Merge(&b)
		norm := 600.0
		ga, gw := a.Value(norm), whole.Value(norm)
		return math.Abs(ga-gw) <= 1e-9*math.Abs(gw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestScaledSumMergeEmptyCases(t *testing.T) {
	var a, b ScaledSum
	b.Add(1, 2)
	a.Merge(&b) // empty ← nonempty
	if math.Abs(a.Value(1)-2) > 1e-12 {
		t.Errorf("merge into empty: %v", a.Value(1))
	}
	var c ScaledSum
	a.Merge(&c) // nonempty ← empty: unchanged
	if math.Abs(a.Value(1)-2) > 1e-12 {
		t.Errorf("merge of empty changed value: %v", a.Value(1))
	}
}

func TestScaledSumShift(t *testing.T) {
	var s ScaledSum
	s.Add(10, 4)
	before := s.Value(12)
	s.Shift(-3)         // all log-weights conceptually move by −3…
	after := s.Value(9) // …and so does the normalizer: value unchanged
	if math.Abs(before-after) > 1e-12 {
		t.Errorf("shift broke invariance: %v vs %v", before, after)
	}
	var empty ScaledSum
	empty.Shift(5) // no-op on empty
	if empty.nonEmpty {
		t.Error("shift made empty sum non-empty")
	}
}

func TestScaledSumTinyAfterEmpty(t *testing.T) {
	// A sum that cancels to zero must adopt the scale of the next item
	// rather than flushing it to zero.
	var s ScaledSum
	s.Add(0, 1)
	s.Add(0, -1) // cancels exactly
	s.Add(-400, 7)
	got := s.Value(-400)
	if math.Abs(got-7) > 1e-9 {
		t.Errorf("tiny item lost after cancellation: %v", got)
	}
}

func TestScaledSumRaw(t *testing.T) {
	var s ScaledSum
	s.Add(5, 3)
	sum, scale := s.Raw()
	if math.Abs(sum*math.Exp(scale)-3*math.Exp(5)) > 1e-6 {
		t.Errorf("Raw() inconsistent: %v × e^%v", sum, scale)
	}
}
