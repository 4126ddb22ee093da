package agg

import (
	"math"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/internal/core"
)

func almostEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

// example1 is the stream of Example 1/2 of the paper.
var example1 = []struct{ ti, v float64 }{
	{105, 4}, {107, 8}, {103, 3}, {108, 6}, {104, 4},
}

func example1Model() decay.Forward {
	return decay.NewForward(decay.NewPoly(2), 100)
}

// TestExample2CountSumAverage reproduces Example 2 of the paper:
// C = 1.63, S = 9.67, A = S/C ≈ 5.93.
func TestExample2CountSumAverage(t *testing.T) {
	s := NewSum(example1Model())
	for _, it := range example1 {
		s.Observe(it.ti, it.v)
	}
	const tq = 110
	if got := s.Count(tq); !almostEq(got, 1.63, 1e-12) {
		t.Errorf("C = %v, want 1.63", got)
	}
	if got := s.Value(tq); !almostEq(got, 9.67, 1e-12) {
		t.Errorf("S = %v, want 9.67", got)
	}
	if got, want := s.Mean(), 9.67/1.63; !almostEq(got, want, 1e-12) {
		t.Errorf("A = %v, want %v", got, want)
	}
	if s.n != 5 {
		t.Errorf("N = %d", s.n)
	}
}

// TestMeanTimeInvariant checks the paper's observation that the decayed
// average does not vary with the query time, and that a constant stream
// averages to the constant.
func TestMeanTimeInvariant(t *testing.T) {
	s := NewSum(example1Model())
	for _, it := range example1 {
		s.Observe(it.ti, it.v)
	}
	m := s.Mean()
	for _, tq := range []float64{110, 200, 1e6} {
		if got := s.Value(tq) / s.Count(tq); !almostEq(got, m, 1e-9) {
			t.Errorf("S/C at t=%v is %v, Mean() is %v", tq, got, m)
		}
	}

	cons := NewSum(decay.NewForward(decay.NewExp(0.1), 0))
	for ti := 1.0; ti <= 100; ti++ {
		cons.Observe(ti, 7.5)
	}
	if got := cons.Mean(); !almostEq(got, 7.5, 1e-9) {
		t.Errorf("mean of constant stream = %v, want 7.5", got)
	}
	if got := cons.Variance(); got > 1e-9 {
		t.Errorf("variance of constant stream = %v, want 0", got)
	}
}

// bruteCount computes the decayed count directly from Definition 5.
func bruteCount(m decay.Forward, ts []float64, t float64) float64 {
	var c float64
	for _, ti := range ts {
		c += m.Weight(ti, t)
	}
	return c
}

func bruteSum(m decay.Forward, ts, vs []float64, t float64) float64 {
	var s float64
	for i, ti := range ts {
		s += m.Weight(ti, t) * vs[i]
	}
	return s
}

func randomStream(seed uint64, n int, t0, span float64) (ts, vs []float64) {
	rng := core.NewRNG(seed)
	ts = make([]float64, n)
	vs = make([]float64, n)
	for i := range ts {
		ts[i] = t0 + span*rng.Float64()
		vs[i] = -5 + 15*rng.Float64()
	}
	return
}

func TestCounterMatchesBruteForceAcrossModels(t *testing.T) {
	ts, vs := randomStream(41, 5000, 100, 900)
	models := []decay.Forward{
		decay.NewForward(decay.None{}, 100),
		decay.NewForward(decay.NewPoly(1), 100),
		decay.NewForward(decay.NewPoly(2), 100),
		decay.NewForward(decay.NewExp(0.01), 100),
		decay.NewForward(decay.LandmarkWindow{}, 100),
		decay.NewForward(decay.NewPolySum(1, 0, 3), 100),
	}
	for _, m := range models {
		c := NewCounter(m)
		s := NewSum(m)
		for i := range ts {
			c.Observe(ts[i])
			s.Observe(ts[i], vs[i])
		}
		for _, tq := range []float64{1000, 1500} {
			if got, want := c.Value(tq), bruteCount(m, ts, tq); !almostEq(got, want, 1e-9) {
				t.Errorf("%v: count at %v = %v, want %v", m.Func, tq, got, want)
			}
			if got, want := s.Value(tq), bruteSum(m, ts, vs, tq); !almostEq(got, want, 1e-9) {
				t.Errorf("%v: sum at %v = %v, want %v", m.Func, tq, got, want)
			}
		}
	}
}

// TestExpDecayLongStreamNoOverflow runs exponential decay over a stream
// whose raw static weights span e^10000 — far beyond float64 — and checks
// the automatic rebasing keeps results exact.
func TestExpDecayLongStreamNoOverflow(t *testing.T) {
	m := decay.NewForward(decay.NewExp(1), 0)
	c := NewCounter(m)
	s := NewSum(m)
	for ti := 1.0; ti <= 10000; ti++ {
		c.Observe(ti)
		s.Observe(ti, 2)
	}
	// Exponentially decayed count at t=10000 with α=1 and unit spacing:
	// Σ_{a=0..9999} e^(−a) = 1/(1−e^−1) (up to negligible tail).
	want := 1 / (1 - math.Exp(-1))
	if got := c.Value(10000); !almostEq(got, want, 1e-6) {
		t.Errorf("count = %v, want %v", got, want)
	}
	if got := s.Value(10000); !almostEq(got, 2*want, 1e-6) {
		t.Errorf("sum = %v, want %v", got, 2*want)
	}
	if got := s.Mean(); !almostEq(got, 2, 1e-9) {
		t.Errorf("mean = %v, want 2", got)
	}
}

func TestOrderInsensitivity(t *testing.T) {
	ts, vs := randomStream(42, 2000, 50, 500)
	m := decay.NewForward(decay.NewPoly(2), 50)
	a, b := NewSum(m), NewSum(m)
	for i := range ts {
		a.Observe(ts[i], vs[i])
	}
	perm := core.NewRNG(43).Perm(len(ts))
	for _, i := range perm {
		b.Observe(ts[i], vs[i])
	}
	if !almostEq(a.Value(600), b.Value(600), 1e-9) {
		t.Errorf("order sensitivity: %v vs %v", a.Value(600), b.Value(600))
	}
	if !almostEq(a.Variance(), b.Variance(), 1e-9) {
		t.Errorf("variance order sensitivity: %v vs %v", a.Variance(), b.Variance())
	}
}

func TestMergeEqualsSingleStream(t *testing.T) {
	ts, vs := randomStream(44, 3000, 10, 800)
	m := decay.NewForward(decay.NewExp(0.02), 10)
	whole := NewSum(m)
	parts := []*Sum{NewSum(m), NewSum(m), NewSum(m)}
	for i := range ts {
		whole.Observe(ts[i], vs[i])
		parts[i%3].Observe(ts[i], vs[i])
	}
	merged := NewSum(m)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, tq := range []float64{810, 2000} {
		if !almostEq(whole.Value(tq), merged.Value(tq), 1e-9) {
			t.Errorf("t=%v: merged %v != single %v", tq, merged.Value(tq), whole.Value(tq))
		}
	}
	if !almostEq(whole.Mean(), merged.Mean(), 1e-9) {
		t.Errorf("merged mean %v != %v", merged.Mean(), whole.Mean())
	}
	if whole.n != merged.n {
		t.Errorf("merged N %d != %d", merged.n, whole.n)
	}
}

func TestMergeModelMismatch(t *testing.T) {
	a := NewCounter(decay.NewForward(decay.NewPoly(2), 0))
	b := NewCounter(decay.NewForward(decay.NewPoly(3), 0))
	if err := a.Merge(b); err == nil {
		t.Error("expected model-mismatch error for different exponents")
	}
	c := NewCounter(decay.NewForward(decay.NewPoly(2), 5))
	if err := a.Merge(c); err == nil {
		t.Error("expected model-mismatch error for different landmarks")
	}
	d := NewSum(decay.NewForward(decay.NewExp(1), 0))
	e := NewSum(decay.NewForward(decay.NewExp(2), 0))
	if err := d.Merge(e); err == nil {
		t.Error("expected model-mismatch error for Sum")
	}
}

func TestShiftLandmarkInvariance(t *testing.T) {
	m := decay.NewForward(decay.NewExp(0.5), 100)
	s := NewSum(m)
	ts, vs := randomStream(45, 1000, 100, 300)
	for i := range ts {
		s.Observe(ts[i], vs[i])
	}
	before := s.Value(500)
	if err := s.ShiftLandmark(400); err != nil {
		t.Fatal(err)
	}
	if got := s.Model().Landmark; got != 400 {
		t.Fatalf("landmark = %v, want 400", got)
	}
	if got := s.Value(500); !almostEq(got, before, 1e-9) {
		t.Errorf("value after shift = %v, want %v", got, before)
	}
	// Observations continue seamlessly after the shift.
	s.Observe(450, 1)

	p := NewCounter(decay.NewForward(decay.NewPoly(2), 100))
	if err := p.ShiftLandmark(200); err == nil {
		t.Error("polynomial decay must refuse landmark shifts")
	} else if err.Error() == "" {
		t.Error("empty error message")
	}
}

func TestVarianceMatchesBruteForce(t *testing.T) {
	ts, vs := randomStream(46, 4000, 0, 100)
	m := decay.NewForward(decay.NewPoly(2), 0)
	s := NewSum(m)
	for i := range ts {
		s.Observe(ts[i], vs[i])
	}
	// Brute-force weighted variance at t=100.
	const tq = 100
	var wsum, mean float64
	for i := range ts {
		wsum += m.Weight(ts[i], tq)
		mean += m.Weight(ts[i], tq) * vs[i]
	}
	mean /= wsum
	var v float64
	for i := range ts {
		v += m.Weight(ts[i], tq) * (vs[i] - mean) * (vs[i] - mean)
	}
	v /= wsum
	if got := s.Variance(); !almostEq(got, v, 1e-6) {
		t.Errorf("variance = %v, want %v", got, v)
	}
	if got := s.StdDev(); !almostEq(got, math.Sqrt(v), 1e-6) {
		t.Errorf("stddev = %v, want %v", got, math.Sqrt(v))
	}
}

func TestEmptyAggregates(t *testing.T) {
	m := decay.NewForward(decay.NewPoly(2), 0)
	c := NewCounter(m)
	if got := c.Value(10); got != 0 {
		t.Errorf("empty counter = %v", got)
	}
	s := NewSum(m)
	if got := s.Value(10); got != 0 {
		t.Errorf("empty sum = %v", got)
	}
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Variance()) {
		t.Errorf("empty mean/variance should be NaN, got %v/%v", s.Mean(), s.Variance())
	}
	c.ObserveN(5, 0)  // ignored
	c.ObserveN(5, -1) // ignored
	if c.Value(10) != 0 || c.n != 0 {
		t.Errorf("non-positive ObserveN must be ignored")
	}
}

func TestLandmarkWindowAggregation(t *testing.T) {
	// Landmark-window decay counts everything after L at full weight —
	// plain aggregation (§III-C).
	m := decay.NewForward(decay.LandmarkWindow{}, 100)
	s := NewSum(m)
	s.Observe(99, 10) // before the landmark: weight 0
	s.Observe(101, 3)
	s.Observe(150, 4)
	if got := s.Value(200); !almostEq(got, 7, 1e-12) {
		t.Errorf("landmark sum = %v, want 7", got)
	}
	if got := s.Count(200); !almostEq(got, 2, 1e-12) {
		t.Errorf("landmark count = %v, want 2", got)
	}
}

func TestOutOfOrderAndFutureQueries(t *testing.T) {
	// §VI-B: nothing relies on arrival order; queries with t below the max
	// timestamp can yield weights above 1 ("historical queries").
	m := decay.NewForward(decay.NewPoly(2), 0)
	c := NewCounter(m)
	c.Observe(100)
	c.Observe(50) // late arrival
	got := c.Value(100)
	want := 1 + m.Weight(50, 100)
	if !almostEq(got, want, 1e-12) {
		t.Errorf("count = %v, want %v", got, want)
	}
	// Historical query at t=50: the t=100 item weighs (100/50)² = 4.
	if got := c.Value(50); !almostEq(got, 4+1, 1e-12) {
		t.Errorf("historical count = %v, want 5", got)
	}
}
