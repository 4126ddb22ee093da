package agg

import (
	"math"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/internal/core"
)

// bruteExtreme computes the decayed min/max directly from Definition 6.
func bruteExtreme(m decay.Forward, ts, vs []float64, t float64, max bool) float64 {
	best := math.Inf(1)
	if max {
		best = math.Inf(-1)
	}
	for i := range ts {
		x := m.StaticWeight(ts[i]) * vs[i] / m.Normalizer(t)
		if max && x > best || !max && x < best {
			best = x
		}
	}
	return best
}

func TestMinMaxMatchBruteForce(t *testing.T) {
	ts, vs := randomStream(51, 3000, 10, 500) // values in [-5, 10]
	models := []decay.Forward{
		decay.NewForward(decay.None{}, 10),
		decay.NewForward(decay.NewPoly(2), 10),
		decay.NewForward(decay.NewExp(0.005), 10),
	}
	for _, m := range models {
		mx, mn := NewMax(m), NewMin(m)
		for i := range ts {
			mx.Observe(ts[i], vs[i])
			mn.Observe(ts[i], vs[i])
		}
		const tq = 600
		if got, want := mx.Value(tq), bruteExtreme(m, ts, vs, tq, true); !almostEq(got, want, 1e-9) {
			t.Errorf("%v: max = %v, want %v", m.Func, got, want)
		}
		if got, want := mn.Value(tq), bruteExtreme(m, ts, vs, tq, false); !almostEq(got, want, 1e-9) {
			t.Errorf("%v: min = %v, want %v", m.Func, got, want)
		}
	}
}

func TestMinMaxSignHandling(t *testing.T) {
	m := decay.NewForward(decay.NewPoly(1), 0)
	mx, mn := NewMax(m), NewMin(m)
	// g(ti) = ti. Items: (10, -2) → -20; (5, 3) → 15; (2, -8) → -16.
	for _, it := range []struct{ ti, v float64 }{{10, -2}, {5, 3}, {2, -8}} {
		mx.Observe(it.ti, it.v)
		mn.Observe(it.ti, it.v)
	}
	const tq = 10 // normalizer 10
	if got := mx.Value(tq); !almostEq(got, 1.5, 1e-12) {
		t.Errorf("max = %v, want 1.5 (item (5,3))", got)
	}
	if ti, v, ok := mx.e.ti, mx.e.v, mx.e.set; !ok || ti != 5 || v != 3 {
		t.Errorf("argmax = (%v,%v,%v), want (5,3,true)", ti, v, ok)
	}
	if got := mn.Value(tq); !almostEq(got, -2, 1e-12) {
		t.Errorf("min = %v, want -2 (item (10,-2))", got)
	}
	if ti, v, ok := mn.e.ti, mn.e.v, mn.e.set; !ok || ti != 10 || v != -2 {
		t.Errorf("argmin = (%v,%v,%v), want (10,-2,true)", ti, v, ok)
	}
}

func TestMinMaxAllNegative(t *testing.T) {
	m := decay.NewForward(decay.NewExp(0.1), 0)
	mx := NewMax(m)
	for _, it := range []struct{ ti, v float64 }{{1, -5}, {2, -4}, {3, -10}} {
		mx.Observe(it.ti, it.v)
	}
	// g·v: -5e^0.1, -4e^0.2, -10e^0.3. Max = -4e^0.2.
	want := -4 * math.Exp(0.2) / math.Exp(0.3)
	if got := mx.Value(3); !almostEq(got, want, 1e-12) {
		t.Errorf("max = %v, want %v", got, want)
	}
}

func TestMinMaxZeroWeightAndZeroValue(t *testing.T) {
	m := decay.NewForward(decay.NewPoly(2), 100)
	mn := NewMin(m)
	mn.Observe(150, 4)
	mn.Observe(90, 7) // before landmark: decayed value 0 — the minimum here
	if got := mn.Value(200); got != 0 {
		t.Errorf("min = %v, want 0 (zero-weight item)", got)
	}
	mx := NewMax(m)
	mx.Observe(150, 0)
	mx.Observe(160, -1)
	if got := mx.Value(200); got != 0 {
		t.Errorf("max = %v, want 0 (zero value beats negatives)", got)
	}
}

func TestMinMaxEmpty(t *testing.T) {
	m := decay.NewForward(decay.NewPoly(2), 0)
	if !math.IsNaN(NewMax(m).Value(10)) || !math.IsNaN(NewMin(m).Value(10)) {
		t.Error("empty min/max must be NaN")
	}
	if NewMax(m).e.set {
		t.Error("empty Arg must report ok=false")
	}
}

func TestMinMaxMerge(t *testing.T) {
	ts, vs := randomStream(52, 2000, 0, 400)
	m := decay.NewForward(decay.NewExp(0.01), 0)
	whole := NewMax(m)
	a, b := NewMax(m), NewMax(m)
	for i := range ts {
		whole.Observe(ts[i], vs[i])
		if i%2 == 0 {
			a.Observe(ts[i], vs[i])
		} else {
			b.Observe(ts[i], vs[i])
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !almostEq(a.Value(500), whole.Value(500), 1e-12) {
		t.Errorf("merged max %v != single-stream %v", a.Value(500), whole.Value(500))
	}
	bad := NewMax(decay.NewForward(decay.NewExp(0.02), 0))
	if err := a.Merge(bad); err == nil {
		t.Error("expected model mismatch error")
	}
	mn := NewMin(m)
	mn.Observe(1, 1)
	mn2 := NewMin(m)
	mn2.Observe(2, -1)
	if err := mn.Merge(mn2); err != nil {
		t.Fatal(err)
	}
	if v := mn.e.v; v != -1 {
		t.Errorf("merged min arg v = %v, want -1", v)
	}
}

func TestMinMaxNoOverflowLongExpStream(t *testing.T) {
	m := decay.NewForward(decay.NewExp(1), 0)
	mx := NewMax(m)
	rng := core.NewRNG(53)
	for ti := 1.0; ti <= 5000; ti++ {
		mx.Observe(ti, 1+rng.Float64())
	}
	got := mx.Value(5000)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("max overflowed: %v", got)
	}
	// The winner is one of the last few items; its decayed value is ≤ 2 and
	// at least e^{-1} of the largest value (≥ 1).
	if got < math.Exp(-2) || got > 2 {
		t.Errorf("max = %v, expected within [e^-2, 2]", got)
	}
	if ti := mx.e.ti; ti < 4990 {
		t.Errorf("argmax at ti=%v, expected a recent item", ti)
	}
}

func TestMinMaxModelAccessors(t *testing.T) {
	m := decay.NewForward(decay.NewPoly(2), 7)
	if NewMax(m).Model() != m || NewMin(m).Model() != m {
		t.Error("Model() accessor mismatch")
	}
}
