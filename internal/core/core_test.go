package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKahanSumExactOnHardCase(t *testing.T) {
	// 1 + 1e-16 added 1e6 times loses the small terms under naive summation;
	// Kahan keeps them.
	var k KahanSum
	k.Add(1)
	for i := 0; i < 1_000_000; i++ {
		k.Add(1e-16)
	}
	got := k.Value()
	want := 1 + 1e-10
	if math.Abs(got-want) > 1e-13 {
		t.Errorf("Kahan sum = %.17g, want %.17g", got, want)
	}
}

func TestKahanScaleAndReset(t *testing.T) {
	var a, b KahanSum
	for i := 1; i <= 100; i++ {
		a.Add(float64(i))
		b.Add(float64(i) * 2)
	}
	a.Scale(2)
	if math.Abs(a.Value()-b.Value()) > 1e-9 {
		t.Errorf("scaled sum %v != direct sum %v", a.Value(), b.Value())
	}
	a.Reset()
	if a.Value() != 0 {
		t.Errorf("Reset: value %v, want 0", a.Value())
	}
}

func TestLogSumExp(t *testing.T) {
	cases := []struct{ a, b float64 }{
		{0, 0}, {1, 2}, {-3, 5}, {700, 700}, {-700, -701}, {100, -100},
	}
	for _, c := range cases {
		got := LogSumExp(c.a, c.b)
		// Verify against direct computation where it does not overflow.
		if math.Abs(c.a) < 300 && math.Abs(c.b) < 300 {
			want := math.Log(math.Exp(c.a) + math.Exp(c.b))
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("LogSumExp(%v,%v) = %v, want %v", c.a, c.b, got, want)
			}
		}
		if got < math.Max(c.a, c.b) {
			t.Errorf("LogSumExp(%v,%v) = %v below max operand", c.a, c.b, got)
		}
	}
	ninf := math.Inf(-1)
	if got := LogSumExp(ninf, 3); got != 3 {
		t.Errorf("LogSumExp(-Inf,3) = %v, want 3", got)
	}
	if got := LogSumExp(2, ninf); got != 2 {
		t.Errorf("LogSumExp(2,-Inf) = %v, want 2", got)
	}
}

func TestExpClamped(t *testing.T) {
	if got := ExpClamped(-1000); got != 0 {
		t.Errorf("ExpClamped(-1000) = %v, want 0", got)
	}
	if got := ExpClamped(1000); got != math.MaxFloat64 {
		t.Errorf("ExpClamped(1000) = %v, want MaxFloat64", got)
	}
	if got, want := ExpClamped(2), math.Exp(2); math.Abs(got-want) > 1e-12 {
		t.Errorf("ExpClamped(2) = %v, want %v", got, want)
	}
}

func TestMix64Bijectivity(t *testing.T) {
	// SplitMix64's finalizer is a bijection; spot-check no collisions over a
	// modest sample and decent avalanche behaviour.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100000; i++ {
		h := Mix64(i)
		if prev, dup := seen[h]; dup {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestU64ToUnitRange(t *testing.T) {
	f := func(x uint64) bool {
		u := U64ToUnit(x)
		return u > 0 && u < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func TestHashStringDistinct(t *testing.T) {
	if HashString("a") == HashString("b") {
		t.Error("trivial collision")
	}
	if HashString("") == HashString("a") {
		t.Error("empty vs non-empty collision")
	}
	if HashString("abc") != HashString("abc") {
		t.Error("hash not deterministic")
	}
}

func TestRNGDeterminismAndUniformity(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same sequence")
		}
	}
	c := NewRNG(43)
	if a.Uint64() == c.Uint64() && a.Uint64() == c.Uint64() {
		t.Error("different seeds gave identical draws")
	}

	// Mean of uniform draws should be close to 0.5.
	r := NewRNG(1)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		u := r.Float64()
		if u <= 0 || u >= 1 {
			t.Fatalf("Float64 out of (0,1): %v", u)
		}
		sum += u
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean %v too far from 0.5", mean)
	}
}

func TestRNGExpFloat64Mean(t *testing.T) {
	r := NewRNG(99)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean %v too far from 1", mean)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	NewRNG(1).Intn(0)
}
