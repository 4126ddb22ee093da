package agg

import (
	"math"
	"sort"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/internal/core"
)

// TestExample3ViaHeavyHitters reproduces Example 3 of the paper through the
// public HeavyHitters API: φ=0.2 heavy hitters of the example stream are
// items 4, 6, 8 with decayed counts 0.41, 0.64, 0.49 at t=110.
func TestExample3ViaHeavyHitters(t *testing.T) {
	h := NewHeavyHittersK(example1Model(), 16)
	for _, it := range example1 {
		h.Observe(uint64(it.v), it.ti)
	}
	if got := h.DecayedCount(110); !almostEq(got, 1.63, 1e-12) {
		t.Fatalf("C = %v, want 1.63", got)
	}
	hh := h.Query(110, 0.2)
	want := map[uint64]float64{6: 0.64, 8: 0.49, 4: 0.41}
	if len(hh) != 3 {
		t.Fatalf("got %v, want 3 heavy hitters", hh)
	}
	for _, it := range hh {
		if w, ok := want[it.Key]; !ok || !almostEq(it.Count, w, 1e-12) {
			t.Errorf("heavy hitter %d count %v, want %v", it.Key, it.Count, want[it.Key])
		}
	}
	if c, _ := h.Estimate(3, 110); !almostEq(c, 0.09, 1e-12) {
		t.Errorf("d₃ = %v, want 0.09", c)
	}
}

// decayedZipfStream builds a skewed keyed stream with timestamps.
func decayedZipfStream(seed uint64, n, u int) (keys []uint64, ts []float64) {
	rng := core.NewRNG(seed)
	keys = make([]uint64, n)
	ts = make([]float64, n)
	for i := range keys {
		// Simple skew: key k with probability ∝ 1/k².
		k := 1 + int(math.Floor(1/math.Sqrt(rng.Float64())))
		if k > u {
			k = u
		}
		keys[i] = uint64(k)
		ts[i] = float64(i) * 0.01
	}
	return
}

func bruteDecayedCounts(m decay.Forward, keys []uint64, ts []float64, t float64) map[uint64]float64 {
	out := make(map[uint64]float64)
	for i := range keys {
		out[keys[i]] += m.Weight(ts[i], t)
	}
	return out
}

func TestHeavyHittersGuaranteeUnderDecay(t *testing.T) {
	keys, ts := decayedZipfStream(61, 40000, 1000)
	tq := ts[len(ts)-1]
	for _, m := range []decay.Forward{
		decay.NewForward(decay.NewPoly(2), -1),
		decay.NewForward(decay.NewExp(0.02), -1),
	} {
		const eps, phi = 0.005, 0.03
		h := NewHeavyHitters(m, eps)
		for i := range keys {
			h.Observe(keys[i], ts[i])
		}
		exact := bruteDecayedCounts(m, keys, ts, tq)
		var C float64
		for _, c := range exact {
			C += c
		}
		if got := h.DecayedCount(tq); !almostEq(got, C, 1e-6) {
			t.Fatalf("%v: C = %v, want %v", m.Func, got, C)
		}
		hh := h.Query(tq, phi)
		got := make(map[uint64]bool)
		for _, it := range hh {
			got[it.Key] = true
			if exact[it.Key] < (phi-eps)*C-1e-9 {
				t.Errorf("%v: false positive %d (true %v < %v)", m.Func, it.Key, exact[it.Key], (phi-eps)*C)
			}
		}
		for k, c := range exact {
			if c >= phi*C && !got[k] {
				t.Errorf("%v: missed heavy hitter %d (%v ≥ %v)", m.Func, k, c, phi*C)
			}
		}
	}
}

func TestHeavyHittersExpRebaseLongStream(t *testing.T) {
	// α=1 over 5000 seconds: static weights span e^5000. The summary must
	// rebase internally and still match brute force on recent mass.
	m := decay.NewForward(decay.NewExp(1), 0)
	h := NewHeavyHittersK(m, 64)
	keys, _ := decayedZipfStream(62, 5000, 50)
	for i, k := range keys {
		h.Observe(k, float64(i))
	}
	tq := float64(len(keys) - 1)
	exact := bruteDecayedCounts(m, keys, timesUpTo(len(keys)), tq)
	var C float64
	for _, c := range exact {
		C += c
	}
	if got := h.DecayedCount(tq); !almostEq(got, C, 1e-6) {
		t.Fatalf("C = %v, want %v", got, C)
	}
	for _, it := range h.Query(tq, 0.1) {
		if !almostEq(it.Count, exact[it.Key], 0.05) && it.Err < 1e-9 {
			t.Errorf("key %d: count %v, want %v", it.Key, it.Count, exact[it.Key])
		}
	}
}

func timesUpTo(n int) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i)
	}
	return ts
}

func TestHeavyHittersMergeDistributed(t *testing.T) {
	keys, ts := decayedZipfStream(63, 30000, 500)
	m := decay.NewForward(decay.NewPoly(2), -1)
	whole := NewHeavyHittersK(m, 400)
	sites := []*HeavyHitters{NewHeavyHittersK(m, 400), NewHeavyHittersK(m, 400), NewHeavyHittersK(m, 400)}
	for i := range keys {
		whole.Observe(keys[i], ts[i])
		sites[i%3].Observe(keys[i], ts[i])
	}
	merged := NewHeavyHittersK(m, 400)
	for _, s := range sites {
		if err := merged.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	tq := ts[len(ts)-1]
	if !almostEq(merged.DecayedCount(tq), whole.DecayedCount(tq), 1e-6) {
		t.Fatalf("merged C %v != single-stream %v", merged.DecayedCount(tq), whole.DecayedCount(tq))
	}
	exact := bruteDecayedCounts(m, keys, ts, tq)
	var C float64
	for _, c := range exact {
		C += c
	}
	const phi = 0.05
	got := make(map[uint64]bool)
	for _, it := range merged.Query(tq, phi) {
		got[it.Key] = true
	}
	for k, c := range exact {
		if c >= phi*C && !got[k] {
			t.Errorf("merged summary missed heavy hitter %d", k)
		}
	}
	bad := NewHeavyHittersK(decay.NewForward(decay.NewPoly(3), -1), 400)
	if err := merged.Merge(bad); err == nil {
		t.Error("expected model mismatch error")
	}
}

func bruteDecayedRank(m decay.Forward, vals []uint64, ts []float64, v uint64, t float64) float64 {
	var r float64
	for i := range vals {
		if vals[i] <= v {
			r += m.Weight(ts[i], t)
		}
	}
	return r
}

func TestQuantilesUnderDecay(t *testing.T) {
	rng := core.NewRNG(64)
	const n, u = 30000, 1 << 12
	vals := make([]uint64, n)
	ts := make([]float64, n)
	for i := range vals {
		vals[i] = uint64(rng.Intn(u))
		ts[i] = float64(i) * 0.01
	}
	tq := ts[n-1]
	for _, m := range []decay.Forward{
		decay.NewForward(decay.NewPoly(2), -1),
		decay.NewForward(decay.NewExp(0.01), -1),
	} {
		const eps = 0.05
		q := NewQuantiles(m, u, eps)
		for i := range vals {
			q.Observe(vals[i], ts[i])
		}
		var C float64
		for i := range vals {
			C += m.Weight(ts[i], tq)
		}
		if got := q.DecayedCount(tq); !almostEq(got, C, 1e-6) {
			t.Fatalf("%v: C = %v, want %v", m.Func, got, C)
		}
		for _, phi := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			v := q.Quantile(phi)
			lo := bruteDecayedRank(m, vals, ts, v-1, tq)
			hi := bruteDecayedRank(m, vals, ts, v, tq)
			if hi < (phi-eps)*C || lo > (phi+eps)*C {
				t.Errorf("%v: quantile(%v)=%d rank bracket [%v,%v] outside %v±%v",
					m.Func, phi, v, lo, hi, phi*C, eps*C)
			}
		}
		// Rank query needs the time scaling.
		med := q.Quantile(0.5)
		if got, want := q.Rank(med, tq), bruteDecayedRank(m, vals, ts, med-1, tq); math.Abs(got-want) > 2*eps*C {
			t.Errorf("%v: Rank(%d) = %v, want ≈ %v", m.Func, med, got, want)
		}
	}
}

func TestQuantilesExpRebase(t *testing.T) {
	m := decay.NewForward(decay.NewExp(0.5), 0)
	q := NewQuantiles(m, 1024, 0.05)
	rng := core.NewRNG(65)
	// 4000 seconds at α=0.5: static weights span e^2000.
	for i := 0; i < 40000; i++ {
		q.Observe(uint64(rng.Intn(1024)), float64(i)*0.1)
	}
	med := q.Quantile(0.5)
	// Uniform values: the decayed median must be near 512.
	if math.Abs(float64(med)-512) > 0.15*1024 {
		t.Errorf("median = %d, want ≈ 512", med)
	}
	if c := q.DecayedCount(4000); math.IsInf(c, 0) || math.IsNaN(c) || c <= 0 {
		t.Errorf("decayed count not finite/positive: %v", c)
	}
}

func TestQuantilesMerge(t *testing.T) {
	rng := core.NewRNG(66)
	const n, u = 20000, 1 << 10
	m := decay.NewForward(decay.NewPoly(1), -1)
	whole := NewQuantiles(m, u, 0.05)
	a, b := NewQuantiles(m, u, 0.05), NewQuantiles(m, u, 0.05)
	vals := make([]uint64, n)
	ts := make([]float64, n)
	for i := range vals {
		vals[i] = uint64(rng.Intn(u))
		ts[i] = float64(i) * 0.01
		whole.Observe(vals[i], ts[i])
		if i%2 == 0 {
			a.Observe(vals[i], ts[i])
		} else {
			b.Observe(vals[i], ts[i])
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	tq := ts[n-1]
	var C float64
	for i := range vals {
		C += m.Weight(ts[i], tq)
	}
	for _, phi := range []float64{0.25, 0.5, 0.75} {
		v := a.Quantile(phi)
		lo := bruteDecayedRank(m, vals, ts, v-1, tq)
		hi := bruteDecayedRank(m, vals, ts, v, tq)
		if hi < (phi-0.12)*C || lo > (phi+0.12)*C {
			t.Errorf("merged quantile(%v)=%d bracket [%v,%v] vs %v", phi, v, lo, hi, phi*C)
		}
	}
	bad := NewQuantiles(decay.NewForward(decay.NewPoly(2), -1), u, 0.05)
	if err := a.Merge(bad); err == nil {
		t.Error("expected model mismatch error")
	}
}

func bruteDistinct(m decay.Forward, keys []uint64, ts []float64, t float64) float64 {
	max := make(map[uint64]float64)
	for i := range keys {
		w := m.Weight(ts[i], t)
		if w > max[keys[i]] {
			max[keys[i]] = w
		}
	}
	var d float64
	for _, w := range max {
		d += w
	}
	return d
}

func TestDistinctExactMatchesBruteForce(t *testing.T) {
	keys, ts := decayedZipfStream(67, 20000, 2000)
	for _, m := range []decay.Forward{
		decay.NewForward(decay.NewPoly(2), -1),
		decay.NewForward(decay.NewExp(0.01), -1),
	} {
		d := NewDistinctExact(m)
		for i := range keys {
			d.Observe(keys[i], ts[i])
		}
		tq := ts[len(ts)-1]
		want := bruteDistinct(m, keys, ts, tq)
		if got := d.Value(tq); !almostEq(got, want, 1e-9) {
			t.Errorf("%v: D = %v, want %v", m.Func, got, want)
		}
	}
}

func TestDistinctExactMerge(t *testing.T) {
	keys, ts := decayedZipfStream(68, 10000, 800)
	m := decay.NewForward(decay.NewPoly(2), -1)
	whole := NewDistinctExact(m)
	a, b := NewDistinctExact(m), NewDistinctExact(m)
	for i := range keys {
		whole.Observe(keys[i], ts[i])
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
	if !almostEq(a.Value(tq), whole.Value(tq), 1e-9) {
		t.Errorf("merged D %v != single-stream %v", a.Value(tq), whole.Value(tq))
	}
	if len(a.maxLW) != len(whole.maxLW) {
		t.Errorf("merged keys %d != %d", len(a.maxLW), len(whole.maxLW))
	}
}

func TestDistinctApproxTracksExact(t *testing.T) {
	rng := core.NewRNG(69)
	const n = 40000
	keys := make([]uint64, n)
	ts := make([]float64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(3000))
		ts[i] = float64(i) * 0.01
	}
	m := decay.NewForward(decay.NewPoly(2), -1)
	exact := NewDistinctExact(m)
	approx := NewDistinct(m, 1024, 1.05, 1024)
	for i := range keys {
		exact.Observe(keys[i], ts[i])
		approx.Observe(keys[i], ts[i])
	}
	tq := ts[n-1]
	e, a := exact.Value(tq), approx.Value(tq)
	if math.Abs(a-e) > 0.2*e {
		t.Errorf("approx D = %v, exact %v (off by %v%%)", a, e, 100*math.Abs(a-e)/e)
	}
}

func TestDistinctModelMismatch(t *testing.T) {
	m1 := decay.NewForward(decay.NewPoly(2), 0)
	m2 := decay.NewForward(decay.NewPoly(2), 1)
	if err := NewDistinctExact(m1).Merge(NewDistinctExact(m2)); err == nil {
		t.Error("expected mismatch error (exact)")
	}
	if err := NewDistinct(m1, 64, 1.1, 64).Merge(NewDistinct(m2, 64, 1.1, 64)); err == nil {
		t.Error("expected mismatch error (approx)")
	}
}

func TestHeavyHittersQuerySorted(t *testing.T) {
	keys, ts := decayedZipfStream(70, 5000, 100)
	m := decay.NewForward(decay.NewExp(0.05), -1)
	h := NewHeavyHittersK(m, 50)
	for i := range keys {
		h.Observe(keys[i], ts[i])
	}
	hh := h.Query(ts[len(ts)-1], 0.01)
	if !sort.SliceIsSorted(hh, func(i, j int) bool { return hh[i].Count > hh[j].Count }) {
		t.Error("Query results not sorted by decayed count")
	}
}

func TestHeavyHittersTop(t *testing.T) {
	m := decay.NewForward(decay.NewPoly(2), 0)
	h := NewHeavyHittersK(m, 16)
	h.ObserveN(1, 10, 5)
	h.ObserveN(2, 20, 5)
	h.ObserveN(3, 30, 5)
	top := h.Top(30, 2)
	if len(top) != 2 || top[0].Key != 3 || top[1].Key != 2 {
		t.Fatalf("Top = %+v", top)
	}
	if top[0].Count <= top[1].Count {
		t.Errorf("Top not sorted: %+v", top)
	}
	if got := h.Top(30, 10); len(got) != 3 {
		t.Errorf("Top(10) over 3 items returned %d", len(got))
	}
}

func TestHeavyHittersByteWeighted(t *testing.T) {
	// ObserveN with byte counts: the "sum of lengths per destination" query
	// of §IV-A.
	m := decay.NewForward(decay.NewPoly(2), 0)
	h := NewHeavyHittersK(m, 16)
	h.ObserveN(1, 30, 1500)
	h.ObserveN(2, 30, 40)
	h.ObserveN(1, 60, 40)
	tq := 60.0
	wantKey1 := m.Weight(30, tq)*1500 + m.Weight(60, tq)*40
	if got, _ := h.Estimate(1, tq); !almostEq(got, wantKey1, 1e-9) {
		t.Errorf("byte-weighted estimate = %v, want %v", got, wantKey1)
	}
}
