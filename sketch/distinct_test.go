package sketch

import (
	"math"
	"testing"

	"forwarddecay/internal/core"
)

func TestKMVEstimate(t *testing.T) {
	for _, d := range []int{100, 1000, 50000} {
		kmv := NewKMV(1024)
		for i := 0; i < d; i++ {
			// Insert each key several times: duplicates must not matter.
			kmv.Insert(uint64(i))
			kmv.Insert(uint64(i))
		}
		got := kmv.Estimate()
		tol := 0.15 * float64(d)
		if d <= 1024 {
			tol = 0 // below k the sketch is exact
		}
		if math.Abs(got-float64(d)) > tol {
			t.Errorf("d=%d: estimate %v, want within %v", d, got, tol)
		}
	}
}

func TestKMVMergeIsUnion(t *testing.T) {
	a, b, u := NewKMV(512), NewKMV(512), NewKMV(512)
	for i := 0; i < 20000; i++ {
		a.Insert(uint64(i))
		u.Insert(uint64(i))
	}
	for i := 10000; i < 30000; i++ {
		b.Insert(uint64(i))
		u.Insert(uint64(i))
	}
	a.Merge(b)
	// a now estimates |union| = 30000, and must equal the directly-built
	// union sketch exactly (same retained hashes).
	if got, want := a.Estimate(), u.Estimate(); got != want {
		t.Errorf("merged estimate %v != direct union estimate %v", got, want)
	}
	if math.Abs(a.Estimate()-30000) > 0.15*30000 {
		t.Errorf("union estimate %v, want ≈ 30000", a.Estimate())
	}
}

func TestKMVSmall(t *testing.T) {
	kmv := NewKMV(8)
	if kmv.Estimate() != 0 {
		t.Errorf("empty estimate = %v", kmv.Estimate())
	}
	kmv.Insert(1)
	kmv.Insert(1)
	kmv.Insert(2)
	if got := kmv.Estimate(); got != 2 {
		t.Errorf("below-k estimate = %v, want exact 2", got)
	}
	if kmv.k != 8 || kmv.Len() != 2 {
		t.Errorf("K=%d Len=%d", kmv.k, kmv.Len())
	}
}

// exactDominance computes Σ_v max w_v for reference.
func exactDominance(keys []uint64, logws []float64) float64 {
	max := make(map[uint64]float64)
	for i, k := range keys {
		if m, ok := max[k]; !ok || logws[i] > m {
			max[k] = logws[i]
		}
	}
	var s float64
	for _, lw := range max {
		s += math.Exp(lw)
	}
	return s
}

func TestDominanceAccuracy(t *testing.T) {
	rng := core.NewRNG(31)
	const n = 60000
	keys := make([]uint64, n)
	logws := make([]float64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(5000))
		// Weights spread over ~4 decades, like polynomial forward decay.
		logws[i] = 9 * rng.Float64()
	}
	d := NewDominance(1024, 1.05, 1024)
	for i := range keys {
		d.Update(keys[i], logws[i])
	}
	want := exactDominance(keys, logws)
	got := math.Exp(d.LogEstimate())
	if math.Abs(got-want) > 0.2*want {
		t.Errorf("dominance estimate %v, want %v ± 20%%", got, want)
	}
}

func TestDominanceSkewedWeights(t *testing.T) {
	// A few recent keys dominate the norm — the regime of exponential
	// forward decay, where level layering matters.
	const n = 10000
	keys := make([]uint64, n)
	logws := make([]float64, n)
	for i := range keys {
		keys[i] = uint64(i % 1500)
		logws[i] = float64(i) * 0.003 // latest items are e^30 ≈ 10^13 heavier
	}
	d := NewDominance(2048, 1.05, 1024)
	for i := range keys {
		d.Update(keys[i], logws[i])
	}
	// Exact log-domain dominance: every key's max is its last occurrence.
	max := make(map[uint64]float64)
	for i, k := range keys {
		if m, ok := max[k]; !ok || logws[i] > m {
			max[k] = logws[i]
		}
	}
	logWant := math.Inf(-1)
	for _, lw := range max {
		logWant = core.LogSumExp(logWant, lw)
	}
	logGot := d.LogEstimate()
	if math.Abs(logGot-logWant) > math.Log(1.25) {
		t.Errorf("log dominance %v, want %v (ratio %v)", logGot, logWant, math.Exp(logGot-logWant))
	}
}

func TestDominanceHugeLogWeightsNoOverflow(t *testing.T) {
	// Exponential decay over a long stream: log-weights in the thousands.
	d := NewDominance(256, 1.1, 512)
	for i := 0; i < 10000; i++ {
		d.Update(uint64(i%100), float64(i)) // up to e^9999
	}
	lg := d.LogEstimate()
	if math.IsInf(lg, 0) || math.IsNaN(lg) {
		t.Fatalf("log estimate not finite: %v", lg)
	}
	// The norm is dominated by the largest max-weight (≈ e^9999) times up
	// to 100 keys; ln of it must be within a few units of 9999+ln(100)'s
	// neighbourhood.
	want := 9999 + math.Log(100)
	if math.Abs(lg-want) > 5 {
		t.Errorf("log estimate %v, want ≈ %v", lg, want)
	}
}

// TestDominanceDescendingWeights is a regression test: when the heaviest
// item arrives FIRST, later lighter items open lower levels, and the
// telescoping estimate must still credit the early item its full weight
// (the lower levels are seeded with clones of the old lowest level).
func TestDominanceDescendingWeights(t *testing.T) {
	d := NewDominance(256, 1.1, 512)
	exact := map[uint64]float64{}
	for i := 0; i < 300; i++ {
		lw := 5 - 5*float64(i)/300 // strictly decreasing log-weights
		key := uint64(i)
		d.Update(key, lw)
		exact[key] = lw
	}
	var want float64
	for _, lw := range exact {
		want += math.Exp(lw)
	}
	got := math.Exp(d.LogEstimate())
	if math.Abs(got-want) > 0.15*want {
		t.Errorf("descending-weight dominance %v, want %v", got, want)
	}
}

// TestDominanceMergeAsymmetricRanges merges sketches whose level ranges do
// not overlap; the combined estimate must still track the exact norm.
func TestDominanceMergeAsymmetricRanges(t *testing.T) {
	a := NewDominance(512, 1.1, 512)
	b := NewDominance(512, 1.1, 512)
	exact := map[uint64]float64{}
	for i := 0; i < 200; i++ {
		lwA := 8 + 2*float64(i)/200 // heavy keys at site A
		lwB := 1 * float64(i) / 200 // light keys at site B
		a.Update(uint64(i), lwA)
		b.Update(uint64(1000+i), lwB)
		exact[uint64(i)] = lwA
		exact[uint64(1000+i)] = lwB
	}
	a.Merge(b)
	var want float64
	for _, lw := range exact {
		want += math.Exp(lw)
	}
	got := math.Exp(a.LogEstimate())
	if math.Abs(got-want) > 0.15*want {
		t.Errorf("asymmetric merge dominance %v, want %v", got, want)
	}
}

func TestDominanceLevelPruning(t *testing.T) {
	d := NewDominance(64, 2, 8)
	for i := 0; i < 1000; i++ {
		d.Update(uint64(i), float64(i)) // levels keep climbing
	}
	if len(d.levels) > 8 {
		t.Errorf("retained %d levels, cap is 8", len(d.levels))
	}
}

func TestDominanceMerge(t *testing.T) {
	rng := core.NewRNG(33)
	mk := func(seed int) ([]uint64, []float64) {
		keys := make([]uint64, 20000)
		lws := make([]float64, 20000)
		for i := range keys {
			keys[i] = uint64(rng.Intn(4000))
			lws[i] = 6 * rng.Float64()
		}
		return keys, lws
	}
	ka, la := mk(1)
	kb, lb := mk(2)
	a := NewDominance(1024, 1.05, 1024)
	b := NewDominance(1024, 1.05, 1024)
	for i := range ka {
		a.Update(ka[i], la[i])
	}
	for i := range kb {
		b.Update(kb[i], lb[i])
	}
	a.Merge(b)
	want := exactDominance(append(append([]uint64{}, ka...), kb...), append(append([]float64{}, la...), lb...))
	got := math.Exp(a.LogEstimate())
	if math.Abs(got-want) > 0.25*want {
		t.Errorf("merged dominance %v, want %v ± 25%%", got, want)
	}
}

func TestDominanceEmptyAndIgnores(t *testing.T) {
	d := NewDominance(16, 2, 8)
	if !math.IsInf(d.LogEstimate(), -1) {
		t.Errorf("empty LogEstimate = %v, want -Inf", d.LogEstimate())
	}
	d.Update(1, math.Inf(-1)) // zero weight: ignored
	d.Update(2, math.NaN())   // ignored
	if !math.IsInf(d.LogEstimate(), -1) {
		t.Errorf("after ignored updates LogEstimate = %v, want -Inf", d.LogEstimate())
	}
	d.Merge(nil) // no-op
}

func TestMisraGriesErrorBound(t *testing.T) {
	keys, ws, exact := zipfStream(34, 40000, 1500, 1.3, true)
	const k = 100
	mg := NewMisraGries(k)
	var total float64
	for i := range keys {
		mg.Update(keys[i], ws[i])
		total += ws[i]
	}
	bound := total / float64(k+1)
	for key, true_ := range exact {
		est := mg.Estimate(key)
		if est > true_+1e-9 {
			t.Fatalf("key %d: MG estimate %v above true %v", key, est, true_)
		}
		if est < true_-bound-1e-9 {
			t.Fatalf("key %d: MG estimate %v below true−W/(k+1) = %v", key, est, true_-bound)
		}
	}
	if mg.Len() > k {
		t.Fatalf("MG holds %d counters, cap %d", mg.Len(), k)
	}
}

func TestMisraGriesMerge(t *testing.T) {
	ka, wa, ea := zipfStream(35, 20000, 800, 1.4, true)
	kb, wb, eb := zipfStream(36, 20000, 800, 1.4, true)
	const k = 80
	a, b := NewMisraGries(k), NewMisraGries(k)
	var total float64
	for i := range ka {
		a.Update(ka[i], wa[i])
		total += wa[i]
	}
	for i := range kb {
		b.Update(kb[i], wb[i])
		total += wb[i]
	}
	a.Merge(b)
	if a.Len() > k {
		t.Fatalf("merged MG holds %d counters, cap %d", a.Len(), k)
	}
	bound := total / float64(k+1)
	for key := range ea {
		true_ := ea[key] + eb[key]
		est := a.Estimate(key)
		if est > true_+1e-9 {
			t.Fatalf("key %d: merged estimate %v above true %v", key, est, true_)
		}
		if est < true_-2*bound-1e-9 {
			t.Fatalf("key %d: merged estimate %v below true−2W/(k+1) = %v", key, est, true_-2*bound)
		}
	}
}

func TestMisraGriesItemsSorted(t *testing.T) {
	mg := NewMisraGries(10)
	mg.Update(1, 5)
	mg.Update(2, 9)
	mg.Update(3, 1)
	items := mg.Items()
	if len(items) != 3 || items[0].Key != 2 || items[2].Key != 3 {
		t.Errorf("Items() = %v", items)
	}
	if mg.Total() != 15 {
		t.Errorf("Total = %v", mg.Total())
	}
}
