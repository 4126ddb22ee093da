package sample

import (
	"errors"
	"math"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/internal/core"
)

// freqTolerance is the relative tolerance we allow between an empirical
// frequency and its expectation in the statistical tests below; trial
// counts are chosen so this corresponds to several standard deviations.
const freqTolerance = 0.08

// TestWRMatchesWeights draws many with-replacement slots over a small
// weighted stream and checks each item's selection frequency against
// w/W (Theorem 5).
func TestWRMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 10}
	var W float64
	for _, w := range weights {
		W += w
	}
	const slots = 60000
	s := NewWR[int](slots, 7)
	for i, w := range weights {
		s.Add(i, math.Log(w))
	}
	counts := make([]int, len(weights))
	for _, it := range s.Sample() {
		counts[it]++
	}
	for i, w := range weights {
		got := float64(counts[i]) / slots
		want := w / W
		if math.Abs(got-want) > freqTolerance*want {
			t.Errorf("item %d: frequency %v, want %v", i, got, want)
		}
	}
}

// TestWROrderInsensitive adds items in two different orders and checks the
// selection frequencies agree (forward decay sampling must not depend on
// arrival order).
func TestWROrderInsensitive(t *testing.T) {
	weights := []float64{5, 1, 3}
	const slots = 40000
	count := func(order []int, seed uint64) []int {
		s := NewWR[int](slots, seed)
		for _, i := range order {
			s.Add(i, math.Log(weights[i]))
		}
		c := make([]int, len(weights))
		for _, it := range s.Sample() {
			c[it]++
		}
		return c
	}
	a := count([]int{0, 1, 2}, 1)
	b := count([]int{2, 0, 1}, 2)
	for i := range weights {
		fa, fb := float64(a[i])/slots, float64(b[i])/slots
		if math.Abs(fa-fb) > freqTolerance*math.Max(fa, fb) {
			t.Errorf("item %d: order A freq %v, order B freq %v", i, fa, fb)
		}
	}
}

func TestWRMergePreservesDistribution(t *testing.T) {
	// Merge two sites and compare frequencies against single-stream.
	const slots = 50000
	wA := []float64{1, 4}
	wB := []float64{2, 8}
	a := NewWR[int](slots, 3)
	b := NewWR[int](slots, 4)
	a.Add(0, math.Log(wA[0]))
	a.Add(1, math.Log(wA[1]))
	b.Add(2, math.Log(wB[0]))
	b.Add(3, math.Log(wB[1]))
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for _, it := range a.Sample() {
		counts[it]++
	}
	W := 15.0
	for i, w := range []float64{1, 4, 2, 8} {
		got := float64(counts[i]) / slots
		want := w / W
		if math.Abs(got-want) > freqTolerance*want {
			t.Errorf("merged item %d: freq %v, want %v", i, got, want)
		}
	}
}

// TestWRSSingleSlotInclusion checks the exact k=1 inclusion probability
// w/W of weighted reservoir sampling across many independent trials.
func TestWRSSingleSlotInclusion(t *testing.T) {
	weights := []float64{1, 2, 5}
	const trials = 40000
	counts := make([]int, len(weights))
	for tr := 0; tr < trials; tr++ {
		s := NewWRS[int](1, uint64(tr)+1)
		for i, w := range weights {
			s.Add(i, math.Log(w))
		}
		counts[s.Sample()[0]]++
	}
	for i, w := range weights {
		got := float64(counts[i]) / trials
		want := w / 8
		if math.Abs(got-want) > freqTolerance*want {
			t.Errorf("item %d: inclusion %v, want %v", i, got, want)
		}
	}
}

// TestWRSSequentialDrawDistribution verifies the Efraimidis–Spirakis
// distribution for k=2 over 3 items against the exact sequential-draw
// probabilities.
func TestWRSSequentialDrawDistribution(t *testing.T) {
	w := []float64{1, 2, 3}
	W := 6.0
	// P(set {i,j}) = p(i first, j second) + p(j first, i second).
	pair := func(i, j int) float64 {
		return w[i]/W*(w[j]/(W-w[i])) + w[j]/W*(w[i]/(W-w[j]))
	}
	want := map[[2]int]float64{
		{0, 1}: pair(0, 1), {0, 2}: pair(0, 2), {1, 2}: pair(1, 2),
	}
	const trials = 60000
	got := map[[2]int]float64{}
	for tr := 0; tr < trials; tr++ {
		s := NewWRS[int](2, uint64(tr)+99)
		for i, wi := range w {
			s.Add(i, math.Log(wi))
		}
		sm := s.Sample()
		a, b := sm[0], sm[1]
		if a > b {
			a, b = b, a
		}
		got[[2]int{a, b}]++
	}
	for k, p := range want {
		g := got[k] / trials
		if math.Abs(g-p) > freqTolerance*p {
			t.Errorf("set %v: frequency %v, want %v", k, g, p)
		}
	}
}

func TestWRSSmallStreamTakesAll(t *testing.T) {
	s := NewWRS[int](10, 5)
	for i := 0; i < 4; i++ {
		s.Add(i, 0)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	seen := map[int]bool{}
	for _, it := range s.Sample() {
		seen[it] = true
	}
	if len(seen) != 4 {
		t.Errorf("sample %v should contain all 4 items", s.Sample())
	}
	// Zero-weight items are never selected.
	s2 := NewWRS[int](2, 6)
	s2.Add(1, math.Inf(-1))
	s2.Add(2, 0)
	if s2.Len() != 1 || s2.Sample()[0] != 2 {
		t.Errorf("zero-weight item selected: %v", s2.Sample())
	}
}

// TestWRSMergeEquivalentToSingleStream compares inclusion frequencies of
// merged distributed samplers with a single-stream sampler.
func TestWRSMergeEquivalentToSingleStream(t *testing.T) {
	weights := []float64{1, 3, 2, 6}
	const trials = 30000
	single := make([]int, 4)
	merged := make([]int, 4)
	for tr := 0; tr < trials; tr++ {
		s := NewWRS[int](2, uint64(tr)*2+1)
		for i, w := range weights {
			s.Add(i, math.Log(w))
		}
		for _, it := range s.Sample() {
			single[it]++
		}
		a := NewWRS[int](2, uint64(tr)*7+3)
		b := NewWRS[int](2, uint64(tr)*13+5)
		a.Add(0, math.Log(weights[0]))
		a.Add(1, math.Log(weights[1]))
		b.Add(2, math.Log(weights[2]))
		b.Add(3, math.Log(weights[3]))
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		for _, it := range a.Sample() {
			merged[it]++
		}
	}
	for i := range weights {
		fs, fm := float64(single[i])/trials, float64(merged[i])/trials
		if math.Abs(fs-fm) > freqTolerance*math.Max(fs, fm) {
			t.Errorf("item %d: single %v vs merged %v", i, fs, fm)
		}
	}
}

// TestPriorityEstimatorUnbiased checks that the priority-sampling total
// estimate Σ max(w, τ) is unbiased over repeated runs.
func TestPriorityEstimatorUnbiased(t *testing.T) {
	rng := core.NewRNG(77)
	weights := make([]float64, 200)
	var total float64
	for i := range weights {
		weights[i] = math.Exp(3 * rng.Float64()) // skewed weights
		total += weights[i]
	}
	const trials = 3000
	var sum float64
	for tr := 0; tr < trials; tr++ {
		s := NewPriority[int](20, uint64(tr)+1)
		for i, w := range weights {
			s.Add(i, math.Log(w))
		}
		sum += s.EstimateTotal(0)
	}
	mean := sum / trials
	if math.Abs(mean-total) > 0.05*total {
		t.Errorf("mean estimate %v, want %v (bias %v%%)", mean, total, 100*(mean-total)/total)
	}
}

// TestPrioritySubsetSumUnbiased estimates the weight of an arbitrary subset
// (even-indexed items) from the sample.
func TestPrioritySubsetSumUnbiased(t *testing.T) {
	rng := core.NewRNG(78)
	weights := make([]float64, 100)
	var subset float64
	for i := range weights {
		weights[i] = 0.5 + 4*rng.Float64()
		if i%2 == 0 {
			subset += weights[i]
		}
	}
	const trials = 4000
	var sum float64
	for tr := 0; tr < trials; tr++ {
		s := NewPriority[int](15, uint64(tr)+11)
		for i, w := range weights {
			s.Add(i, math.Log(w))
		}
		for _, it := range s.Sample(0) {
			if it.Item%2 == 0 {
				sum += it.Weight
			}
		}
	}
	mean := sum / trials
	if math.Abs(mean-subset) > 0.06*subset {
		t.Errorf("mean subset estimate %v, want %v", mean, subset)
	}
}

func TestPriorityExactBelowK(t *testing.T) {
	s := NewPriority[int](10, 9)
	weights := []float64{2, 3, 4}
	for i, w := range weights {
		s.Add(i, math.Log(w))
	}
	if !math.IsInf(s.LogThreshold(), -1) {
		t.Errorf("threshold should be -Inf below k, got %v", s.LogThreshold())
	}
	if got := s.EstimateTotal(0); math.Abs(got-9) > 1e-9 {
		t.Errorf("below-k estimate = %v, want exact 9", got)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestPriorityMergeUnbiased(t *testing.T) {
	weights := []float64{1, 2, 3, 4, 5, 6}
	total := 21.0
	const trials = 5000
	var sum float64
	for tr := 0; tr < trials; tr++ {
		a := NewPriority[int](3, uint64(tr)*3+1)
		b := NewPriority[int](3, uint64(tr)*5+2)
		for i, w := range weights {
			if i < 3 {
				a.Add(i, math.Log(w))
			} else {
				b.Add(i, math.Log(w))
			}
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		sum += a.EstimateTotal(0)
	}
	mean := sum / trials
	if math.Abs(mean-total) > 0.05*total {
		t.Errorf("merged mean estimate %v, want %v", mean, total)
	}
}

func TestReservoirUniform(t *testing.T) {
	const n, k, trials = 50, 5, 20000
	counts := make([]int, n)
	for tr := 0; tr < trials; tr++ {
		s := NewReservoir[int](k, uint64(tr)+1)
		for i := 0; i < n; i++ {
			s.Add(i)
		}
		for _, it := range s.Sample() {
			counts[it]++
		}
	}
	want := float64(k) / n
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-want) > freqTolerance*want {
			t.Errorf("item %d: inclusion %v, want %v", i, got, want)
		}
	}
}

// TestAggarwalExponentialBias checks that inclusion probability decreases
// with age and roughly follows exp(−age/c) for the biased reservoir.
func TestAggarwalExponentialBias(t *testing.T) {
	const n, c, trials = 2000, 100, 4000
	counts := make([]int, n)
	for tr := 0; tr < trials; tr++ {
		s := NewAggarwal[int](c, uint64(tr)+1)
		for i := 0; i < n; i++ {
			s.Add(i)
		}
		for _, it := range s.Sample() {
			counts[it]++
		}
	}
	// Bucket by age and verify monotone increase toward recent items and an
	// approximately exponential profile.
	inc := func(i int) float64 { return float64(counts[i]) / trials }
	recent := (inc(n-1) + inc(n-2) + inc(n-3)) / 3
	old := (inc(n-301) + inc(n-302) + inc(n-303)) / 3
	if recent <= old {
		t.Fatalf("recent inclusion %v not above old %v", recent, old)
	}
	ratio := old / recent
	wantRatio := math.Exp(-300.0 / c)
	if math.Abs(math.Log(ratio)-math.Log(wantRatio)) > 0.7 {
		t.Errorf("inclusion ratio at age 300: %v, want ≈ %v", ratio, wantRatio)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func(seed uint64) []int {
		s := NewWRS[int](5, seed)
		for i := 0; i < 100; i++ {
			s.Add(i, float64(i)*0.01)
		}
		return s.Sample()
	}
	a, b := mk(42), mk(42)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	am := map[int]bool{}
	for _, x := range a {
		am[x] = true
	}
	for _, x := range b {
		if !am[x] {
			t.Fatalf("same seed produced different samples: %v vs %v", a, b)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"WR":        func() { NewWR[int](0, 1) },
		"WRS":       func() { NewWRS[int](0, 1) },
		"Priority":  func() { NewPriority[int](0, 1) },
		"Reservoir": func() { NewReservoir[int](0, 1) },
		"Aggarwal":  func() { NewAggarwal[int](0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	// A size-mismatch merge is refused with a typed error and changes
	// nothing.
	a, b := NewWRS[int](2, 1), NewWRS[int](3, 2)
	a.Add(1, 0)
	b.Add(2, 0)
	var se *SizeError
	if err := a.Merge(b); !errors.As(err, &se) || se.Sampler != "WRS" || se.A != 2 || se.B != 3 {
		t.Errorf("WRS size-mismatch merge: %v, want a *SizeError", err)
	}
	if s := a.Sample(); len(s) != 1 || s[0] != 1 {
		t.Errorf("WRS refused merge changed the receiver: %v", s)
	}
}

// TestForwardWRSExponentialDecay verifies Corollary 1: under exponential
// forward decay the k=1 inclusion probability of an item is proportional to
// exp(−α(t−tᵢ)), for arbitrary (out-of-order) timestamps.
func TestForwardWRSExponentialDecay(t *testing.T) {
	m := decay.NewForward(decay.NewExp(0.1), 0)
	ts := []float64{30, 10, 20} // deliberately out of order
	var W float64
	for _, ti := range ts {
		W += math.Exp(0.1 * ti)
	}
	const trials = 40000
	counts := make([]int, len(ts))
	for tr := 0; tr < trials; tr++ {
		s := NewForwardWRS[int](m, 1, uint64(tr)+1)
		for i, ti := range ts {
			s.Observe(i, ti)
		}
		counts[s.Sample()[0]]++
	}
	for i, ti := range ts {
		got := float64(counts[i]) / trials
		want := math.Exp(0.1*ti) / W
		if math.Abs(got-want) > freqTolerance*want {
			t.Errorf("item %d (t=%v): inclusion %v, want %v", i, ti, got, want)
		}
	}
}

// TestForwardPriorityDecayedCount checks the PRISAMP-style decayed count
// estimator against the exact decayed count.
func TestForwardPriorityDecayedCount(t *testing.T) {
	m := decay.NewForward(decay.NewPoly(2), 0)
	rng := core.NewRNG(79)
	ts := make([]float64, 500)
	for i := range ts {
		ts[i] = 1 + 99*rng.Float64()
	}
	const tq = 100
	var C float64
	for _, ti := range ts {
		C += m.Weight(ti, tq)
	}
	const trials = 2000
	var sum float64
	for tr := 0; tr < trials; tr++ {
		s := NewForwardPriority[int](m, 30, uint64(tr)+1)
		for i, ti := range ts {
			s.Observe(i, ti)
		}
		sum += s.EstimateDecayedCount(tq)
	}
	mean := sum / trials
	if math.Abs(mean-C) > 0.05*C {
		t.Errorf("mean decayed-count estimate %v, want %v", mean, C)
	}
}

// TestForwardWRLongExpStream exercises the with-replacement sampler over an
// exponential stream long enough to require internal rebasing.
func TestForwardWRLongExpStream(t *testing.T) {
	m := decay.NewForward(decay.NewExp(1), 0)
	s := NewForwardWR[int](m, 100, 81)
	for i := 0; i < 5000; i++ {
		s.Observe(i, float64(i))
	}
	// Under α=1 per-second decay with unit spacing, almost all probability
	// mass is on the last few items.
	recent := 0
	for _, it := range s.Sample() {
		if it >= 4995 {
			recent++
		}
	}
	if recent < 95 {
		t.Errorf("only %d/100 slots hold recent items; exp weighting broken", recent)
	}
}
