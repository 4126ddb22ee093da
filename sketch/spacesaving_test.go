package sketch

import (
	"math"
	"sort"
	"testing"

	"forwarddecay/internal/core"
)

// zipfStream generates n weighted updates with Zipf(s)-distributed keys over
// a universe of u items, returning the stream and the exact weighted counts.
func zipfStream(seed uint64, n, u int, s float64, weighted bool) (keys []uint64, ws []float64, exact map[uint64]float64) {
	rng := core.NewRNG(seed)
	// Build the Zipf CDF.
	cdf := make([]float64, u)
	var z float64
	for i := 1; i <= u; i++ {
		z += 1 / math.Pow(float64(i), s)
		cdf[i-1] = z
	}
	for i := range cdf {
		cdf[i] /= z
	}
	exact = make(map[uint64]float64)
	keys = make([]uint64, n)
	ws = make([]float64, n)
	for i := 0; i < n; i++ {
		r := rng.Float64()
		idx := sort.SearchFloat64s(cdf, r)
		k := uint64(idx + 1)
		w := 1.0
		if weighted {
			w = 0.5 + 2*rng.Float64()
		}
		keys[i] = k
		ws[i] = w
		exact[k] += w
	}
	return keys, ws, exact
}

func TestSpaceSavingErrorBound(t *testing.T) {
	keys, ws, exact := zipfStream(1, 50000, 2000, 1.2, true)
	ss := NewSpaceSavingK(100)
	var total float64
	for i, k := range keys {
		ss.Update(k, ws[i])
		total += ws[i]
	}
	if math.Abs(ss.Total()-total) > 1e-6*total {
		t.Fatalf("Total = %v, want %v", ss.Total(), total)
	}
	bound := total / 100
	if eb := ss.ErrorBound(); eb > bound+1e-9 {
		t.Fatalf("ErrorBound %v exceeds W/k = %v", eb, bound)
	}
	for k, true_ := range exact {
		est, err := ss.Estimate(k)
		if est < true_-1e-9 {
			t.Fatalf("key %d: estimate %v below true %v", k, est, true_)
		}
		if est > true_+bound+1e-9 {
			t.Fatalf("key %d: estimate %v exceeds true+W/k = %v", k, est, true_+bound)
		}
		if err > bound+1e-9 {
			t.Fatalf("key %d: err %v exceeds W/k", k, err)
		}
	}
}

func TestSpaceSavingHeavyHittersGuarantee(t *testing.T) {
	keys, ws, exact := zipfStream(2, 40000, 1000, 1.5, true)
	const eps = 0.01
	ss := NewSpaceSaving(eps)
	for i, k := range keys {
		ss.Update(k, ws[i])
	}
	const phi = 0.05
	got := ss.HeavyHitters(phi)
	gotSet := make(map[uint64]bool)
	for _, ic := range got {
		gotSet[ic.Key] = true
	}
	W := ss.Total()
	for k, c := range exact {
		if c >= phi*W && !gotSet[k] {
			t.Errorf("true heavy hitter %d (weight %v ≥ %v) missing", k, c, phi*W)
		}
	}
	for _, ic := range got {
		if exact[ic.Key] < (phi-eps)*W {
			t.Errorf("false positive %d: true weight %v < (phi-eps)W = %v", ic.Key, exact[ic.Key], (phi-eps)*W)
		}
	}
	// Results must be sorted in decreasing order of estimate.
	for i := 1; i < len(got); i++ {
		if got[i].Count > got[i-1].Count {
			t.Errorf("HeavyHitters not sorted at %d", i)
		}
	}
}

// TestExample3HeavyHitters reproduces Example 3 of the paper: the decayed
// counts of the Example 1 stream are d₃=0.09, d₄=0.41, d₆=0.64, d₈=0.49 and
// with φ=0.2 the heavy hitters are items 4, 6 and 8. We run the weighted
// SpaceSaving with enough counters to be exact.
func TestExample3HeavyHitters(t *testing.T) {
	// (ti, vi) with weights g(ti−100)/g(110−100), g(n)=n².
	items := []struct {
		v  uint64
		ti float64
	}{{4, 105}, {8, 107}, {3, 103}, {6, 108}, {4, 104}}
	ss := NewSpaceSavingK(10)
	for _, it := range items {
		n := it.ti - 100
		ss.Update(it.v, n*n/100)
	}
	if got, want := ss.Total(), 1.63; math.Abs(got-want) > 1e-9 {
		t.Fatalf("decayed count C = %v, want %v", got, want)
	}
	hh := ss.HeavyHitters(0.2)
	want := map[uint64]float64{6: 0.64, 8: 0.49, 4: 0.41}
	if len(hh) != len(want) {
		t.Fatalf("got %d heavy hitters %v, want %d", len(hh), hh, len(want))
	}
	for _, ic := range hh {
		w, ok := want[ic.Key]
		if !ok {
			t.Errorf("unexpected heavy hitter %d", ic.Key)
			continue
		}
		if math.Abs(ic.Count-w) > 1e-9 {
			t.Errorf("item %d: decayed count %v, want %v", ic.Key, ic.Count, w)
		}
	}
	// d₃ = 0.09 < 0.326 must not be reported.
	if _, err := ss.Estimate(3); err != 0 {
		t.Errorf("item 3 should be tracked exactly (err=0), got err %v", err)
	}
}

func TestSpaceSavingMerge(t *testing.T) {
	keysA, wsA, exactA := zipfStream(3, 20000, 500, 1.3, true)
	keysB, wsB, exactB := zipfStream(4, 20000, 500, 1.3, true)
	a := NewSpaceSavingK(200)
	b := NewSpaceSavingK(200)
	for i := range keysA {
		a.Update(keysA[i], wsA[i])
	}
	for i := range keysB {
		b.Update(keysB[i], wsB[i])
	}
	a.Merge(b)
	W := a.Total()
	exact := make(map[uint64]float64)
	for k, v := range exactA {
		exact[k] += v
	}
	for k, v := range exactB {
		exact[k] += v
	}
	var sumExact float64
	for _, v := range exact {
		sumExact += v
	}
	if math.Abs(W-sumExact) > 1e-6*sumExact {
		t.Fatalf("merged total %v, want %v", W, sumExact)
	}
	// Merged error must be within (W₁+W₂)·(1/k) plus the conservative
	// cross-min padding; allow 3×W/k slack.
	bound := 3 * W / 200
	for k, true_ := range exact {
		est, _ := a.Estimate(k)
		if est+1e-9 < true_ {
			t.Errorf("key %d: merged estimate %v below true %v", k, est, true_)
		}
		if est > true_+bound {
			t.Errorf("key %d: merged estimate %v exceeds true+3W/k = %v", k, est, true_+bound)
		}
	}
}

func TestSpaceSavingScale(t *testing.T) {
	ss := NewSpaceSavingK(10)
	ss.Update(1, 10)
	ss.Update(2, 20)
	ss.Scale(0.5)
	if got, _ := ss.Estimate(1); got != 5 {
		t.Errorf("scaled estimate = %v, want 5", got)
	}
	if ss.Total() != 15 {
		t.Errorf("scaled total = %v, want 15", ss.Total())
	}
}

func TestSpaceSavingResetAndSmall(t *testing.T) {
	ss := NewSpaceSavingK(4)
	for i := uint64(1); i <= 3; i++ {
		ss.Update(i, float64(i))
	}
	if ss.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ss.Len())
	}
	// Not full: absent keys estimate to zero.
	if est, err := ss.Estimate(99); est != 0 || err != 0 {
		t.Errorf("absent key estimate = (%v,%v), want (0,0)", est, err)
	}
	ss.Reset()
	if ss.Len() != 0 || ss.Total() != 0 {
		t.Errorf("Reset left Len=%d Total=%v", ss.Len(), ss.Total())
	}
	ss.Update(7, 1) // reusable after reset
	if est, _ := ss.Estimate(7); est != 1 {
		t.Errorf("post-reset estimate = %v", est)
	}
}

func TestSpaceSavingEviction(t *testing.T) {
	ss := NewSpaceSavingK(2)
	ss.Update(1, 5)
	ss.Update(2, 3)
	ss.Update(3, 1) // evicts key 2 (min): count = 3+1 = 4, err = 3
	est, err := ss.Estimate(3)
	if est != 4 || err != 3 {
		t.Errorf("evicting insert: (%v,%v), want (4,3)", est, err)
	}
	// Key 2 is unmonitored; its estimate is the min counter.
	est, err = ss.Estimate(2)
	if est != 4 || err != 4 {
		t.Errorf("absent key: (%v,%v), want (4,4)", est, err)
	}
	if ss.Update(9, 0); ss.Total() != 9 {
		t.Errorf("zero-weight update must be ignored; total %v", ss.Total())
	}
}

func TestSpaceSavingSizeBytesMonotone(t *testing.T) {
	small := NewSpaceSavingK(10)
	big := NewSpaceSavingK(1000)
	for i := uint64(0); i < 2000; i++ {
		small.Update(i, 1)
		big.Update(i, 1)
	}
	if small.SizeBytes() >= big.SizeBytes() {
		t.Errorf("size of k=10 (%d) should be below k=1000 (%d)", small.SizeBytes(), big.SizeBytes())
	}
}

func TestStreamSummaryMatchesExactOnSkewedStream(t *testing.T) {
	keys, _, exact := zipfStream(5, 60000, 3000, 1.4, false)
	s := NewStreamSummary(150)
	for _, k := range keys {
		s.Update(k)
	}
	if s.total != 60000 {
		t.Fatalf("Total = %d", s.total)
	}
	bound := uint64(60000 / 150)
	for k, c := range exact {
		est, err := s.Estimate(k)
		if float64(est) < c {
			t.Fatalf("key %d: estimate %d below true %v", k, est, c)
		}
		if float64(est) > c+float64(bound)+1 {
			t.Fatalf("key %d: estimate %d exceeds true+W/k = %v", k, est, c+float64(bound))
		}
		if err > bound {
			t.Fatalf("key %d: err %d above bound %d", k, err, bound)
		}
	}
	// HH guarantee.
	const phi = 0.05
	hh := s.HeavyHitters(phi)
	got := make(map[uint64]bool)
	for _, ic := range hh {
		got[ic.Key] = true
	}
	for k, c := range exact {
		if c >= phi*60000 && !got[k] {
			t.Errorf("missing heavy hitter %d", k)
		}
	}
	for _, ic := range hh {
		if exact[ic.Key] < (phi-1.0/150)*60000 {
			t.Errorf("false positive %d (true %v)", ic.Key, exact[ic.Key])
		}
	}
}

func TestStreamSummaryAgreesWithSpaceSaving(t *testing.T) {
	// On a unary stream, the unary-optimised structure and the weighted
	// heap implement the same algorithm; their counters must agree exactly.
	keys, _, _ := zipfStream(6, 20000, 800, 1.2, false)
	a := NewStreamSummary(64)
	b := NewSpaceSavingK(64)
	for _, k := range keys {
		a.Update(k)
		b.Update(k, 1)
	}
	// Same multiset of counter values.
	var ca, cb []float64
	for _, ic := range a.HeavyHitters(0) {
		ca = append(ca, ic.Count)
	}
	for _, ic := range b.HeavyHitters(0) {
		cb = append(cb, ic.Count)
	}
	sort.Float64s(ca)
	sort.Float64s(cb)
	if len(ca) != len(cb) {
		t.Fatalf("different counter counts: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if math.Abs(ca[i]-cb[i]) > 1e-9 {
			t.Fatalf("counter multiset differs at %d: %v vs %v", i, ca[i], cb[i])
		}
	}
}

func TestStreamSummarySmallAndEviction(t *testing.T) {
	s := NewStreamSummary(2)
	s.Update(1)
	s.Update(1)
	s.Update(2)
	if est, err := s.Estimate(1); est != 2 || err != 0 {
		t.Errorf("key1: (%d,%d), want (2,0)", est, err)
	}
	s.Update(3) // evicts key 2 (count 1): key3 count 2, err 1
	est, err := s.Estimate(3)
	if est != 2 || err != 1 {
		t.Errorf("key3 after eviction: (%d,%d), want (2,1)", est, err)
	}
	if est, _ := s.Estimate(2); est != 2 {
		// min bucket is now count 2
		t.Errorf("absent key estimate = %d, want min bucket count 2", est)
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"SpaceSaving eps=0": func() { NewSpaceSaving(0) },
		"SpaceSaving eps=1": func() { NewSpaceSaving(1) },
		"SpaceSavingK k=0":  func() { NewSpaceSavingK(0) },
		"StreamSummary k=0": func() { NewStreamSummary(0) },
		"MisraGries k=0":    func() { NewMisraGries(0) },
		"QDigest u=1":       func() { NewQDigest(1, 0.1) },
		"QDigest eps=0":     func() { NewQDigest(16, 0) },
		"EH eps=0":          func() { NewExpHistogram(0, 60) },
		"Wave k=0":          func() { NewWave(0, 60) },
		"Wave window=0":     func() { NewWave(4, 0) },
		"KMV k=0":           func() { NewKMV(0) },
		"Dominance k":       func() { NewDominance(1, 2, 8) },
		"Dominance base":    func() { NewDominance(16, 1, 8) },
		"Dominance levels":  func() { NewDominance(16, 2, 1) },
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
}
