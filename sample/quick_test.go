package sample

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"forwarddecay/internal/core"
)

func qconf(seed int64, n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(seed))}
}

// TestQuickWRSSampleInvariants: sample size is min(k, #positive-weight
// items), no duplicates, and every sampled item was offered.
func TestQuickWRSSampleInvariants(t *testing.T) {
	f := func(seed uint64, kRaw, nRaw uint8) bool {
		k := 1 + int(kRaw)%20
		n := int(nRaw) % 60
		rng := core.NewRNG(seed)
		s := NewWRS[int](k, seed)
		for i := 0; i < n; i++ {
			s.Add(i, rng.Float64()*10-5)
		}
		sm := s.Sample()
		want := k
		if n < k {
			want = n
		}
		if len(sm) != want {
			return false
		}
		seen := map[int]bool{}
		for _, it := range sm {
			if it < 0 || it >= n || seen[it] {
				return false
			}
			seen[it] = true
		}
		return true
	}
	if err := quick.Check(f, qconf(31, 300)); err != nil {
		t.Error(err)
	}
}

// TestQuickPriorityThresholdBelowAll: τ never exceeds any retained
// priority, and the estimate is exact when k covers the stream.
func TestQuickPriorityThresholdBelowAll(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 1 + int(nRaw)%40
		rng := core.NewRNG(seed)
		s := NewPriority[int](50, seed) // k > n: everything retained
		var total float64
		for i := 0; i < n; i++ {
			w := 0.5 + 4*rng.Float64()
			s.Add(i, math.Log(w))
			total += w
		}
		if !math.IsInf(s.LogThreshold(), -1) {
			return false
		}
		got := s.EstimateTotal(0)
		return math.Abs(got-total) <= 1e-9*total
	}
	if err := quick.Check(f, qconf(32, 300)); err != nil {
		t.Error(err)
	}
}

// TestQuickPrioritySampleWeightsAboveThreshold: every reported weight is at
// least τ (ŵ = max(w, τ)).
func TestQuickPrioritySampleWeights(t *testing.T) {
	f := func(seed uint64) bool {
		rng := core.NewRNG(seed)
		s := NewPriority[int](10, seed)
		for i := 0; i < 100; i++ {
			s.Add(i, rng.Float64()*6-3)
		}
		logTau := s.LogThreshold()
		tau := math.Exp(logTau)
		for _, it := range s.Sample(0) {
			if it.Weight < tau-1e-9 {
				return false
			}
		}
		return s.Len() == 10
	}
	if err := quick.Check(f, qconf(33, 300)); err != nil {
		t.Error(err)
	}
}

// TestQuickReservoirInvariants: sample is min(k, n) distinct offered items.
func TestQuickReservoirInvariants(t *testing.T) {
	f := func(seed uint64, kRaw, nRaw uint8) bool {
		k := 1 + int(kRaw)%15
		n := int(nRaw) % 80
		s := NewReservoir[int](k, seed)
		for i := 0; i < n; i++ {
			s.Add(i)
		}
		check := func(sm []int) bool {
			want := k
			if n < k {
				want = n
			}
			if len(sm) != want {
				return false
			}
			seen := map[int]bool{}
			for _, it := range sm {
				if it < 0 || it >= n || seen[it] {
					return false
				}
				seen[it] = true
			}
			return true
		}
		return check(s.Sample())
	}
	if err := quick.Check(f, qconf(34, 300)); err != nil {
		t.Error(err)
	}
}

func TestQuickWRSlotsValid(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 1 + int(nRaw)%50
		s := NewWR[int](7, seed)
		for i := 1; i <= n; i++ {
			s.Add(i, float64(i)*0.1)
		}
		for _, it := range s.Sample() {
			if it < 1 || it > n {
				return false
			}
		}
		return len(s.Sample()) == 7
	}
	if err := quick.Check(f, qconf(36, 300)); err != nil {
		t.Error(err)
	}
}

// TestQuickWRSMergePreservesInvariants: merged samplers hold the k best
// keys of the union — in particular, merging must never shrink the sample
// below min(k, total items).
func TestQuickWRSMergeInvariants(t *testing.T) {
	f := func(seed uint64, naRaw, nbRaw uint8) bool {
		na, nb := int(naRaw)%30, int(nbRaw)%30
		const k = 8
		a := NewWRS[int](k, seed)
		b := NewWRS[int](k, seed+1)
		for i := 0; i < na; i++ {
			a.Add(i, 0.5)
		}
		for i := 100; i < 100+nb; i++ {
			b.Add(i, 0.5)
		}
		a.Merge(b)
		want := k
		if na+nb < k {
			want = na + nb
		}
		return a.Len() == want
	}
	if err := quick.Check(f, qconf(37, 300)); err != nil {
		t.Error(err)
	}
}
