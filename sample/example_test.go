package sample_test

import (
	"fmt"
	"sort"

	"forwarddecay/decay"
	"forwarddecay/sample"
)

// Weighted reservoir sampling under exponential forward decay: the sample
// concentrates on recent items (Corollary 1 of the paper — this is also an
// exact backward-exponential-decay sample, in O(k) space).
func ExampleForwardWRS() {
	model := decay.NewForward(decay.NewExp(0.5), 0)
	s := sample.NewForwardWRS[int](model, 3, 7)
	for i := 0; i <= 100; i++ {
		s.Observe(i, float64(i))
	}
	got := s.Sample()
	sort.Ints(got)
	fmt.Println(got[0] > 80) // with α=0.5, old items are ~e^-10 unlikely
	// Output: true
}

// Priority sampling yields unbiased subset-sum estimates: Σ of the sampled
// weights estimates the total decayed count.
func ExampleForwardPriority() {
	model := decay.NewForward(decay.None{}, 0) // undecayed: weights all 1
	s := sample.NewForwardPriority[int](model, 64, 3)
	for i := 0; i < 1000; i++ {
		s.Observe(i, float64(i))
	}
	est := s.EstimateDecayedCount(1000)
	fmt.Println(est > 500 && est < 1500) // unbiased estimate of 1000
	// Output: true
}

// Vitter's reservoir draws a uniform sample of fixed size from a stream of
// unknown length.
func ExampleReservoir() {
	s := sample.NewReservoir[string](2, 1)
	for _, w := range []string{"a", "b", "c", "d", "e"} {
		s.Add(w)
	}
	fmt.Println(len(s.Sample()))
	// Output: 2
}
