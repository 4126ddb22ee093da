package sample

import (
	"forwarddecay/internal/core"
)

// Reservoir is Vitter's Algorithm R: a uniform sample of k items from a
// stream of unknown length, O(k) space, O(1) time per item. It is the
// undecayed sampling baseline of Figure 3 of the paper.
//
// Reservoir is not safe for concurrent use.
type Reservoir[T any] struct {
	k     int
	rng   *core.RNG
	items []T
	n     uint64
}

// NewReservoir returns a uniform reservoir of size k. It panics if k < 1.
func NewReservoir[T any](k int, seed uint64) *Reservoir[T] {
	if k < 1 {
		panic("sample: Reservoir needs k >= 1")
	}
	return &Reservoir[T]{k: k, rng: core.NewRNG(seed), items: make([]T, 0, k)}
}

// Add offers one item.
func (s *Reservoir[T]) Add(item T) {
	s.n++
	if len(s.items) < s.k {
		s.items = append(s.items, item)
		return
	}
	if j := s.rng.Intn(int(s.n)); j < s.k {
		s.items[j] = item
	}
}

// Sample returns the current uniform sample (aliases internal state).
func (s *Reservoir[T]) Sample() []T { return s.items }

// Len returns the current sample size.
func (s *Reservoir[T]) Len() int { return len(s.items) }

// Aggarwal is the biased reservoir sampler of Aggarwal (VLDB 2006) for
// exponential decay, the prior-art baseline of Figure 3: with reservoir
// capacity c the sample approximates exponential bias with rate λ ≈ 1/c in
// *arrival index*. Each arriving item is inserted; with probability
// fill = len/c it replaces a random victim, otherwise the reservoir grows.
//
// Aggarwal is INDEX-biased, not time-biased: an item's survival
// probability depends only on how many items arrived after it, never on
// its timestamp. On an in-order stream the two coincide, but on any
// out-of-order stream they diverge — an old record delivered late is
// treated as the newest thing in the world, and a fresh record delivered
// early decays as if it were ancient. In the extreme, feeding a stream in
// reverse timestamp order makes the sample concentrate on the OLDEST
// timestamps. TestAggarwalIndexBiasUnderReordering pins this failure mode
// against ForwardWRS, which weighs each item by its own timestamp
// (§III: w(ti) is fixed at arrival) and is therefore arrival-order
// insensitive.
//
// These limitations motivate the forward-decay approach: the decay rate is
// tied to arrival counts rather than timestamps, only exponential decay is
// supported, and out-of-order arrivals are biased incorrectly.
type Aggarwal[T any] struct {
	c     int
	rng   *core.RNG
	items []T
}

// NewAggarwal returns a biased reservoir with capacity c (bias rate ≈ 1/c
// per arrival). It panics if c < 1.
func NewAggarwal[T any](c int, seed uint64) *Aggarwal[T] {
	if c < 1 {
		panic("sample: Aggarwal needs capacity >= 1")
	}
	return &Aggarwal[T]{c: c, rng: core.NewRNG(seed), items: make([]T, 0, c)}
}

// Add offers one item (arrival order defines the bias).
func (s *Aggarwal[T]) Add(item T) {
	fill := float64(len(s.items)) / float64(s.c)
	if s.rng.Float64() < fill {
		s.items[s.rng.Intn(len(s.items))] = item
		return
	}
	s.items = append(s.items, item)
}

// Sample returns the current biased sample (aliases internal state).
func (s *Aggarwal[T]) Sample() []T { return s.items }

// Len returns the current sample size.
func (s *Aggarwal[T]) Len() int { return len(s.items) }
