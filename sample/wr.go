package sample

import (
	"forwarddecay/internal/core"
)

// WR draws s independent samples with replacement, each distributed
// proportionally to the item weights (Theorem 5 of the paper): slot j holds
// item i with probability wᵢ/W. Each slot retains the arriving item with
// probability wᵢ/Wᵢ, where Wᵢ is the running total weight — the weighted
// generalization of the classical single-item reservoir. Space is O(s) and
// each arrival costs O(s) coin flips (constant per slot).
//
// WR is not safe for concurrent use.
type WR[T any] struct {
	rng   *core.RNG
	slots []T
	w     core.ScaledSum // running total weight W
	n     uint64
}

// NewWR returns a with-replacement sampler with s slots. It panics if
// s < 1.
func NewWR[T any](s int, seed uint64) *WR[T] {
	if s < 1 {
		panic("sample: WR needs at least one slot")
	}
	return &WR[T]{rng: core.NewRNG(seed), slots: make([]T, s)}
}

// Add offers an item with the given log-domain weight (ln w).
func (s *WR[T]) Add(item T, logW float64) {
	s.w.Add(logW, 1)
	s.n++
	// p = w / W computed through the scaled sum's representation.
	sum, logScale := s.w.Raw()
	p := core.ExpClamped(logW-logScale) / sum
	for j := range s.slots {
		if s.rng.Float64() < p {
			s.slots[j] = item
		}
	}
}

// Sample returns the current s samples (with replacement). The slice aliases
// internal state; callers must not modify it. It is only meaningful once at
// least one item has been added.
func (s *WR[T]) Sample() []T { return s.slots }

// Merge folds another with-replacement sampler into this one: slot j of the
// result holds this sampler's item with probability W₁/(W₁+W₂), which
// preserves the with-replacement distribution over the union of the inputs
// (distributed sampling, §VI-B). Both samplers must have the same slot
// count; it panics otherwise.
func (s *WR[T]) Merge(o *WR[T]) {
	if len(o.slots) != len(s.slots) {
		panic("sample: merging WR samplers of different sizes")
	}
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		copy(s.slots, o.slots)
		s.w.Merge(&o.w)
		s.n = o.n
		return
	}
	s1, l1 := s.w.Raw()
	s2, l2 := o.w.Raw()
	// p(keep ours) = W₁/(W₁+W₂) with Wᵢ = sᵢ·e^lᵢ, computed stably.
	var pOurs float64
	if l1 >= l2 {
		r := s2 * core.ExpClamped(l2-l1)
		pOurs = s1 / (s1 + r)
	} else {
		r := s1 * core.ExpClamped(l1-l2)
		pOurs = r / (r + s2)
	}
	for j := range s.slots {
		if s.rng.Float64() >= pOurs {
			s.slots[j] = o.slots[j]
		}
	}
	s.w.Merge(&o.w)
	s.n += o.n
}
