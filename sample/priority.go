package sample

import (
	"math"

	"forwarddecay/internal/core"
)

// Weighted is a sampled item together with its priority-sampling weight
// estimate ŵ = max(w, τ) (scaled by the caller-supplied normalizer).
type Weighted[T any] struct {
	Item   T
	Weight float64
}

// Priority is the priority sampler of Alon, Duffield, Lund and Thorup:
// each item gets priority q = w/u (u uniform); the sampler retains the k+1
// highest priorities, the (k+1)-st being the threshold τ. The k retained
// items with weight estimates max(w, τ) give unbiased, near-optimal-
// variance estimates of arbitrary subset sums — which is why the paper uses
// it as the forward-decay sampling UDAF (PRISAMP) in Figure 3.
//
// Priorities and weights are kept in the log domain; exponential decay
// never overflows. Priority is not safe for concurrent use.
type Priority[T any] struct {
	k   int
	rng *core.RNG
	// Min-heap on logQ holding up to k+1 entries; the root is the
	// threshold entry.
	h []priEntry[T]
}

type priEntry[T any] struct {
	logQ float64 // ln w − ln u
	logW float64
	item T
}

// NewPriority returns a priority sampler of size k. It panics if k < 1.
func NewPriority[T any](k int, seed uint64) *Priority[T] {
	if k < 1 {
		panic("sample: Priority needs k >= 1")
	}
	return &Priority[T]{k: k, rng: core.NewRNG(seed), h: make([]priEntry[T], 0, k+1)}
}

// Add offers an item with the given log-domain weight (ln w). Items whose
// weight is zero or not finite (logW = ±Inf or NaN) are ignored.
func (s *Priority[T]) Add(item T, logW float64) {
	if math.IsInf(logW, 0) || math.IsNaN(logW) {
		return
	}
	logQ := logW - logUniform(s.rng) // ln u < 0, so logQ ≥ logW
	if len(s.h) < s.k+1 {
		s.h = append(s.h, priEntry[T]{logQ, logW, item})
		s.up(len(s.h) - 1)
		return
	}
	if logQ <= s.h[0].logQ {
		return
	}
	s.h[0] = priEntry[T]{logQ, logW, item}
	s.down(0)
}

// LogThreshold returns ln τ, the log-priority of the (k+1)-st entry, or
// −Inf while the sampler holds at most k items (every offered item is then
// in the sample and estimates are exact).
func (s *Priority[T]) LogThreshold() float64 {
	if len(s.h) <= s.k {
		return math.Inf(-1)
	}
	return s.h[0].logQ
}

// Sample returns the current sample: the up-to-k highest-priority items,
// each with the unbiased weight estimate ŵ = max(w, τ) scaled down by
// exp(logNorm). Pass the decay model's LogNormalizer(t) to obtain decayed
// weights; pass 0 for raw weights (which may overflow for exponential
// decay — prefer a normalizer).
func (s *Priority[T]) Sample(logNorm float64) []Weighted[T] {
	logTau := s.LogThreshold()
	out := make([]Weighted[T], 0, s.k)
	for i, e := range s.h {
		if len(s.h) == s.k+1 && i == 0 {
			continue // the threshold entry is not part of the sample
		}
		lw := e.logW
		if logTau > lw {
			lw = logTau
		}
		out = append(out, Weighted[T]{Item: e.item, Weight: core.ExpClamped(lw - logNorm)})
	}
	return out
}

// EstimateTotal returns the unbiased estimate of the total weight of all
// offered items, scaled down by exp(logNorm): Σ max(wᵢ, τ) over the sample.
func (s *Priority[T]) EstimateTotal(logNorm float64) float64 {
	var sum core.KahanSum
	for _, w := range s.Sample(logNorm) {
		sum.Add(w.Weight)
	}
	return sum.Value()
}

// Len returns the current sample size (excluding the threshold entry).
func (s *Priority[T]) Len() int {
	if len(s.h) > s.k {
		return s.k
	}
	return len(s.h)
}

// Merge folds another priority sampler (same k) into this one: priorities
// are independent uniforms, so the union's k+1 highest priorities are
// distributed exactly as a single-stream sampler's (§VI-B). Samplers of
// different sizes are refused with a *SizeError.
func (s *Priority[T]) Merge(o *Priority[T]) error {
	if o.k != s.k {
		return &SizeError{Sampler: "Priority", A: s.k, B: o.k}
	}
	for _, e := range o.h {
		if len(s.h) < s.k+1 {
			s.h = append(s.h, e)
			s.up(len(s.h) - 1)
			continue
		}
		if e.logQ > s.h[0].logQ {
			s.h[0] = e
			s.down(0)
		}
	}
	return nil
}

func (s *Priority[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.h[p].logQ <= s.h[i].logQ {
			break
		}
		s.h[p], s.h[i] = s.h[i], s.h[p]
		i = p
	}
}

func (s *Priority[T]) down(i int) {
	n := len(s.h)
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && s.h[l].logQ < s.h[m].logQ {
			m = l
		}
		if r < n && s.h[r].logQ < s.h[m].logQ {
			m = r
		}
		if m == i {
			return
		}
		s.h[i], s.h[m] = s.h[m], s.h[i]
		i = m
	}
}
