package sample

import (
	"math"

	"forwarddecay/internal/core"
)

// WRS is the weighted reservoir sampler of Efraimidis and Spirakis: it
// maintains a sample of k items without replacement whose distribution
// matches drawing items one at a time with probability proportional to
// weight among the not-yet-selected. Each item receives the key
// u^(1/w) (u uniform); the sample is the k largest keys, kept in a
// min-heap: O(k) space and O(log k) time per item (Theorem 6 of the paper).
//
// Keys are handled as ln(−ln u) − ln w, whose *smallest* k values
// correspond to the largest u^(1/w), so exponential-decay weights never
// overflow. WRS is not safe for concurrent use.
type WRS[T any] struct {
	k   int
	rng *core.RNG
	// Max-heap on logKey: the root is the worst (largest logKey) retained
	// item, evicted first.
	h []wrsEntry[T]
}

type wrsEntry[T any] struct {
	logKey float64 // ln(−ln u) − ln w; smaller is better
	item   T
	logW   float64
}

// NewWRS returns a without-replacement weighted reservoir of size k.
// It panics if k < 1.
func NewWRS[T any](k int, seed uint64) *WRS[T] {
	if k < 1 {
		panic("sample: WRS needs k >= 1")
	}
	return &WRS[T]{k: k, rng: core.NewRNG(seed), h: make([]wrsEntry[T], 0, k)}
}

// Add offers an item with the given log-domain weight (ln w). Items whose
// weight is zero or not finite (logW = ±Inf or NaN) are ignored.
func (s *WRS[T]) Add(item T, logW float64) {
	if math.IsInf(logW, 0) || math.IsNaN(logW) {
		return
	}
	// −ln u is Exp(1); its log is finite with probability 1.
	logKey := math.Log(-logUniform(s.rng)) - logW
	if len(s.h) < s.k {
		s.h = append(s.h, wrsEntry[T]{logKey, item, logW})
		s.up(len(s.h) - 1)
		return
	}
	if logKey >= s.h[0].logKey {
		return
	}
	s.h[0] = wrsEntry[T]{logKey, item, logW}
	s.down(0)
}

// Sample returns the current sample of up to k items (fewer if fewer items
// were offered). Order is unspecified.
func (s *WRS[T]) Sample() []T {
	out := make([]T, len(s.h))
	for i, e := range s.h {
		out[i] = e.item
	}
	return out
}

// Len returns the current sample size.
func (s *WRS[T]) Len() int { return len(s.h) }

// Merge folds another WRS (same k) into this one: because every item keeps
// an independent key, the union's k smallest keys are exactly the sample of
// the combined stream, so merging distributed samplers is exact (§VI-B).
// Samplers of different sizes are refused with a *SizeError.
func (s *WRS[T]) Merge(o *WRS[T]) error {
	if o.k != s.k {
		return &SizeError{Sampler: "WRS", A: s.k, B: o.k}
	}
	for _, e := range o.h {
		if len(s.h) < s.k {
			s.h = append(s.h, e)
			s.up(len(s.h) - 1)
			continue
		}
		if e.logKey < s.h[0].logKey {
			s.h[0] = e
			s.down(0)
		}
	}
	return nil
}

func (s *WRS[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.h[p].logKey >= s.h[i].logKey {
			break
		}
		s.h[p], s.h[i] = s.h[i], s.h[p]
		i = p
	}
}

func (s *WRS[T]) down(i int) {
	n := len(s.h)
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && s.h[l].logKey > s.h[m].logKey {
			m = l
		}
		if r < n && s.h[r].logKey > s.h[m].logKey {
			m = r
		}
		if m == i {
			return
		}
		s.h[i], s.h[m] = s.h[m], s.h[i]
		i = m
	}
}
