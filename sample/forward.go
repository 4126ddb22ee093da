package sample

import "forwarddecay/decay"

// ForwardWR samples with replacement under a forward decay model: at query
// time t, slot j holds item i with probability
// g(tᵢ−L) / Σⱼ g(tⱼ−L) — exactly the decayed distribution of Theorem 5.
type ForwardWR[T any] struct {
	model decay.Forward
	s     *WR[T]
}

// NewForwardWR returns a with-replacement forward-decay sampler with s
// slots under the given model.
func NewForwardWR[T any](m decay.Forward, s int, seed uint64) *ForwardWR[T] {
	return &ForwardWR[T]{model: m, s: NewWR[T](s, seed)}
}

// Observe offers an item with timestamp ti.
func (f *ForwardWR[T]) Observe(item T, ti float64) {
	f.s.Add(item, f.model.LogStaticWeight(ti))
}

// Sample returns the current samples (with replacement).
func (f *ForwardWR[T]) Sample() []T { return f.s.Sample() }

// ForwardWRS samples k items without replacement under a forward decay
// model using weighted reservoir sampling (Theorem 6). Because forward and
// backward exponential decay coincide, ForwardWRS with an exponential
// function solves exponentially-decayed sampling in O(k) space for
// arbitrary timestamps and arrival orders (Corollary 1).
type ForwardWRS[T any] struct {
	model decay.Forward
	s     *WRS[T]
}

// NewForwardWRS returns a without-replacement forward-decay sampler of size
// k under the given model.
func NewForwardWRS[T any](m decay.Forward, k int, seed uint64) *ForwardWRS[T] {
	return &ForwardWRS[T]{model: m, s: NewWRS[T](k, seed)}
}

// Observe offers an item with timestamp ti.
func (f *ForwardWRS[T]) Observe(item T, ti float64) {
	f.s.Add(item, f.model.LogStaticWeight(ti))
}

// Sample returns the current sample (at most k items, unspecified order).
func (f *ForwardWRS[T]) Sample() []T { return f.s.Sample() }

// Merge folds another sampler over the same model into this one (exact,
// §VI-B), or refuses one of another size with a *SizeError.
func (f *ForwardWRS[T]) Merge(o *ForwardWRS[T]) error { return f.s.Merge(o.s) }

// Model returns the decay model.
func (f *ForwardWRS[T]) Model() decay.Forward { return f.model }

// ForwardPriority is priority sampling under a forward decay model: a
// size-k sample supporting unbiased decayed subset-sum estimation. This is
// the PRISAMP UDAF of the paper's Figure 3 experiments.
type ForwardPriority[T any] struct {
	model decay.Forward
	s     *Priority[T]
}

// NewForwardPriority returns a priority sampler of size k under the given
// model.
func NewForwardPriority[T any](m decay.Forward, k int, seed uint64) *ForwardPriority[T] {
	return &ForwardPriority[T]{model: m, s: NewPriority[T](k, seed)}
}

// Observe offers an item with timestamp ti.
func (f *ForwardPriority[T]) Observe(item T, ti float64) {
	f.s.Add(item, f.model.LogStaticWeight(ti))
}

// Sample returns the sampled items with their decayed weight estimates at
// query time t: Σ of the weights over any subset is an unbiased estimate of
// that subset's decayed count.
func (f *ForwardPriority[T]) Sample(t float64) []Weighted[T] {
	return f.s.Sample(f.model.LogNormalizer(t))
}

// EstimateDecayedCount returns the unbiased estimate of the total decayed
// count at query time t.
func (f *ForwardPriority[T]) EstimateDecayedCount(t float64) float64 {
	return f.s.EstimateTotal(f.model.LogNormalizer(t))
}

// Merge folds another sampler over the same model into this one (exact,
// §VI-B), or refuses one of another size with a *SizeError.
func (f *ForwardPriority[T]) Merge(o *ForwardPriority[T]) error { return f.s.Merge(o.s) }

// Model returns the decay model.
func (f *ForwardPriority[T]) Model() decay.Forward { return f.model }
