package window

import (
	"math"

	"forwarddecay/decay"
	"forwarddecay/sketch"
)

// BackwardSum maintains a sum that can be decayed at query time by any
// backward decay function whose support lies within the configured horizon.
// It is the Cohen–Strauss construction over an Exponential Histogram: the
// histogram's buckets partition the recent past, and a decayed sum is the
// bucket sums weighted by the decay function at the buckets' ages.
//
// Contrast with agg.Sum: the forward-decay aggregate stores one number and
// fixes the decay function up front; BackwardSum stores an entire histogram
// (see SizeBytes) but the function — sliding window, backward polynomial,
// exponential, … — may vary per query.
type BackwardSum struct {
	eh *sketch.ExpHistogram
}

// NewBackwardSum returns a decayable sum with relative accuracy epsilon.
// horizon bounds how far back queries may reach (items older than the
// horizon are discarded); pass 0 to keep everything.
func NewBackwardSum(epsilon, horizon float64) *BackwardSum {
	return &BackwardSum{eh: sketch.NewExpHistogram(epsilon, horizon)}
}

// Observe records an item with timestamp ts (non-decreasing) and positive
// value v. Non-finite timestamps and values are rejected (dropped): either
// would permanently corrupt the histogram's bucket bounds or sums.
func (b *BackwardSum) Observe(ts, v float64) {
	if math.IsNaN(ts) || math.IsInf(ts, 0) || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	b.eh.Insert(ts, v)
}

// Value returns the sum decayed by f at query time t:
// ≈ Σᵢ vᵢ·f(t−tᵢ)/f(0).
func (b *BackwardSum) Value(f decay.AgeFunc, t float64) float64 {
	return b.eh.DecayedSum(f, t)
}

// SizeBytes reports the memory footprint — the kilobytes-per-group cost of
// query-time decay flexibility (Figure 2(d) of the paper).
func (b *BackwardSum) SizeBytes() int { return b.eh.SizeBytes() }
