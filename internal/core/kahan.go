// Package core provides shared numeric kernels used across the forwarddecay
// packages: compensated summation, log-domain arithmetic helpers, 64-bit
// mixing hashes and a small deterministic RNG.
//
// Everything here is an implementation detail of the public packages; the
// API may change without notice.
package core

import "math"

// KahanSum accumulates float64 values with Kahan–Babuška (Neumaier)
// compensation, bounding the error of long streaming sums independently of
// their length. The zero value is an empty sum ready for use.
type KahanSum struct {
	sum float64
	c   float64 // running compensation
}

// Add accumulates v into the sum.
func (k *KahanSum) Add(v float64) {
	t := k.sum + v
	if math.Abs(k.sum) >= math.Abs(v) {
		k.c += (k.sum - t) + v
	} else {
		k.c += (v - t) + k.sum
	}
	k.sum = t
}

// Value returns the compensated sum.
func (k *KahanSum) Value() float64 { return k.sum + k.c }

// Scale multiplies the accumulated sum (and its compensation) by f.
// It is used when rebasing log-scaled accumulators onto a new landmark.
func (k *KahanSum) Scale(f float64) {
	k.sum *= f
	k.c *= f
}

// Reset clears the accumulator to the empty sum.
func (k *KahanSum) Reset() { k.sum, k.c = 0, 0 }

// State exposes the raw accumulator and compensation terms so codecs can
// round-trip a sum bit-for-bit; Value() alone loses the compensation.
func (k *KahanSum) State() (sum, comp float64) { return k.sum, k.c }

// SetState restores an accumulator captured with State.
func (k *KahanSum) SetState(sum, comp float64) { k.sum, k.c = sum, comp }
