// Package sketch provides the streaming summaries that the forward-decay
// algorithms of this repository are built on, together with the summaries
// used by the backward-decay baselines of the paper's evaluation:
//
//   - SpaceSaving: the weighted heavy-hitters summary of Metwally et al.
//     (heap-based, O(log 1/ε) per weighted update), used for heavy hitters
//     under forward decay (Theorem 2 of the paper).
//   - StreamSummary: the unary-optimised SpaceSaving variant with O(1)
//     amortised updates — the "Unary HH" baseline of Figure 5.
//   - MisraGries: the classic deterministic frequent-items summary, the
//     building block of the windowed heavy-hitters baseline.
//   - QDigest: the weighted quantile summary of Shrivastava et al., used for
//     quantiles under forward decay (Theorem 3).
//   - ExpHistogram / ExpHistogramSum: the sliding-window count/sum summaries
//     of Datar et al., which (following Cohen and Strauss) also answer
//     arbitrary backward-decayed sums — the expensive competitor of Figure 2.
//   - Wave: the Deterministic Wave window-count summary of Gibbons and
//     Tirthapura, provided for the window-count ablation.
//   - KMV: a k-minimum-values distinct counter.
//   - Dominance: a layered-KMV estimator of the dominance norm
//     Σ_v max_{vᵢ=v} wᵢ, standing in for the range-efficient F₀ algorithm of
//     Pavan and Tirthapura in the count-distinct result (Theorem 4).
//
// All summaries identify items by uint64 keys (hash string keys first, e.g.
// with an FNV hash), are deterministic given their inputs (KMV and Dominance
// use hashing only), are mergeable, and report their memory footprint via
// SizeBytes for the space experiments.
package sketch

import "fmt"

// MismatchError reports a merge refused because the two sketches' parameters
// differ: §VI-B merges only partials built alike.
type MismatchError struct {
	Sketch, Param string
	A, B          float64
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("sketch: cannot merge %s sketches: %s %g vs %g", e.Sketch, e.Param, e.A, e.B)
}

// ItemCount is one reported item: its key, an estimate of its (weighted)
// count, and a bound on the overestimation error (true count is within
// [Count−Err, Count]).
type ItemCount struct {
	Key   uint64
	Count float64
	Err   float64
}

// Sized is implemented by every summary in this package: SizeBytes returns
// an accounting estimate of the summary's in-memory footprint in bytes,
// including container overheads.
type Sized interface {
	SizeBytes() int
}
