package agg

import (
	"math"

	"forwarddecay/decay"
	"forwarddecay/internal/core"
	"forwarddecay/sketch"
)

// Item is one reported heavy hitter: its key, estimated decayed count, and
// the overestimation bound on that estimate (all normalized by g(t−L)).
type Item = sketch.ItemCount

// HeavyHitters finds the φ-heavy hitters under forward decay (Definition 7,
// Theorem 2 of the paper): items whose decayed count
// d_v = Σ_{vᵢ=v} g(tᵢ−L)/g(t−L) is at least φ·C. It reduces the problem to
// weighted heavy hitters over the static weights g(tᵢ−L) — fixed at arrival
// — and runs the weighted SpaceSaving summary in O(1/ε) counters with
// O(log 1/ε) time per update: the same asymptotic cost as undecayed
// approximate heavy hitters.
//
// Exponential decay is handled without overflow by keeping the summary
// under a floating log scale: when a new static weight outgrows the scale,
// every counter is linearly rescaled (§VI-A). HeavyHitters is not safe for
// concurrent use.
type HeavyHitters struct {
	inputGuard
	model    decay.Forward
	ss       *sketch.SpaceSaving
	logScale float64
	started  bool
}

// NewHeavyHitters returns a summary that answers φ-heavy-hitter queries
// with error ε: every item with d_v ≥ φC is reported and no item with
// d_v < (φ−ε)C is. It panics unless 0 < epsilon < 1.
func NewHeavyHitters(m decay.Forward, epsilon float64) *HeavyHitters {
	return &HeavyHitters{model: m, ss: sketch.NewSpaceSaving(epsilon)}
}

// NewHeavyHittersK is like NewHeavyHitters with an explicit counter budget
// k (ε = 1/k).
func NewHeavyHittersK(m decay.Forward, k int) *HeavyHitters {
	return &HeavyHitters{model: m, ss: sketch.NewSpaceSavingK(k)}
}

// Model returns the decay model.
func (h *HeavyHitters) Model() decay.Forward { return h.model }

// Observe records one occurrence of key at timestamp ti.
func (h *HeavyHitters) Observe(key uint64, ti float64) {
	h.ObserveN(key, ti, 1)
}

// ObserveN records n simultaneous occurrences of key at timestamp ti (n may
// be fractional, e.g. a byte count; non-positive n is ignored).
func (h *HeavyHitters) ObserveN(key uint64, ti, n float64) {
	if !IsFinite(ti) {
		h.reject("HeavyHitters", "timestamp", ti)
		return
	}
	if !IsFinite(n) {
		h.reject("HeavyHitters", "value", n)
		return
	}
	if n <= 0 {
		return
	}
	lw := h.model.LogStaticWeight(ti)
	h.update(key, lw, n)
}

func (h *HeavyHitters) update(key uint64, lw, n float64) {
	if math.IsInf(lw, -1) {
		// Zero static weight (e.g. an observation at the landmark under
		// polynomial decay) contributes nothing; folding it in would poison
		// the summary with NaN via rel = −Inf − (−Inf).
		return
	}
	if !h.started {
		h.logScale = lw
		h.started = true
	}
	rel := lw - h.logScale
	if rel > core.MaxSafeExp {
		// Rebase: linear rescaling pass over the counters (§VI-A).
		mustScale(h.ss.Scale(posFactor(core.ExpClamped(-rel))))
		h.logScale = lw
		rel = 0
	}
	h.ss.Update(key, core.ExpClamped(rel)*n)
}

// DecayedCount returns the total decayed count C at query time t.
func (h *HeavyHitters) DecayedCount(t float64) float64 {
	return h.ss.Total() * core.ExpClamped(h.logScale-h.model.LogNormalizer(t))
}

// Query returns the φ-heavy hitters at query time t, in decreasing order of
// estimated decayed count.
func (h *HeavyHitters) Query(t, phi float64) []Item {
	norm := core.ExpClamped(h.logScale - h.model.LogNormalizer(t))
	raw := h.ss.HeavyHitters(phi)
	out := make([]Item, len(raw))
	for i, ic := range raw {
		out[i] = Item{Key: ic.Key, Count: ic.Count * norm, Err: ic.Err * norm}
	}
	return out
}

// Top returns the n items with the largest estimated decayed counts at
// query time t, in decreasing order, regardless of any threshold.
func (h *HeavyHitters) Top(t float64, n int) []Item {
	norm := core.ExpClamped(h.logScale - h.model.LogNormalizer(t))
	raw := h.ss.Top(n)
	out := make([]Item, len(raw))
	for i, ic := range raw {
		out[i] = Item{Key: ic.Key, Count: ic.Count * norm, Err: ic.Err * norm}
	}
	return out
}

// Estimate returns the estimated decayed count of key at time t, and the
// overestimation bound.
func (h *HeavyHitters) Estimate(key uint64, t float64) (count, err float64) {
	norm := core.ExpClamped(h.logScale - h.model.LogNormalizer(t))
	c, e := h.ss.Estimate(key)
	return c * norm, e * norm
}

// Merge folds another summary over the same decay model into this one
// (distributed operation, §VI-B). Error bounds add.
func (h *HeavyHitters) Merge(o *HeavyHitters) error {
	if !sameModel(h.model, o.model) {
		return errModelMismatch(h.model, o.model)
	}
	if !o.started {
		return nil
	}
	if !h.started {
		h.logScale = o.logScale
		h.started = true
	}
	other := o.ss
	if o.logScale != h.logScale {
		if o.logScale > h.logScale {
			mustScale(h.ss.Scale(posFactor(core.ExpClamped(h.logScale - o.logScale))))
			h.logScale = o.logScale
		}
		// Scale a copy of the other side onto our scale.
		cp := o.ss.Clone()
		mustScale(cp.Scale(posFactor(core.ExpClamped(o.logScale - h.logScale))))
		other = cp
	}
	h.ss.Merge(other)
	return nil
}

// SizeBytes reports the summary's memory footprint.
func (h *HeavyHitters) SizeBytes() int { return 24 + h.ss.SizeBytes() }
