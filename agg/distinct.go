package agg

import (
	"math"

	"forwarddecay/decay"
	"forwarddecay/internal/core"
	"forwarddecay/sketch"
)

// DistinctExact computes the decayed distinct count of Definition 9 exactly:
// D = Σ_v max_{vᵢ=v} g(tᵢ−L)/g(t−L). It keeps the maximum log static weight
// per distinct key — linear space, useful as a reference and for moderate
// key cardinalities. For sublinear space use Distinct.
type DistinctExact struct {
	inputGuard
	model decay.Forward
	maxLW map[uint64]float64
}

// NewDistinctExact returns an exact decayed distinct counter.
func NewDistinctExact(m decay.Forward) *DistinctExact {
	return &DistinctExact{model: m, maxLW: make(map[uint64]float64)}
}

// Model returns the decay model.
func (d *DistinctExact) Model() decay.Forward { return d.model }

// Observe records one occurrence of key at timestamp ti. Non-finite
// timestamps are rejected (see Err).
func (d *DistinctExact) Observe(key uint64, ti float64) {
	if !IsFinite(ti) {
		d.reject("DistinctExact", "timestamp", ti)
		return
	}
	lw := d.model.LogStaticWeight(ti)
	if math.IsInf(lw, -1) {
		return
	}
	if m, ok := d.maxLW[key]; !ok || lw > m {
		d.maxLW[key] = lw
	}
}

// Value returns the decayed distinct count D at query time t.
func (d *DistinctExact) Value(t float64) float64 {
	logNorm := d.model.LogNormalizer(t)
	var s core.KahanSum
	// Accumulate in key order: map iteration order would otherwise make the
	// float sum run-to-run nondeterministic, breaking bit-exact comparisons
	// across restarts and epoch rollovers.
	for _, k := range sortedKeys(d.maxLW) {
		s.Add(core.ExpClamped(d.maxLW[k] - logNorm))
	}
	return s.Value()
}

// Keys returns the number of distinct keys seen (with non-zero weight).
func (d *DistinctExact) Keys() int { return len(d.maxLW) }

// Merge folds another exact counter over the same model into this one.
func (d *DistinctExact) Merge(o *DistinctExact) error {
	if !sameModel(d.model, o.model) {
		return errModelMismatch(d.model, o.model)
	}
	for k, lw := range o.maxLW {
		if m, ok := d.maxLW[k]; !ok || lw > m {
			d.maxLW[k] = lw
		}
	}
	return nil
}

// Distinct approximates the decayed distinct count of Definition 9 /
// Theorem 4 in sublinear space. Factoring out g(t−L), the quantity is the
// dominance norm Σ_v max_v g(tᵢ−L) of the static weights, which the
// layered-KMV estimator in the sketch package approximates (standing in for
// the Pavan–Tirthapura range-efficient F₀ algorithm the paper cites — see
// DESIGN.md for the substitution argument).
type Distinct struct {
	inputGuard
	model decay.Forward
	dom   *sketch.Dominance
}

// NewDistinct returns an approximate decayed distinct counter. kmvSize
// controls per-level accuracy (≈1/√kmvSize relative error per level; 1024
// is a good default), base the level granularity (1.05 default), maxLevels
// the retained weight range (1024 default).
func NewDistinct(m decay.Forward, kmvSize int, base float64, maxLevels int) *Distinct {
	return &Distinct{model: m, dom: sketch.NewDominance(kmvSize, base, maxLevels)}
}

// Model returns the decay model.
func (d *Distinct) Model() decay.Forward { return d.model }

// Observe records one occurrence of key at timestamp ti. Non-finite
// timestamps are rejected (see Err).
func (d *Distinct) Observe(key uint64, ti float64) {
	if !IsFinite(ti) {
		d.reject("Distinct", "timestamp", ti)
		return
	}
	d.dom.Update(key, d.model.LogStaticWeight(ti))
}

// Value returns the estimated decayed distinct count D at query time t.
func (d *Distinct) Value(t float64) float64 {
	return math.Exp(d.dom.LogEstimate() - d.model.LogNormalizer(t))
}

// Merge folds another counter (same model and parameters) into this one.
func (d *Distinct) Merge(o *Distinct) error {
	if !sameModel(d.model, o.model) {
		return errModelMismatch(d.model, o.model)
	}
	return d.dom.Merge(o.dom)
}

// SizeBytes reports the summary's memory footprint.
func (d *Distinct) SizeBytes() int { return 16 + d.dom.SizeBytes() }
