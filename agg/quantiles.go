package agg

import (
	"math"

	"forwarddecay/decay"
	"forwarddecay/internal/core"
	"forwarddecay/sketch"
)

// Quantiles answers φ-quantile queries under forward decay (Definition 8,
// Theorem 3 of the paper): the φ-quantile is the smallest value v whose
// decayed rank r_v = Σ_{vᵢ≤v} g(tᵢ−L)/g(t−L) reaches φ·C. Like heavy
// hitters, the problem factors into a weighted quantile problem over the
// static weights, which a weighted q-digest answers in O((1/ε)·log U)
// counters.
//
// Because the normalizer g(t−L) cancels between the rank and the threshold
// φ·C, quantile queries do not depend on the query time at all — only rank
// queries need a time to scale by. Quantiles is not safe for concurrent use.
type Quantiles struct {
	inputGuard
	model    decay.Forward
	qd       *sketch.QDigest
	logScale float64
	started  bool
}

// NewQuantiles returns a quantile summary over the integer value domain
// [0, u) with additive rank error ε·C. It panics unless u ≥ 2 and
// 0 < epsilon < 1.
func NewQuantiles(m decay.Forward, u uint64, epsilon float64) *Quantiles {
	return &Quantiles{model: m, qd: sketch.NewQDigest(u, epsilon)}
}

// Model returns the decay model.
func (q *Quantiles) Model() decay.Forward { return q.model }

// Observe records an item with value v and timestamp ti. Non-finite
// timestamps are rejected (see Err) rather than folded into the digest.
func (q *Quantiles) Observe(v uint64, ti float64) {
	if !IsFinite(ti) {
		q.reject("Quantiles", "timestamp", ti)
		return
	}
	lw := q.model.LogStaticWeight(ti)
	if math.IsInf(lw, -1) {
		// Zero static weight contributes nothing; skip it so the first
		// observation cannot pin logScale at -Inf and poison rescaling.
		return
	}
	if !q.started {
		q.logScale = lw
		q.started = true
	}
	rel := lw - q.logScale
	if rel > core.MaxSafeExp {
		mustScale(q.qd.Scale(posFactor(core.ExpClamped(-rel))))
		q.logScale = lw
		rel = 0
	}
	q.qd.Update(v, core.ExpClamped(rel))
}

// Quantile returns the estimated φ-quantile. The result's true decayed rank
// is within ε·C of φ·C. It is independent of the query time.
func (q *Quantiles) Quantile(phi float64) uint64 { return q.qd.Quantile(phi) }

// Rank returns the estimated decayed rank of value v at query time t.
func (q *Quantiles) Rank(v uint64, t float64) float64 {
	return q.qd.Rank(v) * core.ExpClamped(q.logScale-q.model.LogNormalizer(t))
}

// DecayedCount returns the total decayed count C at query time t.
func (q *Quantiles) DecayedCount(t float64) float64 {
	return q.qd.Total() * core.ExpClamped(q.logScale-q.model.LogNormalizer(t))
}

// Merge folds another summary over the same decay model and domain into
// this one; rank errors add.
func (q *Quantiles) Merge(o *Quantiles) error {
	if !sameModel(q.model, o.model) {
		return errModelMismatch(q.model, o.model)
	}
	if err := q.qd.Compatible(o.qd); err != nil {
		return err
	}
	if !o.started {
		return nil
	}
	if !q.started {
		q.logScale = o.logScale
		q.started = true
	}
	if o.logScale > q.logScale {
		mustScale(q.qd.Scale(posFactor(core.ExpClamped(q.logScale - o.logScale))))
		q.logScale = o.logScale
	}
	if o.logScale < q.logScale {
		// Scale a copy of the other digest onto our scale (its weights
		// shrink, never overflow).
		cp := o.qd.Clone()
		mustScale(cp.Scale(posFactor(core.ExpClamped(o.logScale - q.logScale))))
		return q.qd.Merge(cp)
	}
	return q.qd.Merge(o.qd)
}

// SizeBytes reports the summary's steady-state memory footprint (the
// digest is compressed first).
func (q *Quantiles) SizeBytes() int {
	q.qd.Compress()
	return 24 + q.qd.SizeBytes()
}
