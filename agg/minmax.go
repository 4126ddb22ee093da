package agg

import (
	"math"

	"forwarddecay/decay"
)

// extreme tracks the item maximizing (or minimizing) the decayed value
// g(tᵢ−L)·vᵢ (Definition 6 of the paper). Only the winning item is stored —
// constant space — because under forward decay the ordering of g(tᵢ−L)·vᵢ
// between any two items never changes as t advances.
//
// Comparisons are performed in the log domain on |v| with explicit sign
// handling, so exponential decay over long streams cannot overflow.
type extreme struct {
	inputGuard
	model decay.Forward
	max   bool // true for Max, false for Min
	set   bool
	ti    float64 // winning item's timestamp
	v     float64 // winning item's value
	lw    float64 // winning item's log static weight
}

// Max maintains the decayed maximum MAX = maxᵢ g(tᵢ−L)·vᵢ/g(t−L).
type Max struct{ e extreme }

// Min maintains the decayed minimum MIN = minᵢ g(tᵢ−L)·vᵢ/g(t−L).
type Min struct{ e extreme }

// NewMax returns a decayed maximum aggregate under the given model.
func NewMax(m decay.Forward) *Max { return &Max{extreme{model: m, max: true}} }

// NewMin returns a decayed minimum aggregate under the given model.
func NewMin(m decay.Forward) *Min { return &Min{extreme{model: m}} }

// name returns the exported aggregate name for error reporting.
func (e *extreme) name() string {
	if e.max {
		return "Max"
	}
	return "Min"
}

// logMag returns the log-magnitude of the decayed value and its sign:
// sign·exp(mag) = g·v.
func logMag(lw, v float64) (mag float64, sign int) {
	switch {
	case v > 0:
		return lw + math.Log(v), 1
	case v < 0:
		return lw + math.Log(-v), -1
	default:
		return math.Inf(-1), 0
	}
}

// better reports whether candidate (lw, v) beats the incumbent under the
// aggregate's direction.
func (e *extreme) better(lw, v float64) bool {
	if !e.set {
		return true
	}
	cm, cs := logMag(lw, v)
	im, is := logMag(e.lw, e.v)
	var cmp int // -1 candidate smaller, +1 candidate larger, 0 equal
	switch {
	case cs > is:
		cmp = 1
	case cs < is:
		cmp = -1
	case cs == 0:
		cmp = 0
	case cm == im:
		cmp = 0
	case (cm > im) == (cs > 0):
		cmp = 1
	default:
		cmp = -1
	}
	if e.max {
		return cmp > 0
	}
	return cmp < 0
}

func (e *extreme) observe(ti, v float64) {
	if !IsFinite(ti) {
		e.reject(e.name(), "timestamp", ti)
		return
	}
	if !IsFinite(v) {
		e.reject(e.name(), "value", v)
		return
	}
	lw := e.model.LogStaticWeight(ti)
	if math.IsInf(lw, -1) {
		// Zero static weight: the decayed value is 0; it can still win
		// (e.g. Min over positive values). Represent as v = 0 at weight 1.
		lw, v = 0, 0
	}
	if e.better(lw, v) {
		e.set, e.ti, e.v, e.lw = true, ti, v, lw
	}
}

// value returns g(t_best−L)·v_best / g(t−L).
func (e *extreme) value(t float64) float64 {
	if !e.set {
		return math.NaN()
	}
	mag, sign := logMag(e.lw, e.v)
	if sign == 0 {
		return 0
	}
	return float64(sign) * expDiff(mag, e.model.LogNormalizer(t))
}

func (e *extreme) merge(o *extreme) error {
	if !sameModel(e.model, o.model) {
		return errModelMismatch(e.model, o.model)
	}
	if o.set && e.better(o.lw, o.v) {
		e.set, e.ti, e.v, e.lw = true, o.ti, o.v, o.lw
	}
	return nil
}

// Observe records an item with timestamp ti and value v.
func (m *Max) Observe(ti, v float64) { m.e.observe(ti, v) }

// Value returns the decayed maximum at query time t, or NaN if empty.
func (m *Max) Value(t float64) float64 { return m.e.value(t) }

// Merge folds another Max over the same model into this one.
func (m *Max) Merge(o *Max) error { return m.e.merge(&o.e) }

// Err returns the first rejected (non-finite) observation, or nil.
func (m *Max) Err() error { return m.e.Err() }

// Model returns the aggregate's decay model.
func (m *Max) Model() decay.Forward { return m.e.model }

// Observe records an item with timestamp ti and value v.
func (m *Min) Observe(ti, v float64) { m.e.observe(ti, v) }

// Value returns the decayed minimum at query time t, or NaN if empty.
func (m *Min) Value(t float64) float64 { return m.e.value(t) }

// Merge folds another Min over the same model into this one.
func (m *Min) Merge(o *Min) error { return m.e.merge(&o.e) }

// Err returns the first rejected (non-finite) observation, or nil.
func (m *Min) Err() error { return m.e.Err() }

// Model returns the aggregate's decay model.
func (m *Min) Model() decay.Forward { return m.e.model }
