package agg

import (
	"math"

	"forwarddecay/decay"
	"forwarddecay/internal/core"
)

// Counter maintains the decayed count C = Σᵢ g(tᵢ−L)/g(t−L) of Definition 5
// in constant space: one scaled sum plus the decay model. Arrival order is
// irrelevant, and counters over the same model merge exactly.
type Counter struct {
	inputGuard
	model decay.Forward
	c     core.ScaledSum
	n     uint64 // raw (undecayed) number of observations
}

// NewCounter returns a decayed counter under the given forward decay model.
func NewCounter(m decay.Forward) *Counter {
	return &Counter{model: m}
}

// Model returns the counter's decay model.
func (c *Counter) Model() decay.Forward { return c.model }

// Observe records one item with timestamp ti.
func (c *Counter) Observe(ti float64) { c.ObserveN(ti, 1) }

// ObserveN records n simultaneous items with timestamp ti (n may be
// fractional; non-positive n is ignored).
func (c *Counter) ObserveN(ti, n float64) {
	if !IsFinite(ti) {
		c.reject("Counter", "timestamp", ti)
		return
	}
	if !IsFinite(n) {
		c.reject("Counter", "value", n)
		return
	}
	if n <= 0 {
		return
	}
	c.c.Add(c.model.LogStaticWeight(ti), n)
	c.n++
}

// Value returns the decayed count evaluated at query time t. Queries should
// use t at least as large as the largest observed timestamp.
func (c *Counter) Value(t float64) float64 {
	return c.c.Value(c.model.LogNormalizer(t))
}

// Merge folds another counter over the same decay model into this one.
func (c *Counter) Merge(o *Counter) error {
	if !sameModel(c.model, o.model) {
		return errModelMismatch(c.model, o.model)
	}
	c.c.Merge(&o.c)
	c.n += o.n
	return nil
}

// ShiftLandmark rebases the counter onto a new landmark, which is possible
// exactly when the decay function supports landmark shifting (exponential
// decay; see decay.LandmarkShifter). Counts queried after the shift are
// identical to before: only the internal representation changes.
func (c *Counter) ShiftLandmark(newL float64) error {
	m, logShift, ok := c.model.Shifted(newL)
	if !ok {
		return errNotShiftable(c.model)
	}
	c.model = m
	c.c.Shift(logShift)
	return nil
}

func errNotShiftable(m decay.Forward) error {
	return &decay.NotShiftableError{Func: m.Func.String()}
}

// NotShiftableError is the typed error every ShiftLandmark method returns
// when the decay function lacks the shift property (anything but exponential
// decay). It aliases the decay package's exported type so errors.As matches
// at either level.
type NotShiftableError = decay.NotShiftableError

// Sum maintains the decayed sum S = Σᵢ g(tᵢ−L)·vᵢ/g(t−L) and the decayed
// sum of squares, from which the decayed count, sum, average and variance
// of Definition 5 (and the remark following it) are all available. Per
// Theorem 1 it uses constant space for any forward decay function.
type Sum struct {
	inputGuard
	model decay.Forward
	c     core.ScaledSum // Σ g·1
	s     core.ScaledSum // Σ g·v
	s2    core.ScaledSum // Σ g·v²
	n     uint64
}

// NewSum returns a decayed sum aggregate under the given model.
func NewSum(m decay.Forward) *Sum {
	return &Sum{model: m}
}

// Model returns the aggregate's decay model.
func (s *Sum) Model() decay.Forward { return s.model }

// Observe records an item with timestamp ti and value v. Non-finite inputs
// are rejected (see Err) rather than folded into the decayed state.
func (s *Sum) Observe(ti, v float64) {
	if !IsFinite(ti) {
		s.reject("Sum", "timestamp", ti)
		return
	}
	if !IsFinite(v) {
		s.reject("Sum", "value", v)
		return
	}
	lw := s.model.LogStaticWeight(ti)
	s.c.Add(lw, 1)
	s.s.Add(lw, v)
	s.s2.Add(lw, v*v)
	s.n++
}

// Count returns the decayed count at query time t.
func (s *Sum) Count(t float64) float64 { return s.c.Value(s.model.LogNormalizer(t)) }

// Value returns the decayed sum at query time t.
func (s *Sum) Value(t float64) float64 { return s.s.Value(s.model.LogNormalizer(t)) }

// Mean returns the decayed average A = S/C. As observed in the paper, the
// average does not depend on the query time: the normalizers cancel.
// It returns NaN for an empty aggregate.
func (s *Sum) Mean() float64 {
	cs, cl := s.c.Raw()
	ss, sl := s.s.Raw()
	if cs == 0 {
		return math.NaN()
	}
	// (ss·e^sl) / (cs·e^cl), computed stably.
	return ss / cs * expDiff(sl, cl)
}

// Variance returns the decayed variance V = Σg·v²/C − A² (weights
// interpreted as probabilities). Like the mean it is independent of the
// query time. It returns NaN for an empty aggregate.
func (s *Sum) Variance() float64 {
	cs, cl := s.c.Raw()
	qs, ql := s.s2.Raw()
	if cs == 0 {
		return math.NaN()
	}
	m := s.Mean()
	v := qs/cs*expDiff(ql, cl) - m*m
	if v < 0 {
		v = 0 // clamp tiny negative round-off
	}
	return v
}

// StdDev returns the square root of the decayed variance.
func (s *Sum) StdDev() float64 { return math.Sqrt(s.Variance()) }

// N returns the raw number of observations.
func (s *Sum) N() uint64 { return s.n }

// Merge folds another aggregate over the same decay model into this one.
func (s *Sum) Merge(o *Sum) error {
	if !sameModel(s.model, o.model) {
		return errModelMismatch(s.model, o.model)
	}
	s.c.Merge(&o.c)
	s.s.Merge(&o.s)
	s.s2.Merge(&o.s2)
	s.n += o.n
	return nil
}

// ShiftLandmark rebases the aggregate onto a new landmark (exponential
// decay only); queried values are unchanged.
func (s *Sum) ShiftLandmark(newL float64) error {
	m, logShift, ok := s.model.Shifted(newL)
	if !ok {
		return errNotShiftable(s.model)
	}
	s.model = m
	s.c.Shift(logShift)
	s.s.Shift(logShift)
	s.s2.Shift(logShift)
	return nil
}

// expDiff returns exp(a−b), saturating rather than overflowing.
func expDiff(a, b float64) float64 {
	d := a - b
	if d > 700 {
		return math.MaxFloat64
	}
	if d < -745 {
		return 0
	}
	return math.Exp(d)
}
