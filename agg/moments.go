package agg

import (
	"errors"

	"forwarddecay/decay"
	"forwarddecay/internal/core"
)

// Moments folds (timestamp, value) observations into a decayed Counter and a
// decayed Sum at once: the count, sum, average and variance of Definition 5
// from one frame. Either may be nil; both carry one model. Observe is
// bit-identical to Count.Observe(ti) beside Sum.Observe(ti, v): while every
// accumulator sits on one log scale, a row's exponential is computed once,
// from the same ExpClamped input each Add would form.
type Moments struct {
	Count *Counter
	Sum   *Sum
	// e = ExpClamped(elw − escale), reused across equal timestamps.
	elw, escale, e float64
	eok            bool
}

// Model returns the frame's decay model.
func (m *Moments) Model() decay.Forward {
	if m.Count != nil {
		return m.Count.model
	}
	return m.Sum.model
}

// Observe folds the row (ti, v), where lw is Model().LogStaticWeight(ti):
// callers stepping runs of equal timestamps compute it once per run.
func (m *Moments) Observe(ti, lw, v float64) {
	var sums [4]*core.ScaledSum
	var xs [4]float64
	n := 0
	if c := m.Count; c != nil {
		if !IsFinite(ti) {
			c.reject("Counter", "timestamp", ti)
		} else {
			sums[0], xs[0], n = &c.c, 1, 1
			c.n++
		}
	}
	if s := m.Sum; s != nil {
		switch {
		case !IsFinite(ti):
			s.reject("Sum", "timestamp", ti)
		case !IsFinite(v):
			s.reject("Sum", "value", v)
		default:
			sums[n], sums[n+1], sums[n+2] = &s.c, &s.s, &s.s2
			xs[n], xs[n+1], xs[n+2] = 1, v, v*v
			n += 3
			s.n++
		}
	}
	if n == 0 {
		return
	}
	scale, ok := sums[0].PlainScale(lw)
	for _, s := range sums[1:n] {
		sc, plain := s.PlainScale(lw)
		ok = ok && plain && sc == scale
	}
	if ok && (!m.eok || lw != m.elw || scale != m.escale) {
		m.elw, m.escale, m.e, m.eok = lw, scale, core.ExpClamped(lw-scale), true
	}
	for k, s := range sums[:n] {
		if ok {
			s.AddExp(m.e, xs[k])
		} else {
			s.Add(lw, xs[k])
		}
	}
}

// Merge folds another frame of the same shape and model into this one.
func (m *Moments) Merge(o *Moments) error {
	if (m.Count == nil) != (o.Count == nil) || (m.Sum == nil) != (o.Sum == nil) {
		return errors.New("agg: cannot merge moments frames of different shapes")
	}
	var err error
	if m.Count != nil {
		err = m.Count.Merge(o.Count)
	}
	if m.Sum != nil && err == nil {
		err = m.Sum.Merge(o.Sum)
	}
	return err
}

// ShiftLandmark rebases the frame onto a new landmark (exponential decay
// only).
func (m *Moments) ShiftLandmark(newL float64) error {
	var err error
	if m.Count != nil {
		err = m.Count.ShiftLandmark(newL)
	}
	if m.Sum != nil && err == nil {
		err = m.Sum.ShiftLandmark(newL)
	}
	return err
}
