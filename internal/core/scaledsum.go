package core

import "math"

// ScaledSum accumulates Σᵢ wᵢ·xᵢ where each weight wᵢ = exp(lwᵢ) is given
// in the log domain. The sum is stored relative to a floating scale: the
// represented value is Sum·exp(LogScale). When a new term's log-weight
// exceeds the scale by more than MaxSafeExp the accumulator rebases,
// linearly rescaling the stored sum — the continuous form of the landmark
// rescaling of §VI-A of the forward-decay paper. Old mass that underflows
// during a rebase is negligible relative to the new scale by construction.
//
// The zero value is an empty sum ready for use.
type ScaledSum struct {
	sum      KahanSum
	logScale float64
	nonEmpty bool
}

// Add accumulates exp(lw)·x. Terms with x = 0 or zero weight (lw = −Inf)
// are ignored.
func (s *ScaledSum) Add(lw, x float64) {
	if x == 0 || math.IsInf(lw, -1) || math.IsNaN(lw) {
		return
	}
	if !s.nonEmpty {
		s.logScale = lw
		s.nonEmpty = true
		s.sum.Add(x)
		return
	}
	rel := lw - s.logScale
	if rel > MaxSafeExp {
		s.Rebase(lw)
		rel = 0
	} else if rel < -MaxSafeExp && s.sum.Value() == 0 {
		// Everything accumulated so far has cancelled or underflowed; adopt
		// the new item's scale so it is not lost too.
		s.logScale = lw
		rel = 0
	}
	s.sum.Add(ExpClamped(rel) * x)
}

// Rebase rescales the stored sum onto the given log scale.
func (s *ScaledSum) Rebase(newScale float64) {
	s.sum.Scale(ExpClamped(s.logScale - newScale))
	s.logScale = newScale
}

// Value returns (Σ wᵢxᵢ) / exp(logNorm).
func (s *ScaledSum) Value(logNorm float64) float64 {
	if !s.nonEmpty {
		return 0
	}
	return s.sum.Value() * ExpClamped(s.logScale-logNorm)
}

// Raw returns the stored sum and its log scale
// (Σ wᵢxᵢ = sum·exp(logScale)).
func (s *ScaledSum) Raw() (sum, logScale float64) { return s.sum.Value(), s.logScale }

// Log returns ln(Σ wᵢxᵢ) for a sum of positive terms, or −Inf when empty
// or zero.
func (s *ScaledSum) Log() float64 {
	v := s.sum.Value()
	if !s.nonEmpty || v <= 0 {
		return math.Inf(-1)
	}
	return math.Log(v) + s.logScale
}

// Merge folds another accumulator into this one.
func (s *ScaledSum) Merge(o *ScaledSum) {
	if !o.nonEmpty {
		return
	}
	if !s.nonEmpty {
		*s = *o
		return
	}
	if o.logScale > s.logScale {
		s.Rebase(o.logScale)
	}
	s.sum.Add(o.sum.Value() * ExpClamped(o.logScale-s.logScale))
}

// Shift adds a constant to the log scale, used when the landmark of an
// exponential-decay aggregate moves: every static weight changes by the
// same log-domain constant, so only the scale needs adjusting.
func (s *ScaledSum) Shift(delta float64) {
	if s.nonEmpty {
		s.logScale += delta
	}
}

// Empty reports whether nothing has been accumulated.
func (s *ScaledSum) Empty() bool { return !s.nonEmpty }

// State exposes the full representation — raw sum, Kahan compensation and
// log scale — so checkpoint codecs can round-trip the accumulator
// bit-for-bit. Reconstructing from Raw() alone drops the compensation and
// breaks exact crash-restore equivalence.
func (s *ScaledSum) State() (sum, comp, logScale float64, nonEmpty bool) {
	sum, comp = s.sum.State()
	return sum, comp, s.logScale, s.nonEmpty
}

// Restore reinstates an accumulator captured with State.
func (s *ScaledSum) Restore(sum, comp, logScale float64, nonEmpty bool) {
	s.sum.SetState(sum, comp)
	s.logScale = logScale
	s.nonEmpty = nonEmpty
}

// PlainScale reports the scale an Add(lw, x ≠ 0) would add ExpClamped(lw −
// scale)·x against with no rebase or scale adoption, or ok false: sums that
// report one scale for lw can share the exponential (AddExp).
func (s *ScaledSum) PlainScale(lw float64) (scale float64, ok bool) {
	rel := lw - s.logScale
	return s.logScale, s.nonEmpty && !math.IsInf(lw, -1) && rel <= MaxSafeExp &&
		(rel >= -MaxSafeExp || s.sum.Value() != 0)
}

// AddExp is Add(lw, x) for an lw PlainScale accepted, given
// e = ExpClamped(lw − scale).
func (s *ScaledSum) AddExp(e, x float64) {
	if x != 0 {
		s.sum.Add(e * x)
	}
}
