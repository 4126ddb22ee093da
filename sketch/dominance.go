package sketch

import (
	"math"
	"sort"

	"forwarddecay/internal/core"
)

// Dominance estimates the dominance norm Σ_v max_{vᵢ=v} wᵢ of a stream of
// (key, weight) pairs — exactly the quantity that count-distinct under
// forward decay reduces to (Definition 9 / Theorem 4 of the paper, via the
// reduction of Cormode and Muthukrishnan).
//
// The paper cites the range-efficient F₀ algorithm of Pavan and Tirthapura;
// this implementation substitutes a layered-KMV construction (see DESIGN.md):
// weights are bucketed into geometric levels of ratio base, and a KMV
// distinct sketch per retained level estimates D_l, the number of distinct
// keys whose maximum weight reaches level l. The norm is recovered as
//
//	Σ_l (base^l − base^{l−1}) · D̂_l  (+ base^lo · D̂_lo for the lowest level)
//
// which is accurate to the product of the discretization factor (≈ base)
// and the KMV error (≈ 1/√k). Only the top maxLevels levels are retained;
// levels far below the current maximum carry a vanishing fraction of the
// norm, so pruning them preserves the estimate. Weights are supplied in the
// log domain, so exponential forward decay never overflows.
//
// Dominance is not safe for concurrent use.
type Dominance struct {
	logBase   float64
	k         int
	maxLevels int
	levels    map[int]*KMV
	lo, hi    int
	empty     bool
	// logShift is the frame offset between external log weights and the
	// internal (birth-frame) weights the levels are bucketed by: an update
	// with external weight w is stored at level floor((w−logShift)/logBase),
	// and LogEstimate adds logShift back. ShiftLog moves only this offset,
	// so landmark shifts under exponential decay never re-bucket anything —
	// the shift is exact no matter how many times it is applied.
	logShift float64
}

// NewDominance returns an estimator with per-level KMV size k, level ratio
// base > 1, and at most maxLevels retained levels. Good defaults are
// k = 1024, base = 1.05, maxLevels = 1024. It panics on invalid parameters.
func NewDominance(k int, base float64, maxLevels int) *Dominance {
	if k < 3 {
		panic("sketch: Dominance needs KMV size k >= 3")
	}
	if base <= 1 {
		panic("sketch: Dominance base must exceed 1")
	}
	if maxLevels < 2 {
		panic("sketch: Dominance needs at least two levels")
	}
	return &Dominance{
		logBase:   math.Log(base),
		k:         k,
		maxLevels: maxLevels,
		levels:    make(map[int]*KMV),
		empty:     true,
	}
}

// Update records key with the given log-domain weight (ln w). Items of zero
// weight (logW = −Inf), NaN and levels beyond ±2⁵³ (+Inf) are ignored.
func (d *Dominance) Update(key uint64, logW float64) {
	lf := math.Floor((logW - d.logShift) / d.logBase)
	if !(math.Abs(lf) < 1<<53) {
		return
	}
	l := int(lf)
	if d.empty {
		d.lo, d.hi = l, l
		d.empty = false
	}
	if l > d.hi {
		d.hi = l
	}
	if l < d.lo && d.hi-l+1 <= d.maxLevels {
		d.extendDown(l)
	}
	if nlo := d.hi - d.maxLevels + 1; nlo > d.lo {
		for j := range d.levels { // at most maxLevels; the span may be vast
			if j < nlo {
				delete(d.levels, j)
			}
		}
		d.lo = nlo
	}
	if l < d.lo {
		l = d.lo // clamp pruned weights into the lowest retained level
	}
	h := core.Mix64(key ^ 0x5bf03635ea3eddcb)
	for j := d.lo; j <= l; j++ {
		kmv := d.levels[j]
		if kmv == nil {
			kmv = NewKMV(d.k)
			d.levels[j] = kmv
		}
		kmv.InsertHash(h)
	}
}

// extendDown opens levels [newLo, lo) while the budget allows. Every key
// seen so far was inserted into the current lowest level, so D_j for any
// lower level j equals that level's key set: the new levels start as clones
// of it, preserving the telescoping estimate for past items.
func (d *Dominance) extendDown(newLo int) {
	base := d.levels[d.lo]
	for j := newLo; j < d.lo; j++ {
		if base != nil {
			d.levels[j] = base.Clone()
		} else {
			d.levels[j] = NewKMV(d.k)
		}
	}
	d.lo = newLo
}

// LogEstimate returns ln of the estimated dominance norm, or −Inf for an
// empty stream. Working in the log domain keeps exponential-decay weights
// representable.
func (d *Dominance) LogEstimate() float64 {
	if d.empty {
		return math.Inf(-1)
	}
	// ln Σ_l coeff_l · D_l via log-sum-exp. Iterating the populated levels
	// (not the [lo,hi] span) keeps this O(stored levels) even when the
	// span is sparse; sorting keeps the float accumulation order — and so
	// the estimate — bit-stable across encode/decode round trips.
	ls := make([]int, 0, len(d.levels))
	for l, kmv := range d.levels {
		if kmv == nil || kmv.Len() == 0 || l < d.lo || l > d.hi {
			continue
		}
		ls = append(ls, l)
	}
	sort.Ints(ls)
	acc := math.Inf(-1)
	for _, l := range ls {
		kmv := d.levels[l]
		est := kmv.Estimate()
		var logCoeff float64
		if l == d.lo {
			logCoeff = float64(l) * d.logBase
		} else {
			// base^l − base^{l−1} = base^l · (1 − 1/base)
			logCoeff = float64(l)*d.logBase + math.Log(1-math.Exp(-d.logBase))
		}
		acc = core.LogSumExp(acc, logCoeff+math.Log(est))
	}
	// Center the discretization bias: the layered sum underestimates by a
	// factor between 1 and base; multiply by √base. logShift converts the
	// internal birth-frame estimate back to the external frame.
	return acc + d.logBase/2 + d.logShift
}

// ShiftLog adds a constant to every stored log weight — the landmark-shift
// rebase for exponential forward decay. Only the frame offset moves; level
// contents are untouched, so the operation is O(1) and exact.
func (d *Dominance) ShiftLog(delta float64) {
	d.logShift += delta
}

// Merge folds another estimator (with identical parameters) into this one.
// A non-empty estimator over another level ratio is refused with a
// *MismatchError.
func (d *Dominance) Merge(o *Dominance) error {
	if o == nil || o.empty {
		return nil
	}
	if math.Abs(o.logBase-d.logBase) > 1e-12 {
		return &MismatchError{Sketch: "Dominance", Param: "base", A: math.Exp(d.logBase), B: math.Exp(o.logBase)}
	}
	// When the two sketches were landmark-shifted by different amounts their
	// birth frames differ; translate o's levels into this sketch's frame by
	// the rounded whole-level offset. After a uniform rollover both sides
	// carry the same logShift and off is 0; a fractional residue (shifts that
	// are not whole levels) costs at most half a level of discretization —
	// within the sketch's existing base-factor error.
	off := 0
	if o.logShift != d.logShift {
		off = int(math.Round((o.logShift - d.logShift) / d.logBase))
	}
	olo, ohi := o.lo+off, o.hi+off
	if d.empty {
		d.lo, d.hi, d.empty = olo, ohi, false
	}
	if ohi > d.hi {
		d.hi = ohi
	}
	if olo < d.lo && d.hi-olo+1 <= d.maxLevels {
		d.extendDown(olo)
	}
	if nlo := d.hi - d.maxLevels + 1; nlo > d.lo {
		for j := range d.levels {
			if j < nlo {
				delete(d.levels, j)
			}
		}
		d.lo = nlo
	}
	// Every key of o qualifies for all levels at or below o's lowest level
	// (which, by the update invariant, holds o's full key set).
	oLowest := o.levels[o.lo]
	for j := d.lo; j <= d.hi; j++ {
		var src *KMV
		switch {
		case j < olo:
			src = oLowest
		case j > ohi:
			src = nil
		default:
			src = o.levels[j-off]
		}
		if src == nil || src.Len() == 0 {
			continue
		}
		dst := d.levels[j]
		if dst == nil {
			dst = NewKMV(d.k)
			d.levels[j] = dst
		}
		dst.Merge(src)
	}
	return nil
}
