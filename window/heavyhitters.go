package window

import (
	"math"
	"sort"

	"forwarddecay/decay"
	"forwarddecay/sketch"
)

// HeavyHitters answers sliding-window heavy-hitter queries over a hierarchy
// of dyadic time blocks: level l partitions time into blocks of duration
// window/2^l, and every block carries a Misra–Gries summary with
// k = ⌈2/ε⌉ counters. An arrival updates one block per level — O(levels)
// sketch updates, versus the single O(log 1/ε) SpaceSaving update of the
// forward-decay approach — and a window query combines a dyadic cover of
// the window (at most two blocks per level). The retained blocks total
// O((1/ε)² ) counters, the orders-of-magnitude space gap of Figure 4.
//
// Timestamps must be non-decreasing (clamped otherwise).
type HeavyHitters struct {
	window  float64
	levels  int
	width   []float64 // width[l] = window/2^l, level l's block duration
	k       int
	blks    [][]hhBlock          // per level, ascending block index
	last    float64              // latest timestamp; −Inf before the first
	totalEH *sketch.ExpHistogram // window total weight, for thresholds
}

type hhBlock struct {
	idx        int64
	start, end float64
	mg         *sketch.MisraGries
}

// NewHeavyHitters returns a sliding-window heavy-hitter structure over a
// window of the given duration with error parameter epsilon: a window query
// with threshold φ returns every item of window weight ≥ φ·W and no item
// below (φ−ε)·W, up to the block-boundary granularity εW. It panics unless
// window > 0 and 0 < epsilon < 1.
func NewHeavyHitters(window, epsilon float64) *HeavyHitters {
	if window <= 0 {
		panic("window: HeavyHitters needs a positive window")
	}
	if !(epsilon > 0 && epsilon < 1) {
		panic("window: HeavyHitters epsilon must be in (0,1)")
	}
	levels := int(math.Ceil(math.Log2(1/epsilon))) + 1
	if levels < 1 {
		levels = 1
	}
	k := int(math.Ceil(2 / epsilon))
	width := make([]float64, levels)
	for l := range width {
		width[l] = window / float64(uint64(1)<<uint(l))
	}
	return &HeavyHitters{
		window:  window,
		levels:  levels,
		width:   width,
		k:       k,
		blks:    make([][]hhBlock, levels),
		last:    math.Inf(-1),
		totalEH: sketch.NewExpHistogram(epsilon/2, window),
	}
}

// Levels returns the number of block levels.
func (h *HeavyHitters) Levels() int { return h.levels }

// Observe records one occurrence of key at timestamp ts with the given
// positive weight (1 for counting, bytes for volume queries).
func (h *HeavyHitters) Observe(key uint64, ts, weight float64) {
	// Reject non-finite inputs outright: a NaN timestamp would stick in
	// h.last and clamp every later arrival, and a non-finite weight would
	// poison the block summaries and the window total.
	if !(weight > 0) || math.IsInf(weight, 0) || math.IsNaN(ts) || math.IsInf(ts, 0) {
		return
	}
	if ts < h.last {
		ts = h.last
	}
	h.last = ts
	for l, d := range h.width {
		idx := int64(math.Floor(ts / d))
		lv := h.blks[l]
		if n := len(lv); n == 0 || lv[n-1].idx != idx {
			h.expireLevel(l, ts)
			h.blks[l] = append(h.blks[l], hhBlock{
				idx:   idx,
				start: float64(idx) * d,
				end:   float64(idx+1) * d,
				mg:    sketch.NewMisraGries(h.k),
			})
			lv = h.blks[l]
		}
		lv[len(lv)-1].mg.Update(key, weight)
	}
	h.totalEH.Insert(ts, weight)
}

// expireLevel drops blocks that ended before the window reachable from ts.
func (h *HeavyHitters) expireLevel(l int, ts float64) {
	cutoff := ts - 2*h.window // keep one extra window for straddling queries
	lv := h.blks[l]
	i := 0
	for i < len(lv) && lv[i].end < cutoff {
		i++
	}
	if i > 0 {
		h.blks[l] = append(lv[:0], lv[i:]...)
	}
}

// cover returns the blocks of a dyadic cover of (from, to]: greedy
// coarsest-first, at most two blocks per level, plus (possibly) one finest
// block straddling each boundary, counted fully.
func (h *HeavyHitters) cover(from, to float64) []*hhBlock {
	var out []*hhBlock
	fine := h.width[h.levels-1]
	p := from
	for p < to-1e-9 {
		placed := false
		for l, d := range h.width {
			idx := int64(math.Ceil((p - 1e-9) / d))
			start := float64(idx) * d
			if start-p < fine && start+d <= to+1e-9 {
				if b := h.findBlock(l, idx); b != nil {
					out = append(out, b)
				}
				p = start + d
				placed = true
				break
			}
		}
		if !placed {
			// Residual span shorter than the finest block: include the
			// finest block containing p (over-counting its prefix).
			idx := int64(math.Floor((p + 1e-9) / fine))
			if b := h.findBlock(h.levels-1, idx); b != nil {
				out = append(out, b)
			}
			p = float64(idx+1) * fine
		}
	}
	return out
}

// findBlock locates the block with the given index at level l, or nil.
func (h *HeavyHitters) findBlock(l int, idx int64) *hhBlock {
	lv := h.blks[l]
	i := sort.Search(len(lv), func(i int) bool { return lv[i].idx >= idx })
	if i < len(lv) && lv[i].idx == idx {
		return &lv[i]
	}
	return nil
}

// WindowTotal estimates the total weight in (t−window, t].
func (h *HeavyHitters) WindowTotal(t float64) float64 {
	return h.totalEH.WindowSum(t)
}

// Query returns the items whose estimated weight within (t−window, t] is at
// least phi times the window total, in decreasing order of estimate.
func (h *HeavyHitters) Query(t, phi float64) []sketch.ItemCount {
	blocks := h.cover(t-h.window, t)
	merged := sketch.NewMisraGries(h.k)
	for _, b := range blocks {
		merged.Merge(b.mg)
	}
	total := h.WindowTotal(t)
	// Misra–Gries underestimates by at most total/(k+1); compensate when
	// thresholding so that no true heavy hitter is missed.
	slack := merged.Total() / float64(merged.K()+1)
	thresh := phi*total - slack
	var out []sketch.ItemCount
	for _, ic := range merged.Items() {
		if ic.Count >= thresh {
			ic.Err = slack
			out = append(out, ic)
		}
	}
	return out
}

// DecayedQuery returns heavy hitters under an arbitrary backward decay
// function f at query time t: candidates are drawn from the finest-level
// blocks, each block's contribution weighted by f at the block's age span
// midpoint (the same Cohen–Strauss combination BackwardSum uses). It
// returns items whose estimated decayed count reaches phi times the total
// decayed count.
func (h *HeavyHitters) DecayedQuery(f decay.AgeFunc, t, phi float64) []sketch.ItemCount {
	f0 := f.Eval(0)
	fine := h.blks[h.levels-1]
	counts := make(map[uint64]float64)
	var total float64
	var slack float64
	for i := range fine {
		b := &fine[i]
		if b.end <= t-h.window || b.start > t {
			continue
		}
		aNew, aOld := t-b.end, t-b.start
		if aNew < 0 {
			aNew = 0
		}
		w := (f.Eval(aNew) + f.Eval(aOld)) / 2 / f0
		if w == 0 {
			continue
		}
		for _, ic := range b.mg.Items() {
			counts[ic.Key] += ic.Count * w
		}
		total += b.mg.Total() * w
		slack += b.mg.Total() / float64(h.k+1) * w
	}
	thresh := phi*total - slack
	var out []sketch.ItemCount
	for k, c := range counts {
		if c >= thresh {
			out = append(out, sketch.ItemCount{Key: k, Count: c, Err: slack})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// SizeBytes reports the total memory footprint of all retained blocks —
// the space series of Figures 4(c) and 4(d).
func (h *HeavyHitters) SizeBytes() int {
	s := 64 + h.totalEH.SizeBytes()
	for _, lv := range h.blks {
		for i := range lv {
			s += 48 + lv[i].mg.SizeBytes()
		}
	}
	return s
}

// Blocks returns the total number of retained blocks (diagnostics).
func (h *HeavyHitters) Blocks() int {
	n := 0
	for _, lv := range h.blks {
		n += len(lv)
	}
	return n
}
