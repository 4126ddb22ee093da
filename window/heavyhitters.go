package window

import (
	"math"
	"sort"
	"unsafe"

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
// Timestamps are clamped to be non-decreasing, so only the newest block of
// a level ever takes updates: each level keeps that one block as a live
// summary, and freezes a block it closes into a per-level arena of flat
// counter runs, reusing the live summary for the next block. Reset keeps
// every arena, table and summary, so an instance recycled from one group
// to the next stops allocating once warm.
type HeavyHitters struct {
	window  float64
	levels  int
	width   []float64 // width[l] = window/2^l, level l's block duration
	k       int
	lv      []hhLevel
	last    float64              // latest timestamp; −Inf before the first
	totalEH *sketch.ExpHistogram // window total weight, for thresholds

	merged *sketch.MisraGries // Query's merge target, made at the first Query
	cov    []hhRef            // cover's result buffer
}

// hhLevel holds one level's blocks in ascending index order. The last block
// is the live one, its counters in live; every older block is frozen, its
// counters a run of the arena (keys/counts). Expiry drops a prefix of the
// blocks, leaving a dead arena prefix that is compacted away once it is
// more than half the arena.
type hhLevel struct {
	blocks []hhBlock
	live   *sketch.MisraGries
	keys   []uint64
	counts []float64
}

// hhBlock is one block's header. A frozen block's counters are
// keys/counts[off:off+n] of its level's arena, and total its summary's
// total; the live block's fields other than idx are unused.
type hhBlock struct {
	idx    int64
	total  float64
	off, n int32
}

// hhRef names block i of level l.
type hhRef struct{ l, i int }

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
	lv := make([]hhLevel, levels)
	for l := range width {
		width[l] = window / float64(uint64(1)<<uint(l))
		lv[l].live = sketch.NewMisraGries(k)
	}
	return &HeavyHitters{
		window:  window,
		levels:  levels,
		width:   width,
		k:       k,
		lv:      lv,
		last:    math.Inf(-1),
		totalEH: sketch.NewExpHistogram(epsilon/2, window),
	}
}

// Levels returns the number of block levels.
func (h *HeavyHitters) Levels() int { return h.levels }

// Reset empties the structure, keeping its arenas, summaries and buffers:
// afterwards it answers exactly as a new one would.
func (h *HeavyHitters) Reset() {
	for l := range h.lv {
		lv := &h.lv[l]
		lv.blocks, lv.keys, lv.counts = lv.blocks[:0], lv.keys[:0], lv.counts[:0]
		lv.live.Reset()
	}
	h.last = math.Inf(-1)
	h.totalEH.Reset()
}

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
		lv := &h.lv[l]
		if n := len(lv.blocks); n == 0 || lv.blocks[n-1].idx != idx {
			h.open(l, idx, ts)
		}
		lv.live.Update(key, weight)
	}
	h.totalEH.Insert(ts, weight)
}

// open closes level l's live block, if any, into the arena, expires what
// ts has left behind, and starts block idx on the reset live summary.
func (h *HeavyHitters) open(l int, idx int64, ts float64) {
	lv := &h.lv[l]
	if n := len(lv.blocks); n > 0 {
		b := &lv.blocks[n-1]
		keys, counts := lv.live.Counters()
		b.off, b.n, b.total = int32(len(lv.keys)), int32(len(keys)), lv.live.Total()
		lv.keys = append(lv.keys, keys...)
		lv.counts = append(lv.counts, counts...)
		lv.live.Reset()
	}
	h.expireLevel(l, ts)
	lv.blocks = append(lv.blocks, hhBlock{idx: idx})
}

// expireLevel drops the frozen blocks of level l that ended before the
// window reachable from ts, and compacts the arena once its dead prefix
// passes half of it.
func (h *HeavyHitters) expireLevel(l int, ts float64) {
	cutoff := ts - 2*h.window // keep one extra window for straddling queries
	lv, d := &h.lv[l], h.width[l]
	i := 0
	for i < len(lv.blocks) && float64(lv.blocks[i].idx+1)*d < cutoff {
		i++
	}
	if i == 0 {
		return
	}
	lv.blocks = append(lv.blocks[:0], lv.blocks[i:]...)
	if len(lv.blocks) == 0 {
		lv.keys, lv.counts = lv.keys[:0], lv.counts[:0]
		return
	}
	dead := lv.blocks[0].off
	if int(dead) <= len(lv.keys)/2 {
		return
	}
	n := copy(lv.keys, lv.keys[dead:])
	copy(lv.counts, lv.counts[dead:])
	lv.keys, lv.counts = lv.keys[:n], lv.counts[:n]
	for j := range lv.blocks {
		lv.blocks[j].off -= dead
	}
}

// run returns block i of level l: its counters and its total.
func (h *HeavyHitters) run(l, i int) ([]uint64, []float64, float64) {
	lv := &h.lv[l]
	if i == len(lv.blocks)-1 {
		keys, counts := lv.live.Counters()
		return keys, counts, lv.live.Total()
	}
	b := &lv.blocks[i]
	return lv.keys[b.off : b.off+b.n], lv.counts[b.off : b.off+b.n], b.total
}

// cover returns the blocks of a dyadic cover of (from, to]: greedy
// coarsest-first, at most two blocks per level, plus (possibly) one finest
// block straddling each boundary, counted fully. The result is good until
// the next call.
func (h *HeavyHitters) cover(from, to float64) []hhRef {
	out := h.cov[:0]
	fine := h.width[h.levels-1]
	p := from
	for p < to-1e-9 {
		placed := false
		for l, d := range h.width {
			idx := int64(math.Ceil((p - 1e-9) / d))
			start := float64(idx) * d
			if start-p < fine && start+d <= to+1e-9 {
				if i := h.findBlock(l, idx); i >= 0 {
					out = append(out, hhRef{l, i})
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
			if i := h.findBlock(h.levels-1, idx); i >= 0 {
				out = append(out, hhRef{h.levels - 1, i})
			}
			p = float64(idx+1) * fine
		}
	}
	h.cov = out
	return out
}

// findBlock locates the block with the given index at level l, or -1.
func (h *HeavyHitters) findBlock(l int, idx int64) int {
	bs := h.lv[l].blocks
	i := sort.Search(len(bs), func(i int) bool { return bs[i].idx >= idx })
	if i < len(bs) && bs[i].idx == idx {
		return i
	}
	return -1
}

// WindowTotal estimates the total weight in (t−window, t].
func (h *HeavyHitters) WindowTotal(t float64) float64 {
	return h.totalEH.WindowSum(t)
}

// Query returns the items whose estimated weight within (t−window, t] is at
// least phi times the window total, in decreasing order of estimate.
func (h *HeavyHitters) Query(t, phi float64) []sketch.ItemCount {
	if h.merged == nil {
		h.merged = sketch.NewMisraGries(h.k)
	}
	merged := h.merged
	merged.Reset()
	for _, r := range h.cover(t-h.window, t) {
		merged.MergeCounters(h.run(r.l, r.i))
	}
	total := h.WindowTotal(t)
	// Misra–Gries underestimates by at most total/(k+1); compensate when
	// thresholding so that no true heavy hitter is missed.
	slack := merged.Total() / float64(merged.K()+1)
	thresh := phi*total - slack
	var out []sketch.ItemCount
	keys, counts := merged.Counters()
	for i, c := range counts {
		if c >= thresh {
			out = append(out, sketch.ItemCount{Key: keys[i], Count: c, Err: slack})
		}
	}
	sketch.SortItems(out)
	return out
}

// DecayedQuery returns heavy hitters under an arbitrary backward decay
// function f at query time t: candidates are drawn from the finest-level
// blocks, each block's contribution weighted by f at the block's age span
// midpoint (the same Cohen–Strauss combination BackwardSum uses). It
// returns items whose estimated decayed count reaches phi times the total
// decayed count, in decreasing order of estimate, equal ones by key.
func (h *HeavyHitters) DecayedQuery(f decay.AgeFunc, t, phi float64) []sketch.ItemCount {
	f0 := f.Eval(0)
	l := h.levels - 1
	d := h.width[l]
	counts := make(map[uint64]float64)
	var total float64
	var slack float64
	for i, b := range h.lv[l].blocks {
		start, end := float64(b.idx)*d, float64(b.idx+1)*d
		if end <= t-h.window || start > t {
			continue
		}
		aNew, aOld := t-end, t-start
		if aNew < 0 {
			aNew = 0
		}
		w := (f.Eval(aNew) + f.Eval(aOld)) / 2 / f0
		if w == 0 {
			continue
		}
		keys, cs, btotal := h.run(l, i)
		for j, key := range keys {
			counts[key] += cs[j] * w
		}
		total += btotal * w
		slack += btotal / float64(h.k+1) * w
	}
	thresh := phi*total - slack
	var out []sketch.ItemCount
	for k, c := range counts {
		if c >= thresh {
			out = append(out, sketch.ItemCount{Key: k, Count: c, Err: slack})
		}
	}
	sketch.SortItems(out)
	return out
}

// SizeBytes reports the memory held — the space series of Figures 4(c)
// and 4(d): the header, every level's arena and block headers at their
// capacities, the live summaries, Query's merge target and the window-total
// histogram.
func (h *HeavyHitters) SizeBytes() int {
	s := int(unsafe.Sizeof(*h)) + h.totalEH.SizeBytes() +
		cap(h.width)*8 + cap(h.lv)*int(unsafe.Sizeof(hhLevel{})) + cap(h.cov)*int(unsafe.Sizeof(hhRef{}))
	if h.merged != nil {
		s += h.merged.SizeBytes()
	}
	for l := range h.lv {
		lv := &h.lv[l]
		s += cap(lv.blocks)*int(unsafe.Sizeof(hhBlock{})) + (cap(lv.keys)+cap(lv.counts))*8 + lv.live.SizeBytes()
	}
	return s
}

// Blocks returns the total number of retained blocks (diagnostics).
func (h *HeavyHitters) Blocks() int {
	n := 0
	for l := range h.lv {
		n += len(h.lv[l].blocks)
	}
	return n
}
