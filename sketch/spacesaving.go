package sketch

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// SpaceSaving is the deterministic heavy-hitters summary of Metwally,
// Agrawal and El Abbadi, in its weighted form (as analysed by Cormode, Korn
// and Tirthapura for decayed streams): each update carries an arbitrary
// positive weight, fixed at arrival. With k counters it guarantees, for
// total weight W:
//
//	true(v) ≤ Estimate(v) ≤ true(v) + W/k
//
// so with k = ⌈1/ε⌉ all items of weight ≥ φW are reported and no item of
// weight < (φ−ε)W is (Theorem 2 of the forward-decay paper).
//
// The hot path is O(1) amortised — the weighted generalisation of the
// Stream-Summary idea. Counters live in a flat slice; the only ordering the
// algorithm ever needs is the exact minimum, which is tracked by a small
// sorted window of min-candidates plus a threshold: every entry outside the
// window is known to hold at least the threshold, and counts only grow, so
// the window head (validated against its live count) is a true minimum.
// The window is recomputed by a single O(k) scan once per eviction epoch —
// when its candidates are exhausted — and between scans an eviction costs a
// couple of comparisons and at most a window-sized shift. A monitored-key
// update is a probe of the open-addressing key index and one float add;
// there is no heap, no O(log k) sift, and no per-update map maintenance.
//
// SpaceSaving is not safe for concurrent use.
type SpaceSaving struct {
	k       int
	entries []ssEntry // flat, unordered
	idx     ssIndex   // key → index in entries
	total   float64   // total weight observed

	// win is a small binary min-heap of min-candidates keyed by the count
	// recorded when each was positioned; recorded ≤ live always (counts
	// only grow). Every entry outside the window has live count ≥ thresh,
	// so the validated root is a true minimum while it stays ≤ thresh.
	// winOK marks the window usable; it is rebuilt lazily after bulk
	// rewrites (growth phase, Merge, decode) and whenever the candidates
	// run out.
	win    []minCand
	thresh float64
	winOK  bool

	mergeScratch []ssEntry // reusable union buffer for Merge
}

type ssEntry struct {
	key   uint64
	count float64 // estimated weight (upper bound on true weight)
	err   float64 // overestimation bound
}

// minCand is one min-window candidate: an entry index and the count it had
// when it was last positioned.
type minCand struct {
	idx   int32
	count float64
}

// NewSpaceSaving returns a summary with k = ⌈1/epsilon⌉ counters.
// It panics unless 0 < epsilon < 1.
func NewSpaceSaving(epsilon float64) *SpaceSaving {
	if !(epsilon > 0 && epsilon < 1) {
		panic("sketch: SpaceSaving epsilon must be in (0,1)")
	}
	return NewSpaceSavingK(int(math.Ceil(1 / epsilon)))
}

// NewSpaceSavingK returns a summary with exactly k counters. It panics if
// k < 1.
func NewSpaceSavingK(k int) *SpaceSaving {
	if k < 1 {
		panic("sketch: SpaceSaving needs at least one counter")
	}
	s := &SpaceSaving{
		k:       k,
		entries: make([]ssEntry, 0, k),
	}
	s.idx.init(k)
	return s
}

// K returns the number of counters.
func (s *SpaceSaving) K() int { return s.k }

// Total returns the total weight of all updates observed.
func (s *SpaceSaving) Total() float64 { return s.total }

// Len returns the number of monitored items.
func (s *SpaceSaving) Len() int { return len(s.entries) }

// Update adds weight w for the given key. Non-positive weights are ignored.
func (s *SpaceSaving) Update(key uint64, w float64) {
	if w <= 0 {
		return
	}
	s.total += w
	if i, ok := s.idx.get(key); ok {
		// Monitored key: counts only grow, so the window's recorded counts
		// stay sound (stale-low at worst) — no maintenance needed.
		s.entries[i].count += w
		return
	}
	if len(s.entries) < s.k {
		s.entries = append(s.entries, ssEntry{key: key, count: w})
		if 4*len(s.entries) > len(s.idx.vals) {
			// An index sized from a decoded or merged entry count, not from
			// k, doubles before it passes 1/4 load.
			s.idx.grow()
		}
		s.idx.put(key, int32(len(s.entries)-1))
		s.winOK = false // growth phase; window built at first eviction
		return
	}
	// Evict the minimum-count item: the newcomer inherits its count as the
	// overestimation error.
	m := s.minPos()
	e := &s.entries[m]
	s.idx.del(e.key)
	e.err = e.count
	e.count += w
	e.key = key
	s.idx.put(key, int32(m))
	// The window root records this entry at its pre-eviction (minimum)
	// count; reposition it under the inherited-plus-w count, or retire it
	// to the threshold-covered set if it has outgrown the window.
	if e.count >= s.thresh {
		s.popRoot()
	} else {
		s.win[0].count = e.count
		s.siftDownRoot()
	}
}

// minPos returns the index in entries of an exact minimum-count entry,
// normalizing the window root as needed. It must only be called with at
// least one entry present.
func (s *SpaceSaving) minPos() int {
	if !s.winOK {
		s.rebuildWindow()
	}
	for {
		if len(s.win) == 0 {
			s.rebuildWindow()
		}
		c := &s.win[0]
		live := s.entries[c.idx].count
		if live != c.count {
			// The root was incremented since it was recorded. Every other
			// window record is at least the root's and counts only grow, so
			// refresh the root's record (or retire it past the threshold)
			// and re-examine the new root.
			if live >= s.thresh {
				s.popRoot()
			} else {
				c.count = live
				s.siftDownRoot()
			}
			continue
		}
		if c.count <= s.thresh {
			return int(c.idx)
		}
		// Validated root above the threshold: an excluded entry could be
		// smaller, so this epoch is over.
		s.rebuildWindow()
	}
}

func (s *SpaceSaving) popRoot() {
	n := len(s.win) - 1
	s.win[0] = s.win[n]
	s.win = s.win[:n]
	if n > 1 {
		s.siftDownRoot()
	}
}

func (s *SpaceSaving) siftDownRoot() { siftDownMinCand(s.win, 0) }

// winTarget is the window size the rebuild scan aims for: big enough to
// amortise the O(k) scan over an epoch of evictions, small enough that the
// candidate heap stays a few levels deep.
func (s *SpaceSaving) winTarget() int {
	t := s.k / 4
	if t < 8 {
		t = 8
	}
	if t > 64 {
		t = 64
	}
	return t
}

// rebuildWindow starts a new eviction epoch: one pass finds the extremes of
// the live counts, a second collects every entry under an adaptive
// threshold (sized so roughly winTarget entries qualify under a uniform
// spread) into the candidate heap. The threshold records the floor that
// every excluded entry is known to hold.
func (s *SpaceSaving) rebuildWindow() {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range s.entries {
		c := s.entries[i].count
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	thresh := lo + (hi-lo)*float64(s.winTarget())/float64(len(s.entries))
	if !(thresh > lo) {
		thresh = math.Inf(1) // degenerate spread: take everything
	}
	if cap(s.win) < len(s.entries) {
		s.win = make([]minCand, 0, len(s.entries))
	}
	s.win = s.win[:0]
	for i := range s.entries {
		if c := s.entries[i].count; c < thresh {
			s.win = append(s.win, minCand{idx: int32(i), count: c})
		}
	}
	heapifyMinCand(s.win)
	s.thresh = thresh
	s.winOK = true
}

// The candidate heap is 4-ary: all four children of a node share one cache
// line (4 × 16 bytes), so a sift touches half the levels of a binary heap
// for the same fan-in of comparisons.

// heapifyMinCand builds the 4-ary min-heap on recorded counts in place.
func heapifyMinCand(w []minCand) {
	for i := (len(w) - 2) / 4; i >= 0; i-- {
		siftDownMinCand(w, i)
	}
}

func siftDownMinCand(w []minCand, i int) {
	n := len(w)
	for {
		base := 4*i + 1
		if base >= n {
			return
		}
		m := base
		end := base + 4
		if end > n {
			end = n
		}
		for j := base + 1; j < end; j++ {
			if w[j].count < w[m].count {
				m = j
			}
		}
		if w[m].count >= w[i].count {
			return
		}
		w[i], w[m] = w[m], w[i]
		i = m
	}
}

// minCount returns the exact minimum counter value.
func (s *SpaceSaving) minCount() float64 {
	return s.entries[s.minPos()].count
}

// Estimate returns the estimated weight of key and the overestimation
// bound. For a monitored key, true ∈ [count−err, count]. For an unmonitored
// key the estimate is the minimum counter value (an upper bound on its true
// weight), with err equal to the same value.
func (s *SpaceSaving) Estimate(key uint64) (count, err float64) {
	if i, ok := s.idx.get(key); ok {
		return s.entries[i].count, s.entries[i].err
	}
	if len(s.entries) < s.k || len(s.entries) == 0 {
		return 0, 0
	}
	m := s.minCount()
	return m, m
}

// ErrorBound returns the maximum possible overestimation across all items,
// i.e. the minimum counter value when the summary is full (at most W/k).
func (s *SpaceSaving) ErrorBound() float64 {
	if len(s.entries) < s.k || len(s.entries) == 0 {
		return 0
	}
	return s.minCount()
}

// HeavyHitters returns all monitored items whose estimated weight is at
// least phi times the total weight, in decreasing order of estimate. Every
// item of true weight ≥ phi·Total is included; no item of true weight
// < (phi − 1/k)·Total is.
func (s *SpaceSaving) HeavyHitters(phi float64) []ItemCount {
	thresh := phi * s.total
	var out []ItemCount
	for _, e := range s.entries {
		if e.count >= thresh {
			out = append(out, ItemCount{Key: e.key, Count: e.count, Err: e.err})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// Top returns the n monitored items with the largest estimates, in
// decreasing order.
func (s *SpaceSaving) Top(n int) []ItemCount {
	out := make([]ItemCount, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, ItemCount{Key: e.key, Count: e.count, Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Scale multiplies every counter, error bound and the total by f. It is
// the linear rescaling pass of §VI-A of the paper, used when rebasing
// exponential forward decay onto a new landmark. The factor must be finite
// and positive: NaN or ±Inf would poison every counter at once, and a
// non-positive factor erases the summary, so both return *ScaleError and
// leave the state untouched.
func (s *SpaceSaving) Scale(f float64) error {
	if err := checkScale("SpaceSaving", f); err != nil {
		return err
	}
	for i := range s.entries {
		s.entries[i].count *= f
		s.entries[i].err *= f
	}
	if s.winOK {
		// Uniform scaling preserves the heap order, the recorded ≤ live
		// invariant and the threshold floor, so the epoch survives.
		for i := range s.win {
			s.win[i].count *= f
		}
		s.thresh *= f
	}
	s.total *= f
	return nil
}

// Merge folds another summary into this one (the other is left unchanged).
// Following the mergeable-summaries construction, counts and error bounds
// of shared keys add, the union is truncated to the k largest counters, and
// the guarantee degrades to the sum of the two errors: the merged estimates
// satisfy true(v) ≤ est(v) ≤ true(v) + (W₁+W₂)/k. Merge reuses the
// receiver's scratch storage, so repeated merges (the distributed
// coordinator path) stop allocating once warm.
func (s *SpaceSaving) Merge(o *SpaceSaving) {
	if o == nil || len(o.entries) == 0 {
		return
	}
	// Unmonitored keys in one summary could have weight up to its minimum
	// counter there; fold that in as additional error on the other side's
	// entries for a sound (if conservative) bound.
	sMin, oMin := 0.0, 0.0
	if len(s.entries) == s.k {
		sMin = s.minCount()
	}
	if len(o.entries) == o.k {
		oMin = o.entries[o.minPos()].count
	}
	union := s.mergeScratch[:0]
	if cap(union) < len(s.entries)+len(o.entries) {
		union = make([]ssEntry, 0, len(s.entries)+len(o.entries))
	}
	for _, e := range s.entries {
		if j, shared := o.idx.get(e.key); shared {
			oe := o.entries[j]
			union = append(union, ssEntry{key: e.key, count: e.count + oe.count, err: e.err + oe.err})
		} else {
			union = append(union, ssEntry{key: e.key, count: e.count + oMin, err: e.err + oMin})
		}
	}
	for _, e := range o.entries {
		if _, shared := s.idx.get(e.key); shared {
			continue // already folded above
		}
		union = append(union, ssEntry{key: e.key, count: e.count + sMin, err: e.err + sMin})
	}
	slices.SortFunc(union, func(a, b ssEntry) int {
		switch {
		case a.count > b.count:
			return -1
		case a.count < b.count:
			return 1
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		default:
			return 0
		}
	})
	keep := union
	if len(keep) > s.k {
		keep = keep[:s.k]
	}
	s.entries = append(s.entries[:0], keep...)
	s.mergeScratch = union[:0]
	s.rebuildIndex()
	s.total += o.total
}

// Clone returns a deep copy of the summary.
func (s *SpaceSaving) Clone() *SpaceSaving {
	c := &SpaceSaving{
		k:       s.k,
		entries: append([]ssEntry(nil), s.entries...),
		total:   s.total,
	}
	c.idx.clone(&s.idx)
	return c
}

// Reset clears the summary for reuse, retaining its capacity.
func (s *SpaceSaving) Reset() {
	s.entries = s.entries[:0]
	s.idx.clear()
	s.total = 0
	s.winOK = false
}

// SizeBytes estimates the in-memory footprint: 24 bytes per entry, 12 per
// key-index slot, 16 per min-window candidate, plus the merge scratch and
// the fixed header.
func (s *SpaceSaving) SizeBytes() int {
	return 96 + cap(s.entries)*24 + len(s.idx.vals)*12 + cap(s.win)*16 + cap(s.mergeScratch)*24
}

// rebuildIndex refills the key index after a bulk entry rewrite (Merge,
// decode) and invalidates the min-window. The index is sized from the
// entries actually present, never from k: a decoded k is only bounded by a
// plausibility check, and Update grows the index as the summary fills.
func (s *SpaceSaving) rebuildIndex() {
	s.idx.init(len(s.entries))
	for i := range s.entries {
		s.idx.put(s.entries[i].key, int32(i))
	}
	s.winOK = false
}

// ssIndex is a linear-probing open-addressing index from key to entry slot,
// with backward-shift deletion so probe chains stay dense without
// tombstones. At four slots per counter the load factor never exceeds ~1/4,
// keeping probes short on the eviction-heavy path where every miss costs a
// delete plus an insert. A slot holds its entry index plus one, so a zeroed
// table is an empty one and clear is a memory clear.
type ssIndex struct {
	keys []uint64
	vals []int32 // entry index + 1, or 0 for an empty slot
	mask uint64
}

// init (re)allocates for capacity k, clearing any existing contents.
func (t *ssIndex) init(k int) {
	n := 16
	if k > 4 {
		n = 1 << bits.Len(uint(k)*4-1)
	}
	if len(t.vals) == n {
		t.clear()
		return
	}
	t.keys = make([]uint64, n)
	t.vals = make([]int32, n)
	t.mask = uint64(n - 1)
}

// grow doubles the table and reinserts every key.
func (t *ssIndex) grow() {
	keys, vals := t.keys, t.vals
	t.keys = make([]uint64, 2*len(keys))
	t.vals = make([]int32, 2*len(vals))
	t.mask = uint64(len(t.vals) - 1)
	for i, v := range vals {
		if v != 0 {
			t.put(keys[i], v-1)
		}
	}
}

func (t *ssIndex) clear() { clear(t.vals) }

// slot returns the slot holding key, or else the empty slot where put
// would place it; at reads a found slot's entry index, set fills an empty
// one.
func (t *ssIndex) slot(key uint64) (i uint64, found bool) {
	i = ssHash(key) & t.mask
	for t.vals[i] != 0 {
		if t.keys[i] == key {
			return i, true
		}
		i = (i + 1) & t.mask
	}
	return i, false
}

func (t *ssIndex) at(i uint64) int32 { return t.vals[i] - 1 }

func (t *ssIndex) set(i uint64, key uint64, val int32) { t.keys[i], t.vals[i] = key, val+1 }

func (t *ssIndex) clone(o *ssIndex) {
	t.keys = append([]uint64(nil), o.keys...)
	t.vals = append([]int32(nil), o.vals...)
	t.mask = o.mask
}

// ssHash is a 64-bit finalizer (splitmix-style) spreading keys across slots.
func ssHash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

func (t *ssIndex) get(key uint64) (int32, bool) {
	i := ssHash(key) & t.mask
	for {
		v := t.vals[i]
		if v == 0 {
			return 0, false
		}
		if t.keys[i] == key {
			return v - 1, true
		}
		i = (i + 1) & t.mask
	}
}

func (t *ssIndex) put(key uint64, val int32) {
	i := ssHash(key) & t.mask
	for t.vals[i] != 0 {
		if t.keys[i] == key {
			t.vals[i] = val + 1
			return
		}
		i = (i + 1) & t.mask
	}
	t.keys[i] = key
	t.vals[i] = val + 1
}

func (t *ssIndex) del(key uint64) {
	i := ssHash(key) & t.mask
	for {
		if t.vals[i] == 0 {
			return
		}
		if t.keys[i] == key {
			break
		}
		i = (i + 1) & t.mask
	}
	// Backward-shift: pull each displaced follower over the hole unless the
	// hole sits before its home slot in probe order.
	j := i
	for {
		j = (j + 1) & t.mask
		if t.vals[j] == 0 {
			break
		}
		h := ssHash(t.keys[j]) & t.mask
		if (j-h)&t.mask >= (j-i)&t.mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.vals[i] = 0
}
