package sketch

import (
	"math"

	"forwarddecay/decay"
)

// scanExpHistogram is the pre-optimisation Exponential Histogram — a slice
// of buckets in time order, every over-full class found by scanning all of
// them and re-deriving floor(log2(sum)) — preserved verbatim as a
// differential oracle: the linked, class-indexed ExpHistogram must hold the
// same bucket sequence (sum, count, oldest, newest, bit for bit) and answer
// every query identically on any tape of weights ≥ 1. Weights below 1 are
// outside the comparison: here a merge landing in (0, 1) has a negative
// class, which cascade mistakes for its "not found" sentinel and stops
// short of restoring the per-class bound
// (TestExpHistogramFractionalWeights covers that range on its own).
type scanExpHistogram struct {
	maxPerClass int
	window      float64      // expiry horizon; <= 0 means unbounded
	buckets     []scanBucket // oldest first
	last        float64      // newest timestamp observed
	count       int64        // items currently represented (approx., for stats)
	classCount  map[int]int
}

type scanBucket struct {
	sum            float64
	count          float64
	oldest, newest float64 // timestamps of the bucket's extreme items
}

// newScanExpHistogram returns a histogram with relative error epsilon over a
// sliding window of the given length (in time units); window <= 0 keeps all
// buckets forever (landmark mode). It panics unless 0 < epsilon < 1.
func newScanExpHistogram(epsilon float64, window float64) *scanExpHistogram {
	if !(epsilon > 0 && epsilon < 1) {
		panic("sketch: scanExpHistogram epsilon must be in (0,1)")
	}
	// ceil(1/eps)/2+2 buckets per class bounds the half-oldest-bucket error
	// by epsilon of the window sum.
	m := int(math.Ceil(1/epsilon))/2 + 2
	return &scanExpHistogram{maxPerClass: m, window: window, classCount: make(map[int]int, 24)}
}

// Len returns the current number of buckets.
func (h *scanExpHistogram) Len() int { return len(h.buckets) }

// Insert adds an item with the given timestamp and positive value (use 1
// for counting). Non-positive values are ignored.
func (h *scanExpHistogram) Insert(ts float64, value float64) {
	if value <= 0 {
		return
	}
	if ts < h.last {
		ts = h.last
	}
	h.last = ts
	h.buckets = append(h.buckets, scanBucket{sum: value, count: 1, oldest: ts, newest: ts})
	h.count++
	c := scanSizeClass(value)
	h.classCount[c]++
	h.cascade(c)
	h.expire(ts)
}

// scanSizeClass buckets sums geometrically: class j holds sums in [2^j, 2^(j+1)).
func scanSizeClass(sum float64) int {
	return int(math.Floor(math.Log2(sum)))
}

// cascade restores the per-class bucket bound after class c gained a
// bucket, merging the two oldest buckets of an over-full class; the merged
// bucket lands in a higher class, which may cascade upward.
func (h *scanExpHistogram) cascade(c int) {
	for h.classCount[c] > h.maxPerClass {
		// Merge the two oldest buckets of class c.
		first := -1
		merged := -1
		for i := range h.buckets {
			if scanSizeClass(h.buckets[i].sum) != c {
				continue
			}
			if first < 0 {
				first = i
				continue
			}
			b := &h.buckets[first]
			b.sum += h.buckets[i].sum
			b.count += h.buckets[i].count
			if h.buckets[i].newest > b.newest {
				b.newest = h.buckets[i].newest
			}
			if h.buckets[i].oldest < b.oldest {
				b.oldest = h.buckets[i].oldest
			}
			h.buckets = append(h.buckets[:i], h.buckets[i+1:]...)
			merged = scanSizeClass(b.sum)
			break
		}
		if merged < 0 { // bookkeeping drift; recount defensively
			h.recount()
			return
		}
		h.classCount[c] -= 2
		if h.classCount[c] == 0 {
			delete(h.classCount, c)
		}
		h.classCount[merged]++
		c = merged
	}
}

// recount rebuilds the class counts from scratch.
func (h *scanExpHistogram) recount() {
	for k := range h.classCount {
		delete(h.classCount, k)
	}
	for _, b := range h.buckets {
		h.classCount[scanSizeClass(b.sum)]++
	}
}

// expire drops buckets whose newest item has left the window.
func (h *scanExpHistogram) expire(now float64) {
	if h.window <= 0 {
		return
	}
	cutoff := now - h.window
	i := 0
	for i < len(h.buckets) && h.buckets[i].newest < cutoff {
		h.count -= int64(h.buckets[i].count)
		c := scanSizeClass(h.buckets[i].sum)
		h.classCount[c]--
		if h.classCount[c] == 0 {
			delete(h.classCount, c)
		}
		i++
	}
	if i > 0 {
		h.buckets = h.buckets[i:]
	}
}

// WindowSum estimates the sum of values of items with timestamp in
// (t − window, t], with relative error at most epsilon. With unbounded
// window it returns the total sum (exactly).
func (h *scanExpHistogram) WindowSum(t float64) float64 {
	h.expire(t)
	var s float64
	for _, b := range h.buckets {
		s += b.sum
	}
	if h.window > 0 && len(h.buckets) > 0 && h.buckets[0].oldest < t-h.window {
		// The oldest bucket straddles the window boundary: count half of it,
		// the classical EH estimate.
		s -= h.buckets[0].sum / 2
	}
	return s
}

// WindowCount estimates the number of items in the window, with the same
// guarantee (relative error bounds apply when items have unit values).
func (h *scanExpHistogram) WindowCount(t float64) float64 {
	h.expire(t)
	var c float64
	for _, b := range h.buckets {
		c += b.count
	}
	if h.window > 0 && len(h.buckets) > 0 && h.buckets[0].oldest < t-h.window {
		c -= h.buckets[0].count / 2
	}
	return c
}

// DecayedSum estimates the backward-decayed sum Σᵢ vᵢ·f(t−tᵢ)/f(0) for an
// arbitrary non-increasing age function f, by weighting each bucket with f
// at the midpoint of its age span (Cohen–Strauss). Accuracy degrades with
// the variation of f across a bucket; the bucket structure keeps old
// buckets' relative mass small, so the overall relative error stays
// O(epsilon) for smooth decay functions.
func (h *scanExpHistogram) DecayedSum(f decay.AgeFunc, t float64) float64 {
	h.expire(t)
	f0 := f.Eval(0)
	var s float64
	for _, b := range h.buckets {
		aNew, aOld := t-b.newest, t-b.oldest
		if aNew < 0 {
			aNew = 0
		}
		if aOld < 0 {
			aOld = 0
		}
		w := (f.Eval(aNew) + f.Eval(aOld)) / 2 / f0
		s += b.sum * w
	}
	return s
}

// DecayedCount is DecayedSum over unit values.
func (h *scanExpHistogram) DecayedCount(f decay.AgeFunc, t float64) float64 {
	h.expire(t)
	f0 := f.Eval(0)
	var s float64
	for _, b := range h.buckets {
		aNew, aOld := t-b.newest, t-b.oldest
		if aNew < 0 {
			aNew = 0
		}
		if aOld < 0 {
			aOld = 0
		}
		w := (f.Eval(aNew) + f.Eval(aOld)) / 2 / f0
		s += b.count * w
	}
	return s
}
