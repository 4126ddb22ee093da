package sketch

import (
	"math"
	"unsafe"

	"forwarddecay/decay"
)

// ExpHistogram is the sliding-window summary of Datar, Gionis, Indyk and
// Motwani, generalized to sums of positive values: it maintains a sequence
// of buckets whose sums are kept in geometric size classes, at most
// maxPerClass per class, so that the window sum (and count) is recovered
// with relative error at most epsilon using O((1/ε)·log(εW)) buckets.
//
// Following the observation of Cohen and Strauss — which the paper's
// evaluation uses as the general backward-decay competitor — the same bucket
// structure answers a sum decayed by an arbitrary non-increasing age
// function f: each bucket's sum is weighted by f evaluated at the bucket's
// age (DecayedSum). This flexibility is what makes the structure more
// expensive than forward decay in Figure 2, and the gap is in the state, not
// in the insert: an insert links one node, performs one merge on average
// and pops the expired heads — O(1) amortised, no scan and no logarithm —
// but a group holds kilobytes of 64-byte buckets, growing with 1/ε, against
// a single 8-byte scaled sum, and a decayed query walks every one of them.
//
// Timestamps must be non-decreasing (the classical EH requirement); earlier
// timestamps are clamped. ExpHistogram is not safe for concurrent use.
type ExpHistogram struct {
	maxPerClass int32
	window      float64   // expiry horizon; <= 0 means unbounded
	last        float64   // newest timestamp observed
	seq         uint64    // arrivals so far; stamps each new bucket
	nodes       []ehNode  // the pool; nodes[0] is the time list's sentinel
	free        int32     // head of the free list (chained through next), 0 if none
	live        int32     // buckets in the time list
	classes     []ehClass // classes[c-classLo] is size class c
	classLo     int
}

// ehNode is one bucket. It sits in two doubly linked lists threaded through
// the pool by index, 0 meaning "none": the time list (oldest first, closed
// into a ring by nodes[0]) and the list of its size class. Three invariants
// make every structural step O(1):
//
//   - time order is position order: a new bucket is linked at the tail, and
//     a merged bucket stays where the older of the pair was, so seq — the
//     arrival rank of the oldest item folded in — increases along the list;
//   - each class list is the subsequence of the time list holding that
//     class, in the same order, so the two oldest buckets of a class are its
//     list's first two and the time list's head is its own class's oldest;
//   - class is derived from sum once, when sum is set.
type ehNode struct {
	sum            float64
	count          float64
	oldest, newest float64 // timestamps of the bucket's extreme items
	seq            uint64
	prev, next     int32 // time list
	cprev, cnext   int32 // class list
	class          int32
}

type ehClass struct{ head, tail, n int32 }

// NewExpHistogram returns a histogram with relative error epsilon over a
// sliding window of the given length (in time units); window <= 0 keeps all
// buckets forever (landmark mode). It panics unless 0 < epsilon < 1.
func NewExpHistogram(epsilon float64, window float64) *ExpHistogram {
	if !(epsilon > 0 && epsilon < 1) {
		panic("sketch: ExpHistogram epsilon must be in (0,1)")
	}
	// ceil(1/eps)/2+2 buckets per class bounds the half-oldest-bucket error
	// by epsilon of the window sum.
	m := int(math.Ceil(1/epsilon))/2 + 2
	return &ExpHistogram{maxPerClass: int32(m), window: window, nodes: make([]ehNode, 1)}
}

// Reset empties the histogram, keeping its node pool and class table: it
// afterwards answers exactly as a new one would.
func (h *ExpHistogram) Reset() {
	h.last, h.seq, h.free, h.live = 0, 0, 0, 0
	h.nodes = h.nodes[:1]
	h.nodes[0] = ehNode{}
	h.classes, h.classLo = h.classes[:0], 0
}

// Len returns the current number of buckets.
func (h *ExpHistogram) Len() int { return int(h.live) }

// Insert adds an item with the given timestamp and positive value (use 1
// for counting). Non-positive values are ignored.
func (h *ExpHistogram) Insert(ts float64, value float64) {
	if value <= 0 {
		return
	}
	if ts < h.last {
		ts = h.last
	}
	h.last = ts
	i := h.free
	if i != 0 {
		h.free = h.nodes[i].next
	} else {
		i = int32(len(h.nodes))
		h.nodes = append(h.nodes, ehNode{})
	}
	h.seq++
	tail := h.nodes[0].prev
	h.nodes[i] = ehNode{sum: value, count: 1, oldest: ts, newest: ts, seq: h.seq, prev: tail}
	h.nodes[tail].next = i
	h.nodes[0].prev = i
	h.live++
	c := sizeClass(value)
	h.classLink(i, c) // the newest bucket of all is the newest of its class
	h.cascade(c)
	h.expire(ts)
}

// sizeClass buckets sums geometrically: class j holds sums in [2^j, 2^(j+1)).
// It reads the exponent, which is exact; floor(log2(sum)) rounds sums just
// below a power of two up into the wrong class.
func sizeClass(sum float64) int {
	_, e := math.Frexp(sum)
	return e - 1
}

// classAt returns class c's entry, extending the table to reach it; the
// pointer is good until the next call.
func (h *ExpHistogram) classAt(c int) *ehClass {
	if len(h.classes) == 0 {
		h.classLo = c
	}
	if c < h.classLo {
		// Shift the table up to make room below, in place when its
		// capacity allows (a Reset table keeps it).
		n, grown := len(h.classes), h.classes
		if want := n + h.classLo - c; want <= cap(grown) {
			grown = grown[:want]
		} else {
			grown = make([]ehClass, want)
		}
		copy(grown[h.classLo-c:], h.classes[:n])
		clear(grown[:h.classLo-c])
		h.classes, h.classLo = grown, c
	}
	for c-h.classLo >= len(h.classes) {
		h.classes = append(h.classes, ehClass{})
	}
	return &h.classes[c-h.classLo]
}

// classLink files node i under class c, keeping the class list in time
// order. It looks for i's place from both ends at once, so the cost is twice
// the distance to the nearer end: zero steps for a new arrival (the newest
// bucket of all), and in practice for a merged bucket too — on a unit-weight
// stream older buckets are never smaller, so it is the newest of the class
// above, and below the mode of a weighted stream the class above turns over
// faster, so it is the oldest. It is never more than the class holds.
func (h *ExpHistogram) classLink(i int32, c int) {
	cl := h.classAt(c)
	n := &h.nodes[i]
	// after and before close in on i's place from the two ends: everything
	// beyond after arrived later than i, everything ahead of before earlier.
	after, before := cl.tail, cl.head
	for after != 0 && h.nodes[after].seq > n.seq && h.nodes[before].seq < n.seq {
		after, before = h.nodes[after].cprev, h.nodes[before].cnext
	}
	if after != 0 {
		if h.nodes[after].seq > n.seq { // before found the place first
			after = h.nodes[before].cprev
		} else {
			before = h.nodes[after].cnext
		}
	}
	if after != 0 {
		h.nodes[after].cnext = i
	} else {
		cl.head = i
	}
	if before != 0 {
		h.nodes[before].cprev = i
	} else {
		cl.tail = i
	}
	n.class, n.cprev, n.cnext = int32(c), after, before
	cl.n++
}

// classPop unlinks and returns the oldest bucket of class c.
func (h *ExpHistogram) classPop(c int) int32 {
	cl := &h.classes[c-h.classLo]
	i := cl.head
	cl.head = h.nodes[i].cnext
	if cl.head != 0 {
		h.nodes[cl.head].cprev = 0
	} else {
		cl.tail = 0
	}
	cl.n--
	return i
}

// release takes node i, already out of its class list, out of the time list
// and returns it to the pool.
func (h *ExpHistogram) release(i int32) {
	n := &h.nodes[i]
	h.nodes[n.prev].next = n.next
	h.nodes[n.next].prev = n.prev
	n.next = h.free
	h.free = i
	h.live--
}

// cascade restores the per-class bucket bound after class c gained a
// bucket, merging the two oldest buckets of an over-full class into the
// older one's place; the merged bucket lands in the class above, which may
// cascade upward.
func (h *ExpHistogram) cascade(c int) {
	for h.classes[c-h.classLo].n > h.maxPerClass {
		a, b := h.classPop(c), h.classPop(c)
		older, younger := &h.nodes[a], &h.nodes[b]
		older.sum += younger.sum
		older.count += younger.count
		if younger.newest > older.newest {
			older.newest = younger.newest
		}
		if younger.oldest < older.oldest {
			older.oldest = younger.oldest
		}
		h.release(b)
		c = sizeClass(older.sum)
		h.classLink(a, c)
	}
}

// expire drops buckets whose newest item has left the window.
func (h *ExpHistogram) expire(now float64) {
	if h.window <= 0 {
		return
	}
	cutoff := now - h.window
	for i := h.nodes[0].next; i != 0 && h.nodes[i].newest < cutoff; i = h.nodes[0].next {
		h.classPop(int(h.nodes[i].class))
		h.release(i)
	}
}

// WindowSum estimates the sum of values of items with timestamp in
// (t − window, t], with relative error at most epsilon. With unbounded
// window it returns the total sum (exactly).
func (h *ExpHistogram) WindowSum(t float64) float64 {
	h.expire(t)
	var s float64
	for i := h.nodes[0].next; i != 0; i = h.nodes[i].next {
		s += h.nodes[i].sum
	}
	if head := &h.nodes[h.nodes[0].next]; h.window > 0 && h.live > 0 && head.oldest < t-h.window {
		// The oldest bucket straddles the window boundary: count half of it,
		// the classical EH estimate.
		s -= head.sum / 2
	}
	return s
}

// WindowCount estimates the number of items in the window, with the same
// guarantee (relative error bounds apply when items have unit values).
func (h *ExpHistogram) WindowCount(t float64) float64 {
	h.expire(t)
	var c float64
	for i := h.nodes[0].next; i != 0; i = h.nodes[i].next {
		c += h.nodes[i].count
	}
	if head := &h.nodes[h.nodes[0].next]; h.window > 0 && h.live > 0 && head.oldest < t-h.window {
		c -= head.count / 2
	}
	return c
}

// DecayedSum estimates the backward-decayed sum Σᵢ vᵢ·f(t−tᵢ)/f(0) for an
// arbitrary non-increasing age function f, by weighting each bucket with f
// at the midpoint of its age span (Cohen–Strauss). Accuracy degrades with
// the variation of f across a bucket; the bucket structure keeps old
// buckets' relative mass small, so the overall relative error stays
// O(epsilon) for smooth decay functions.
func (h *ExpHistogram) DecayedSum(f decay.AgeFunc, t float64) float64 {
	h.expire(t)
	f0 := f.Eval(0)
	var s float64
	for i := h.nodes[0].next; i != 0; i = h.nodes[i].next {
		b := &h.nodes[i]
		s += b.sum * ageWeight(f, f0, t, b)
	}
	return s
}

// ageWeight is f at the midpoint of bucket b's age span at time t, over f(0).
func ageWeight(f decay.AgeFunc, f0, t float64, b *ehNode) float64 {
	aNew, aOld := t-b.newest, t-b.oldest
	if aNew < 0 {
		aNew = 0
	}
	if aOld < 0 {
		aOld = 0
	}
	return (f.Eval(aNew) + f.Eval(aOld)) / 2 / f0
}

// SizeBytes reports the memory held: the header, the node pool at its
// capacity (free nodes included — they are held) and the class table.
func (h *ExpHistogram) SizeBytes() int {
	return int(unsafe.Sizeof(*h)) +
		cap(h.nodes)*int(unsafe.Sizeof(ehNode{})) +
		cap(h.classes)*int(unsafe.Sizeof(ehClass{}))
}
