package sketch

import (
	"container/heap"

	"forwarddecay/internal/core"
)

// KMV is a k-minimum-values distinct-count sketch: it retains the k smallest
// 64-bit hash values of the keys inserted and estimates the number of
// distinct keys as (k−1)/v(k), where v(k) is the k-th smallest hash mapped
// to (0,1). The standard deviation of the estimate is about D/√(k−2).
//
// KMV is mergeable (union semantics) and is the building block of the
// Dominance estimator. It is not safe for concurrent use.
type KMV struct {
	k   int
	h   maxHeap             // the k smallest hashes, max at root
	mem map[uint64]struct{} // membership of retained hashes
}

type maxHeap []uint64

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return h[i] > h[j] }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(uint64)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewKMV returns a sketch retaining k minimum hash values. Estimates are
// meaningful for k ≥ 3; it panics if k < 1.
func NewKMV(k int) *KMV {
	if k < 1 {
		panic("sketch: KMV needs k >= 1")
	}
	return &KMV{k: k, mem: make(map[uint64]struct{}, k)}
}

// Insert adds a key (hashed internally).
func (s *KMV) Insert(key uint64) { s.InsertHash(core.Mix64(key ^ 0x5bf03635ea3eddcb)) }

// InsertHash adds a pre-hashed value; used when merging sketches.
func (s *KMV) InsertHash(h uint64) {
	if _, ok := s.mem[h]; ok {
		return
	}
	if len(s.h) < s.k {
		s.mem[h] = struct{}{}
		heap.Push(&s.h, h)
		return
	}
	if h >= s.h[0] {
		return
	}
	delete(s.mem, s.h[0])
	s.mem[h] = struct{}{}
	s.h[0] = h
	heap.Fix(&s.h, 0)
}

// Estimate returns the estimated number of distinct keys inserted.
func (s *KMV) Estimate() float64 {
	if len(s.h) < s.k {
		return float64(len(s.h)) // fewer than k distinct hashes: exact
	}
	return float64(s.k-1) / core.U64ToUnit(s.h[0])
}

// Merge folds another sketch into this one (union of key sets); the other
// sketch is left unchanged. Sketches may have different k; the result keeps
// this sketch's k.
func (s *KMV) Merge(o *KMV) {
	if o == nil {
		return
	}
	for _, h := range o.h {
		s.InsertHash(h)
	}
}

// Clone returns a deep copy of the sketch.
func (s *KMV) Clone() *KMV {
	c := &KMV{k: s.k, h: append(maxHeap(nil), s.h...), mem: make(map[uint64]struct{}, len(s.mem))}
	for h := range s.mem {
		c.mem[h] = struct{}{}
	}
	return c
}

// Len returns the number of retained hashes.
func (s *KMV) Len() int { return len(s.h) }
