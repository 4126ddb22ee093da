package sketch

import "sort"

// StreamSummary is the unary-optimised SpaceSaving data structure of
// Metwally et al.: a doubly-linked list of count buckets, each holding the
// monitored items that share that count. Unweighted (unary) updates move an
// item to the adjacent bucket in O(1), which is why the paper's Figure 5
// uses it as the fast "Unary HH" baseline against the weighted, heap-based
// SpaceSaving.
//
// StreamSummary is not safe for concurrent use.
type StreamSummary struct {
	k     int
	items map[uint64]*ssNode
	head  *ssBucket // bucket with the minimum count
	total uint64
}

type ssBucket struct {
	count      uint64
	prev, next *ssBucket
	first      *ssNode // head of this bucket's item list
	n          int     // number of items in the bucket
}

type ssNode struct {
	key        uint64
	err        uint64
	b          *ssBucket
	prev, next *ssNode
}

// NewStreamSummary returns a summary with k counters. It panics if k < 1.
func NewStreamSummary(k int) *StreamSummary {
	if k < 1 {
		panic("sketch: StreamSummary needs at least one counter")
	}
	return &StreamSummary{k: k, items: make(map[uint64]*ssNode, k)}
}

// Len returns the number of monitored items.
func (s *StreamSummary) Len() int { return len(s.items) }

// Update counts one occurrence of key, in O(1).
func (s *StreamSummary) Update(key uint64) {
	s.total++
	if n, ok := s.items[key]; ok {
		s.increment(n)
		return
	}
	if len(s.items) < s.k {
		n := &ssNode{key: key}
		s.items[key] = n
		s.attach(n, s.bucketWithCount(1, nil))
		return
	}
	// Evict one item from the minimum bucket and recycle its node.
	n := s.head.first
	delete(s.items, n.key)
	n.key = key
	n.err = s.head.count
	s.items[key] = n
	s.increment(n)
}

// increment moves node n from its bucket to the bucket with count+1.
func (s *StreamSummary) increment(n *ssNode) {
	b := n.b
	s.detach(n)
	next := b.next
	if next == nil || next.count != b.count+1 {
		next = s.insertAfter(b, b.count+1)
	}
	if b.n == 0 {
		s.removeBucket(b)
	}
	s.attach(n, next)
}

// bucketWithCount returns the bucket holding the given count, creating it
// after prev (or at the head when prev is nil) if needed. It is only used
// for count 1, which always belongs at the head.
func (s *StreamSummary) bucketWithCount(count uint64, prev *ssBucket) *ssBucket {
	if s.head != nil && s.head.count == count {
		return s.head
	}
	b := &ssBucket{count: count}
	b.next = s.head
	if s.head != nil {
		s.head.prev = b
	}
	s.head = b
	return b
}

func (s *StreamSummary) insertAfter(b *ssBucket, count uint64) *ssBucket {
	nb := &ssBucket{count: count, prev: b, next: b.next}
	if b.next != nil {
		b.next.prev = nb
	}
	b.next = nb
	return nb
}

func (s *StreamSummary) removeBucket(b *ssBucket) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		s.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
}

func (s *StreamSummary) attach(n *ssNode, b *ssBucket) {
	n.b = b
	n.prev = nil
	n.next = b.first
	if b.first != nil {
		b.first.prev = n
	}
	b.first = n
	b.n++
}

func (s *StreamSummary) detach(n *ssNode) {
	b := n.b
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.first = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	n.prev, n.next, n.b = nil, nil, nil
	b.n--
}

// Estimate returns the estimated count of key and its overestimation bound,
// with the same semantics as SpaceSaving.Estimate.
func (s *StreamSummary) Estimate(key uint64) (count, err uint64) {
	if n, ok := s.items[key]; ok {
		return n.b.count, n.err
	}
	if len(s.items) < s.k || s.head == nil {
		return 0, 0
	}
	return s.head.count, s.head.count
}

// HeavyHitters returns all monitored items with estimated count at least
// phi times the total, in decreasing order of estimate.
func (s *StreamSummary) HeavyHitters(phi float64) []ItemCount {
	thresh := phi * float64(s.total)
	var out []ItemCount
	for b := s.head; b != nil; b = b.next {
		if float64(b.count) < thresh {
			continue
		}
		for n := b.first; n != nil; n = n.next {
			out = append(out, ItemCount{Key: n.key, Count: float64(b.count), Err: float64(n.err)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// SizeBytes estimates the in-memory footprint: one node (~48 B) and a map
// slot (~48 B) per monitored item, plus bucket headers.
func (s *StreamSummary) SizeBytes() int {
	buckets := 0
	for b := s.head; b != nil; b = b.next {
		buckets++
	}
	return 48 + len(s.items)*(48+48) + buckets*40
}
