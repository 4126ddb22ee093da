package sketch

import (
	"math"
	"math/bits"
	"sort"
)

// QDigest is the quantile summary of Shrivastava, Buragohain, Agrawal and
// Suri, in its weighted form: values come from the integer domain
// [0, U) (U a power of two) and each update carries an arbitrary positive
// weight, fixed at arrival — exactly what forward decay needs (Theorem 3 of
// the paper). With compression factor k it uses O(k·log U) nodes and answers
// rank and quantile queries with additive error at most (log₂U / k)·W,
// where W is the total weight; choosing k = ⌈log₂U / ε⌉ gives εW error.
//
// The digest is mergeable and supports linear Scale rescaling for landmark
// shifts. It is not safe for concurrent use.
type QDigest struct {
	logU  uint               // tree depth: domain is [0, 2^logU)
	k     int                // compression factor
	nodes map[uint64]float64 // heap-numbered tree node → weight
	total float64
	dirty float64 // weight added since the last compression

	scratch []uint64 // reusable id buffer for Compress
}

// NewQDigest returns a digest over the value domain [0, u) with target rank
// error epsilon. u is rounded up to the next power of two. It panics unless
// u ≥ 2 and 0 < epsilon < 1.
func NewQDigest(u uint64, epsilon float64) *QDigest {
	if u < 2 {
		panic("sketch: QDigest domain must have at least two values")
	}
	if !(epsilon > 0 && epsilon < 1) {
		panic("sketch: QDigest epsilon must be in (0,1)")
	}
	logU := uint(0)
	for uint64(1)<<logU < u {
		logU++
	}
	k := int(math.Ceil(float64(logU) / epsilon))
	if k < 1 {
		k = 1
	}
	return &QDigest{logU: logU, k: k, nodes: make(map[uint64]float64)}
}

// U returns the (rounded) domain size.
func (q *QDigest) U() uint64 { return 1 << q.logU }

// Total returns the total weight observed.
func (q *QDigest) Total() float64 { return q.total }

// Len returns the number of stored tree nodes.
func (q *QDigest) Len() int { return len(q.nodes) }

// Update adds weight w for value v. Values ≥ U are clamped to U−1;
// non-positive weights are ignored.
func (q *QDigest) Update(v uint64, w float64) {
	if w <= 0 {
		return
	}
	if v >= q.U() {
		v = q.U() - 1
	}
	leaf := q.U() + v // heap numbering: root = 1, leaves = U..2U-1
	q.nodes[leaf] += w
	q.total += w
	q.dirty += w
	// Compress once a constant fraction of new weight has accumulated, so
	// the amortised update cost stays low while the size bound holds.
	if q.dirty > q.total/4 && len(q.nodes) > 3*q.sizeBound()/2 {
		q.Compress()
	}
}

// sizeBound is the O(k log U) node bound the compression restores.
func (q *QDigest) sizeBound() int { return 3 * q.k * int(q.logU+1) }

// Compress restores the q-digest invariant, merging under-full sibling
// pairs into their parents bottom-up. It runs in time linear in the number
// of stored nodes — the bottom-up order comes from a counting sort over the
// 64 possible tree levels into a reusable scratch buffer, not a comparison
// sort — and allocates nothing once the scratch is warm. It is called
// automatically; callers only need it directly before serializing or
// measuring size.
func (q *QDigest) Compress() {
	if len(q.nodes) == 0 {
		q.dirty = 0
		return
	}
	thresh := q.total / float64(q.k)
	// A merge decision touches only a sibling pair and their parent, so
	// decisions within one level are independent: any child-before-parent
	// order yields the same node set as the old full descending-id sort.
	// Bucket the ids by level (= bit length), deepest level first.
	if cap(q.scratch) < len(q.nodes) {
		q.scratch = make([]uint64, 0, 2*len(q.nodes))
	}
	ids := q.scratch[:len(q.nodes)]
	var start [65]int
	for id := range q.nodes {
		start[bits.Len64(id)]++
	}
	pos := 0
	for l := 64; l >= 1; l-- {
		c := start[l]
		start[l] = pos
		pos += c
	}
	for id := range q.nodes {
		l := bits.Len64(id)
		ids[start[l]] = id
		start[l]++
	}
	for _, id := range ids {
		if id <= 1 {
			continue
		}
		if _, ok := q.nodes[id]; !ok {
			continue
		}
		// Left, right, parent: one summation order whichever sibling the
		// map iteration reaches first, so the digest is deterministic.
		l, r, par := q.nodes[id&^1], q.nodes[id|1], q.nodes[id>>1]
		if l+r+par <= thresh {
			q.nodes[id>>1] = par + l + r
			delete(q.nodes, id)
			delete(q.nodes, id^1)
		}
	}
	q.scratch = ids[:0]
	q.dirty = 0
}

// Rank returns the estimated total weight of values strictly less than v.
// The true rank is within an additive (log₂U/k)·Total of the estimate.
func (q *QDigest) Rank(v uint64) float64 {
	if v >= q.U() {
		v = q.U() - 1
	}
	var r float64
	for id, w := range q.nodes {
		_, hi := q.span(id)
		if hi < v {
			r += w
		}
	}
	return r
}

// Quantile returns the smallest value whose estimated rank reaches
// phi·Total: the φ-quantile under the stored weights. phi is clamped to
// [0, 1].
func (q *QDigest) Quantile(phi float64) uint64 {
	if phi < 0 {
		phi = 0
	}
	if phi > 1 {
		phi = 1
	}
	target := phi * q.total
	nodes := q.sortedNodes()
	var cum float64
	for _, n := range nodes {
		cum += n.w
		if cum >= target {
			return n.hi
		}
	}
	if len(nodes) == 0 {
		return 0
	}
	return nodes[len(nodes)-1].hi
}

type qdNode struct {
	lo, hi uint64
	w      float64
}

// sortedNodes returns the stored nodes in q-digest query order: increasing
// upper endpoint, ties broken by smaller range (larger lower endpoint)
// first.
func (q *QDigest) sortedNodes() []qdNode {
	out := make([]qdNode, 0, len(q.nodes))
	for id, w := range q.nodes {
		lo, hi := q.span(id)
		out = append(out, qdNode{lo, hi, w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].hi != out[j].hi {
			return out[i].hi < out[j].hi
		}
		return out[i].lo > out[j].lo
	})
	return out
}

// span returns the value interval [lo, hi] covered by heap node id.
func (q *QDigest) span(id uint64) (lo, hi uint64) {
	level := uint(bits.Len64(id)) - 1
	below := q.logU - level
	lo = (id - (1 << level)) << below
	hi = lo + (1 << below) - 1
	return lo, hi
}

// Scale multiplies every stored weight and the total by f (landmark
// rescaling, §VI-A of the paper). The factor must be finite and positive;
// anything else returns *ScaleError and leaves the digest untouched.
func (q *QDigest) Scale(f float64) error {
	if err := checkScale("QDigest", f); err != nil {
		return err
	}
	for id := range q.nodes {
		q.nodes[id] *= f
	}
	q.total *= f
	q.dirty *= f
	return nil
}

// Compatible reports, as a *MismatchError, whether o's domain differs.
func (q *QDigest) Compatible(o *QDigest) error {
	if o.logU != q.logU {
		return &MismatchError{Sketch: "QDigest", Param: "domain", A: float64(q.U()), B: float64(o.U())}
	}
	return nil
}

// Merge folds another digest over the same domain into this one by adding
// node weights and recompressing; a digest over another domain is refused
// (Compatible). Errors add: the merged digest has additive rank error
// (log₂U/k)·(W₁+W₂).
func (q *QDigest) Merge(o *QDigest) error {
	if o == nil {
		return nil
	}
	if err := q.Compatible(o); err != nil {
		return err
	}
	for id, w := range o.nodes {
		q.nodes[id] += w
	}
	q.total += o.total
	q.Compress()
	return nil
}

// Clone returns a deep copy of the digest.
func (q *QDigest) Clone() *QDigest {
	c := &QDigest{logU: q.logU, k: q.k, total: q.total, dirty: q.dirty,
		nodes: make(map[uint64]float64, len(q.nodes))}
	for id, w := range q.nodes {
		c.nodes[id] = w
	}
	return c
}

// SizeBytes estimates the in-memory footprint after compression
// (~48 B per map slot plus the compaction scratch buffer).
func (q *QDigest) SizeBytes() int { return 64 + len(q.nodes)*48 + cap(q.scratch)*8 }
