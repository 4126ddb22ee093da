package sketch

import (
	"errors"
	"math"
	"sort"
	"testing"

	"forwarddecay/internal/core"
)

// exactRank returns the total weight of values < v in the reference stream.
func exactRank(vals []uint64, ws []float64, v uint64) float64 {
	var r float64
	for i, x := range vals {
		if x < v {
			r += ws[i]
		}
	}
	return r
}

func makeWeightedValues(seed uint64, n int, u uint64) ([]uint64, []float64, float64) {
	rng := core.NewRNG(seed)
	vals := make([]uint64, n)
	ws := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		// Mixture: clustered lows plus a heavy tail, to stress the tree.
		var v uint64
		if rng.Float64() < 0.7 {
			v = uint64(rng.Intn(int(u / 8)))
		} else {
			v = uint64(rng.Intn(int(u)))
		}
		w := 0.1 + 3*rng.Float64()
		vals[i], ws[i] = v, w
		total += w
	}
	return vals, ws, total
}

func TestQDigestRankError(t *testing.T) {
	const u, eps = 1 << 12, 0.05
	vals, ws, total := makeWeightedValues(11, 30000, u)
	q := NewQDigest(u, eps)
	for i, v := range vals {
		q.Update(v, ws[i])
	}
	q.Compress()
	if math.Abs(q.Total()-total) > 1e-6*total {
		t.Fatalf("Total = %v, want %v", q.Total(), total)
	}
	for _, v := range []uint64{1, 10, 100, 500, 1000, 2048, 4000, 4095} {
		got := q.Rank(v)
		want := exactRank(vals, ws, v)
		if math.Abs(got-want) > eps*total {
			t.Errorf("Rank(%d) = %v, want %v ± %v", v, got, want, eps*total)
		}
	}
}

func TestQDigestQuantileError(t *testing.T) {
	const u, eps = 1 << 12, 0.05
	vals, ws, total := makeWeightedValues(12, 30000, u)
	q := NewQDigest(u, eps)
	for i, v := range vals {
		q.Update(v, ws[i])
	}
	for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := q.Quantile(phi)
		// The returned value's exact rank must be within eps·W of phi·W.
		// Rank of values <= got includes got itself; check the bracket
		// [rank(got), rank(got+1)] overlaps [phi·W − εW, phi·W + εW].
		lo := exactRank(vals, ws, got)
		hi := exactRank(vals, ws, got+1)
		if hi < (phi-eps)*total || lo > (phi+eps)*total {
			t.Errorf("Quantile(%v) = %d with rank bracket [%v,%v], want overlap with %v ± %v",
				phi, got, lo, hi, phi*total, eps*total)
		}
	}
}

func TestQDigestSpaceBound(t *testing.T) {
	const u, eps = 1 << 16, 0.02
	q := NewQDigest(u, eps)
	rng := core.NewRNG(13)
	for i := 0; i < 200000; i++ {
		q.Update(uint64(rng.Intn(u)), 1)
	}
	q.Compress()
	// After compression the digest must hold O(k log U) nodes; use the
	// documented bound of 3k(logU+1).
	logU := 16
	k := int(math.Ceil(float64(logU) / eps))
	if q.Len() > 3*k*(logU+1) {
		t.Errorf("digest holds %d nodes, above bound %d", q.Len(), 3*k*(logU+1))
	}
}

func TestQDigestMerge(t *testing.T) {
	const u, eps = 1 << 10, 0.05
	valsA, wsA, totalA := makeWeightedValues(14, 15000, u)
	valsB, wsB, totalB := makeWeightedValues(15, 15000, u)
	a := NewQDigest(u, eps)
	b := NewQDigest(u, eps)
	for i := range valsA {
		a.Update(valsA[i], wsA[i])
	}
	for i := range valsB {
		b.Update(valsB[i], wsB[i])
	}
	a.Merge(b)
	total := totalA + totalB
	all := append(append([]uint64{}, valsA...), valsB...)
	allW := append(append([]float64{}, wsA...), wsB...)
	for _, v := range []uint64{16, 64, 256, 512, 1000} {
		got := a.Rank(v)
		want := exactRank(all, allW, v)
		if math.Abs(got-want) > 2*eps*total {
			t.Errorf("merged Rank(%d) = %v, want %v ± %v", v, got, want, 2*eps*total)
		}
	}
}

func TestQDigestScale(t *testing.T) {
	q := NewQDigest(16, 0.1)
	q.Update(3, 10)
	q.Update(12, 6)
	q.Scale(0.5)
	if q.Total() != 8 {
		t.Errorf("scaled total = %v, want 8", q.Total())
	}
	if got := q.Rank(12); math.Abs(got-5) > 1e-9 {
		t.Errorf("scaled Rank(12) = %v, want 5", got)
	}
}

func TestQDigestClampsAndIgnores(t *testing.T) {
	q := NewQDigest(16, 0.1)
	q.Update(100, 2) // clamped to 15
	q.Update(5, -1)  // ignored
	q.Update(5, 0)   // ignored
	if q.Total() != 2 {
		t.Fatalf("Total = %v, want 2", q.Total())
	}
	if got := q.Quantile(1); got != 15 {
		t.Errorf("Quantile(1) = %d, want clamped 15", got)
	}
}

func TestQDigestQuantileMonotoneInPhi(t *testing.T) {
	const u = 1 << 10
	q := NewQDigest(u, 0.05)
	rng := core.NewRNG(16)
	for i := 0; i < 20000; i++ {
		q.Update(uint64(rng.Intn(u)), 1+rng.Float64())
	}
	q.Compress()
	prev := uint64(0)
	for _, phi := range []float64{0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1} {
		v := q.Quantile(phi)
		if v < prev {
			t.Errorf("Quantile(%v) = %d below previous %d", phi, v, prev)
		}
		prev = v
	}
}

func TestQDigestMedianUniform(t *testing.T) {
	const u = 1 << 14
	q := NewQDigest(u, 0.01)
	for v := uint64(0); v < u; v++ {
		q.Update(v, 1)
	}
	med := q.Quantile(0.5)
	if math.Abs(float64(med)-float64(u)/2) > 0.02*float64(u) {
		t.Errorf("median of uniform = %d, want ≈ %d", med, u/2)
	}
}

func TestQDigestDomainRounding(t *testing.T) {
	q := NewQDigest(1000, 0.1) // rounds up to 1024
	if q.U() != 1024 {
		t.Errorf("U = %d, want 1024", q.U())
	}
}

func TestQDigestMergeErrorsOnDomainMismatch(t *testing.T) {
	a := NewQDigest(16, 0.1)
	b := NewQDigest(32, 0.1)
	b.Update(3, 1)
	var me *MismatchError
	if err := a.Merge(b); !errors.As(err, &me) || me.Param != "domain" {
		t.Fatalf("merge over another domain: %v, want a domain *MismatchError", err)
	}
	if a.Total() != 0 {
		t.Errorf("refused merge changed the digest: total %g", a.Total())
	}
}

func TestQDigestOrderInsensitive(t *testing.T) {
	const u = 1 << 10
	vals, ws, _ := makeWeightedValues(17, 5000, u)
	a := NewQDigest(u, 0.05)
	b := NewQDigest(u, 0.05)
	for i := range vals {
		a.Update(vals[i], ws[i])
	}
	perm := core.NewRNG(18).Perm(len(vals))
	for _, i := range perm {
		b.Update(vals[i], ws[i])
	}
	a.Compress()
	b.Compress()
	// Results need not be identical (compression points differ), but ranks
	// must agree within the error bound of each.
	for _, v := range []uint64{32, 128, 512, 900} {
		ra, rb := a.Rank(v), b.Rank(v)
		if math.Abs(ra-rb) > 2*0.05*a.Total() {
			t.Errorf("order sensitivity at Rank(%d): %v vs %v", v, ra, rb)
		}
	}
}

func TestQDigestSortedNodesOrdering(t *testing.T) {
	q := NewQDigest(16, 0.3)
	for v := uint64(0); v < 16; v++ {
		q.Update(v, float64(v+1))
	}
	q.Compress()
	// Leaves below merged nodes: each shares its upper endpoint with the
	// ancestors on its right edge.
	q.Update(1, 1)
	q.Update(3, 1)
	ids := q.sortedIDs()
	ties := 0
	for i := 1; i < len(ids); i++ {
		lo0, hi0 := q.span(ids[i-1])
		lo, hi := q.span(ids[i])
		if hi < hi0 {
			t.Fatalf("nodes not sorted by hi: %v", ids)
		}
		if hi == hi0 {
			ties++
			if lo > lo0 {
				t.Fatalf("ties not broken by smaller range first: %v", ids)
			}
		}
	}
	if ties == 0 {
		t.Fatalf("no two nodes share an upper endpoint: the tie order is untested (%v)", ids)
	}
	// Node weights must sum to the total.
	var s float64
	for _, id := range ids {
		s += q.nodes[id]
	}
	if math.Abs(s-q.Total()) > 1e-9 {
		t.Errorf("node weights sum to %v, total is %v", s, q.Total())
	}
}

// TestQDigestQuantileMatchesNodeSort: Quantile, sorting node ids in the
// scratch buffer, answers bit for bit what walking a freshly sorted copy of
// every (lo, hi, weight) node answers.
func TestQDigestQuantileMatchesNodeSort(t *testing.T) {
	type node struct {
		lo, hi uint64
		w      float64
	}
	reference := func(q *QDigest, phi float64) uint64 {
		var ns []node
		for id, w := range q.nodes {
			lo, hi := q.span(id)
			ns = append(ns, node{lo, hi, w})
		}
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].hi != ns[j].hi {
				return ns[i].hi < ns[j].hi
			}
			return ns[i].lo > ns[j].lo
		})
		target := min(max(phi, 0), 1) * q.total
		var cum float64
		for _, n := range ns {
			cum += n.w
			if cum >= target {
				return n.hi
			}
		}
		if len(ns) == 0 {
			return 0
		}
		return ns[len(ns)-1].hi
	}
	rng := core.NewRNG(23)
	for trial := 0; trial < 24; trial++ {
		// Trials 20–23 take domains of 2^58, 2^59, 2^62 and 2^63 values.
		u := uint64(1) << uint(4+trial%12)
		if trial >= 20 {
			u = 1 << []uint{58, 59, 62, 63}[trial-20]
		}
		q := NewQDigest(u, 0.02+0.01*float64(trial%5))
		for i := 0; i < 50*trial; i++ {
			q.Update(rng.Uint64()>>(64-q.logU+uint(trial%3)), 0.1+rng.ExpFloat64())
		}
		var want []node
		for id, w := range q.nodes {
			lo, hi := q.span(id)
			want = append(want, node{lo, hi, w})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].hi != want[j].hi {
				return want[i].hi < want[j].hi
			}
			return want[i].lo > want[j].lo
		})
		for i, id := range q.sortedIDs() {
			if lo, hi := q.span(id); lo != want[i].lo || hi != want[i].hi {
				t.Fatalf("trial %d: node %d of the query order spans [%d, %d], want [%d, %d]", trial, i, lo, hi, want[i].lo, want[i].hi)
			}
		}
		for _, phi := range []float64{-1, 0, 0.001, 0.1, 0.5, 0.9, 0.999, 1, 2} {
			if got, want := q.Quantile(phi), reference(q, phi); got != want {
				t.Fatalf("trial %d: Quantile(%v) = %d, node sort gives %d", trial, phi, got, want)
			}
		}
	}
}
