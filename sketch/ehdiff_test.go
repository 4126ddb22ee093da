package sketch

import (
	"fmt"
	"math"
	"testing"
	"time"
	"unsafe"

	"forwarddecay/decay"
	"forwarddecay/internal/core"
)

// ehTape is a deterministic arrival tape for the histogram tests: Poisson
// spacing at the given rate, one arrival in sixteen stamped up to two
// seconds in the past (Insert clamps it), and — when gap > 0 — a jump of
// gap time units every quarter of the tape, long enough to expire
// everything held. weight draws one value.
func ehTape(seed uint64, n int, rate, gap float64, weight func(*core.RNG) float64) []timedItem {
	rng := core.NewRNG(seed)
	items := make([]timedItem, n)
	ts := 0.0
	for i := range items {
		ts += rng.ExpFloat64() / rate
		if gap > 0 && i > 0 && i%(n/4) == 0 {
			ts += gap
		}
		at := ts
		if rng.Intn(16) == 0 {
			at -= 2 * rng.Float64()
		}
		items[i] = timedItem{at, weight(rng)}
	}
	return items
}

var ehWeightKinds = []struct {
	name string
	draw func(*core.RNG) float64
}{
	{"unit", func(*core.RNG) float64 { return 1 }},
	{"packet-lengths", func(r *core.RNG) float64 { return 40 + float64(r.Intn(1460)) }},
	{"real", func(r *core.RNG) float64 { return 1 + 50*r.ExpFloat64() }},
}

// checkEHStructure verifies the invariants the O(1) steps rest on: the time
// list is a consistent ring in increasing seq, every class list is the
// subsequence of the time list holding that class (same order, cached class
// equal to the one the sum implies), the class counts add up to Len, no
// class exceeds maxPerClass, and every pool node is either live or free.
func checkEHStructure(t *testing.T, h *ExpHistogram) {
	t.Helper()
	next := make([]int32, len(h.classes)) // per class: the node its list expects next
	for c := range h.classes {
		next[c] = h.classes[c].head
	}
	seen := make([]int32, len(h.classes))
	live, prev, seq := 0, int32(0), uint64(0)
	for i := h.nodes[0].next; i != 0; i = h.nodes[i].next {
		n := &h.nodes[i]
		if n.prev != prev {
			t.Fatalf("node %d: prev = %d, want %d", i, n.prev, prev)
		}
		if n.seq <= seq {
			t.Fatalf("node %d: seq %d after %d — time list out of order", i, n.seq, seq)
		}
		if got := sizeClass(n.sum); int(n.class) != got {
			t.Fatalf("node %d: cached class %d, sum %v is class %d", i, n.class, n.sum, got)
		}
		c := int(n.class) - h.classLo
		if c < 0 || c >= len(h.classes) {
			t.Fatalf("node %d: class %d outside the table [%d, %d)", i, n.class, h.classLo, h.classLo+len(h.classes))
		}
		if next[c] != i {
			t.Fatalf("node %d: class %d's list expects node %d here", i, n.class, next[c])
		}
		next[c] = n.cnext
		seen[c]++
		prev, seq = i, n.seq
		live++
	}
	if h.nodes[0].prev != prev {
		t.Fatalf("ring tail = %d, want %d", h.nodes[0].prev, prev)
	}
	if live != h.Len() {
		t.Fatalf("time list holds %d nodes, Len() = %d", live, h.Len())
	}
	for c := range h.classes {
		cl := h.classes[c]
		if next[c] != 0 || seen[c] != cl.n {
			t.Fatalf("class %d: list has nodes off the time list (walked %d of %d)", c+h.classLo, seen[c], cl.n)
		}
		if cl.n > h.maxPerClass {
			t.Fatalf("class %d holds %d buckets, bound %d", c+h.classLo, cl.n, h.maxPerClass)
		}
	}
	free := 0
	for i := h.free; i != 0; i = h.nodes[i].next {
		free++
	}
	if 1+live+free != len(h.nodes) {
		t.Fatalf("pool of %d: %d live + %d free + sentinel", len(h.nodes), live, free)
	}
}

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// TestExpHistogramMatchesScanOracle is the bit-exactness gate: on every
// configuration the linked histogram holds the scan implementation's bucket
// sequence and gives its answers, compared after every ~1000th insert.
func TestExpHistogramMatchesScanOracle(t *testing.T) {
	fns := []decay.AgeFunc{decay.NewAgePoly(1.5), decay.NewAgeExp(0.05)}
	seed := uint64(100)
	for _, eps := range []float64{0.2, 0.1, 0.05, 0.01, 0.005} {
		// The oracle scans every bucket on every insert: where it holds a
		// thousand of them, and under the race detector, the tape is cut to
		// keep this one test from dominating the suite.
		n := 200_000
		if eps <= 0.01 {
			n = 50_000
		}
		if testing.Short() || raceEnabled {
			n /= 10
		}
		for _, window := range []float64{0, 5, 10, 60} {
			for _, wk := range ehWeightKinds {
				seed++
				tape := ehTape(seed, n, 400, 2*window+1, wk.draw)
				t.Run(fmt.Sprintf("eps=%g/window=%g/%s", eps, window, wk.name), func(t *testing.T) {
					h, o := NewExpHistogram(eps, window), newScanExpHistogram(eps, window)
					for i, it := range tape {
						h.Insert(it.ts, it.v)
						o.Insert(it.ts, it.v)
						if i%997 != 0 && i != len(tape)-1 {
							continue
						}
						// Alternate a query at the newest timestamp with one
						// ahead of it, which expires buckets from the query.
						tq := h.last + float64(i%3)*window/8
						f := fns[i%len(fns)]
						if g, w := h.DecayedSum(f, tq), o.DecayedSum(f, tq); g != w {
							t.Fatalf("insert %d: DecayedSum(%v) = %v, oracle %v", i, tq, g, w)
						}
						if g, w := h.WindowSum(tq), o.WindowSum(tq); g != w {
							t.Fatalf("insert %d: WindowSum(%v) = %v, oracle %v", i, tq, g, w)
						}
						if g, w := h.WindowCount(tq), o.WindowCount(tq); g != w {
							t.Fatalf("insert %d: WindowCount(%v) = %v, oracle %v", i, tq, g, w)
						}
						if h.Len() != o.Len() {
							t.Fatalf("insert %d: %d buckets, oracle %d", i, h.Len(), o.Len())
						}
						j := 0
						for k := h.nodes[0].next; k != 0; k = h.nodes[k].next {
							b := h.nodes[k]
							if got := (scanBucket{b.sum, b.count, b.oldest, b.newest}); got != o.buckets[j] {
								t.Fatalf("insert %d, bucket %d: %+v, oracle %+v", i, j, got, o.buckets[j])
							}
							j++
						}
						checkEHStructure(t, h)
					}
				})
			}
		}
	}
}

// TestExpHistogramFractionalWeights pins the space bound for weights below
// one, where a merge lands in a negative size class (which the scan
// implementation took for its "not found" sentinel, leaving the class over
// its bound for good): every class stays within maxPerClass after every
// insert, and the bucket count under maxPerClass per class spanned.
//
// The window sum is held to ε on the constant-weight tape only, which is
// the classical histogram scaled by 0.3. On weights that vary, merging the
// two oldest buckets of a class — not two neighbours — lets bucket spans
// interleave, and a long-spanned head keeps fully expired buckets behind it
// in the sum; that is the merge policy's accuracy, which this structure
// reproduces bit for bit and does not set out to change.
func TestExpHistogramFractionalWeights(t *testing.T) {
	const eps, window = 0.01, 60.0
	for _, tc := range []struct {
		name      string
		draw      func(*core.RNG) float64
		sumWithin bool
	}{
		{"constant", func(*core.RNG) float64 { return 0.3 }, true},
		{"uniform", func(r *core.RNG) float64 { return 1 - r.Float64() }, false},
		{"mixed", func(r *core.RNG) float64 {
			switch r.Intn(3) {
			case 0:
				return 0.3
			case 1:
				return 1 - r.Float64()
			}
			return 1 + 20*r.ExpFloat64()
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tape := clampTimes(ehTape(7, 50_000, 100, 0, tc.draw))
			h := NewExpHistogram(eps, window)
			minW := math.Inf(1)
			for i, it := range tape {
				h.Insert(it.ts, it.v)
				minW = math.Min(minW, it.v)
				for c, cl := range h.classes {
					if cl.n > h.maxPerClass {
						t.Fatalf("insert %d: class %d holds %d buckets, bound %d", i, c+h.classLo, cl.n, h.maxPerClass)
					}
				}
				if i%500 != 0 && i != len(tape)-1 {
					continue
				}
				checkEHStructure(t, h)
				want, _ := exactWindowSum(tape[:i+1], it.ts, window)
				got := h.WindowSum(it.ts)
				if tc.sumWithin && math.Abs(got-want) > eps*want {
					t.Fatalf("insert %d: WindowSum = %v, want %v ± %g%%", i, got, want, 100*eps)
				}
				spanned := sizeClass(got) - sizeClass(minW) + 2 // got ≥ half the sum of all buckets
				if bound := int(h.maxPerClass) * spanned; h.Len() > bound {
					t.Fatalf("insert %d: %d buckets, bound %d (%d classes × %d)", i, h.Len(), bound, spanned, h.maxPerClass)
				}
			}
		})
	}
}

// clampTimes applies Insert's timestamp clamp to a tape, for exact
// reference sums.
func clampTimes(items []timedItem) []timedItem {
	out := make([]timedItem, len(items))
	last := 0.0
	for i, it := range items {
		last = math.Max(last, it.ts)
		out[i] = timedItem{last, it.v}
	}
	return out
}

// TestSizeClassByExponent: the exponent-based class is the true one
// (2^c ≤ s < 2^(c+1)) at, just below and just above every power of two from
// 2⁻⁶⁰ to 2⁶⁰; it agrees with floor(log2(s)) on every power of two and on
// every integer below 2²²; and wherever the two differ — sums a few ulps
// below a power of two, which log2 rounds up — the exponent is right.
func TestSizeClassByExponent(t *testing.T) {
	inClass := func(s float64, c int) bool { return math.Ldexp(1, c) <= s && s < math.Ldexp(1, c+1) }
	byLog := func(s float64) int { return int(math.Floor(math.Log2(s))) }
	differ := 0
	for k := -60; k <= 60; k++ {
		p := math.Ldexp(1, k)
		for _, tc := range []struct {
			s    float64
			want int
		}{{p, k}, {math.Nextafter(p, 0), k - 1}, {math.Nextafter(p, math.Inf(1)), k}} {
			got := sizeClass(tc.s)
			if got != tc.want || !inClass(tc.s, got) {
				t.Errorf("sizeClass(%b) = %d, want %d", tc.s, got, tc.want)
			}
			if old := byLog(tc.s); old != got {
				differ++
				if tc.s == p || inClass(tc.s, old) {
					t.Errorf("floor(log2(%b)) = %d disagrees with exponent class %d and is not wrong", tc.s, old, got)
				}
			}
		}
	}
	if differ == 0 {
		t.Error("floor(log2) never differed below a power of two: the exactness case is untested")
	}
	for i := 1; i < 1<<22; i++ {
		if got, old := sizeClass(float64(i)), byLog(float64(i)); got != old {
			t.Fatalf("sizeClass(%d) = %d, floor(log2) = %d", i, got, old)
		}
	}
}

func TestExpHistogramNodeFitsCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(ehNode{}); sz > 64 {
		t.Errorf("ehNode is %d bytes, want ≤ 64", sz)
	}
	h := NewExpHistogram(0.1, 60)
	for i := 0; i < 1000; i++ {
		h.Insert(float64(i)/10, 1)
	}
	if got, min := h.SizeBytes(), h.Len()*int(unsafe.Sizeof(ehNode{})); got < min {
		t.Errorf("SizeBytes = %d, below the %d its %d buckets occupy", got, min, h.Len())
	}
}

// TestExpHistogramInsertSteadyStateAllocs: once the pool has reached the
// window's high-water mark, inserts — merges and expiries included — reuse
// freed nodes and never allocate.
func TestExpHistogramInsertSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	tape := ehTape(9, 1<<16, 1000, 0, ehWeightKinds[1].draw) // ~65 s at window 10: several turnovers
	h := NewExpHistogram(0.01, 10)
	for _, it := range tape[:1<<15] {
		h.Insert(it.ts, it.v)
	}
	i, before := 1<<15, h.seq-uint64(h.Len())
	avg := testing.AllocsPerRun(1<<14, func() {
		h.Insert(tape[i].ts, tape[i].v)
		i++
	})
	if avg != 0 {
		t.Errorf("steady-state ExpHistogram.Insert allocates %.2f objects/op, want 0", avg)
	}
	if gone := h.seq - uint64(h.Len()) - before; gone < 1<<13 {
		t.Errorf("only %d buckets merged or expired during the measurement", gone)
	}
}

// TestExpHistogramInsertCostIndependentOfSize: an insert costs the same
// with ≈ 1000 live buckets as with ≈ 60. The scan implementation measured
// ≈ 15× here and the linked one ≈ 1.2×, so the 4× gate has a wide margin on
// both sides.
func TestExpHistogramInsertCostIndependentOfSize(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	tape := ehTape(11, 200_000, 1000, 0, ehWeightKinds[1].draw)
	perInsert := func(eps float64) (ns float64, buckets int) {
		best := time.Duration(math.MaxInt64)
		for round := 0; round < 5; round++ {
			h := NewExpHistogram(eps, 60)
			for _, it := range tape[:100_000] {
				h.Insert(it.ts, it.v)
			}
			start := time.Now()
			for _, it := range tape[100_000:] {
				h.Insert(it.ts, it.v)
			}
			if d := time.Since(start); d < best {
				best = d
			}
			buckets = h.Len()
		}
		return float64(best.Nanoseconds()) / 100_000, buckets
	}
	small, nSmall := perInsert(0.2)
	large, nLarge := perInsert(0.005)
	t.Logf("%d buckets: %.1f ns/insert; %d buckets: %.1f ns/insert (%.2fx)", nSmall, small, nLarge, large, large/small)
	if nSmall > 100 || nLarge < 800 {
		t.Fatalf("sizes %d and %d: the tape no longer spans ≈ 60 vs ≈ 1000 buckets", nSmall, nLarge)
	}
	if large > 4*small {
		t.Errorf("insert with %d buckets costs %.1f ns, %.1fx the %.1f ns with %d: not O(1)", nLarge, large, large/small, small, nSmall)
	}
}

// TestExpHistogramResetIsFresh: a histogram reset after one tape and fed a
// second answers bit for bit as a new one fed the second — window and
// decayed sums, counts and Len at sampled points, structure intact — and
// a reset histogram fed a tape it has held before never allocates: the
// node pool and the class table (grown downwards in place) are kept.
func TestExpHistogramResetIsFresh(t *testing.T) {
	f := decay.NewAgeExp(0.05)
	for wi, wk := range ehWeightKinds {
		first := ehTape(uint64(200+wi), 20_000, 400, 0, wk.draw)
		second := ehTape(uint64(300+wi), 20_000, 400, 21, wk.draw)
		used := NewExpHistogram(0.05, 10)
		for _, it := range first {
			used.Insert(it.ts, it.v)
		}
		used.Reset()
		fresh := NewExpHistogram(0.05, 10)
		for i, it := range second {
			used.Insert(it.ts, it.v)
			fresh.Insert(it.ts, it.v)
			if i%997 != 0 {
				continue
			}
			checkEHStructure(t, used)
			now := it.ts + 0.5
			for _, pair := range [][2]float64{
				{used.WindowSum(now), fresh.WindowSum(now)},
				{used.WindowCount(now), fresh.WindowCount(now)},
				{used.DecayedSum(f, now), fresh.DecayedSum(f, now)},
				{float64(used.Len()), float64(fresh.Len())},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("%s: insert %d: reset histogram reads %v, fresh %v", wk.name, i, pair[0], pair[1])
				}
			}
		}
		if testing.Short() {
			continue
		}
		if avg := testing.AllocsPerRun(3, func() {
			used.Reset()
			for _, it := range second {
				used.Insert(it.ts, it.v)
			}
		}); avg != 0 {
			t.Errorf("%s: a reset histogram allocates %.1f objects refilling a tape it held", wk.name, avg)
		}
	}
}
