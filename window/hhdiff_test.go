package window

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/internal/core"
	"forwarddecay/sketch"
)

// refMG is the map-backed Misra–Gries summary, the reference's per-block
// building block.
type refMG struct {
	k        int
	counters map[uint64]float64
	total    float64
}

func newRefMG(k int) *refMG { return &refMG{k: k, counters: make(map[uint64]float64, k+1)} }

func (m *refMG) update(key uint64, w float64) {
	m.total += w
	if c, ok := m.counters[key]; ok || len(m.counters) < m.k {
		m.counters[key] = c + w
		return
	}
	for w > 0 {
		min := w
		for _, c := range m.counters {
			if c < min {
				min = c
			}
		}
		m.sub(min)
		w -= min
		if w > 0 && len(m.counters) < m.k {
			m.counters[key] = w
			return
		}
	}
}

func (m *refMG) sub(off float64) {
	for key, c := range m.counters {
		if c <= off {
			delete(m.counters, key)
		} else {
			m.counters[key] = c - off
		}
	}
}

func (m *refMG) merge(o *refMG) {
	for key, c := range o.counters {
		m.counters[key] += c
	}
	m.total += o.total
	if len(m.counters) <= m.k {
		return
	}
	vals := make([]float64, 0, len(m.counters))
	for _, c := range m.counters {
		vals = append(vals, c)
	}
	sort.Float64s(vals)
	m.sub(vals[len(vals)-m.k-1])
}

// refHH is the block hierarchy with one map summary per block, every block
// kept as its own object: the structure HeavyHitters had before its blocks
// were frozen into arenas, and the reference it must match bit for bit.
type refHH struct {
	window float64
	width  []float64
	k      int
	blks   [][]refBlock
	last   float64
	eh     *sketch.ExpHistogram
}

type refBlock struct {
	idx        int64
	start, end float64
	mg         *refMG
}

func newRefHH(window, epsilon float64) *refHH {
	levels := int(math.Ceil(math.Log2(1/epsilon))) + 1
	r := &refHH{window: window, k: int(math.Ceil(2 / epsilon)), blks: make([][]refBlock, levels),
		last: math.Inf(-1), eh: sketch.NewExpHistogram(epsilon/2, window)}
	for l := range levels {
		r.width = append(r.width, window/float64(uint64(1)<<uint(l)))
	}
	return r
}

func (r *refHH) observe(key uint64, ts, w float64) {
	ts = math.Max(ts, r.last)
	r.last = ts
	for l, d := range r.width {
		idx := int64(math.Floor(ts / d))
		if n := len(r.blks[l]); n == 0 || r.blks[l][n-1].idx != idx {
			lv := r.blks[l]
			i := 0
			for i < len(lv) && lv[i].end < ts-2*r.window {
				i++
			}
			r.blks[l] = append(lv[i:], refBlock{idx, float64(idx) * d, float64(idx+1) * d, newRefMG(r.k)})
		}
		r.blks[l][len(r.blks[l])-1].mg.update(key, w)
	}
	r.eh.Insert(ts, w)
}

func (r *refHH) find(l int, idx int64) *refBlock {
	for i := range r.blks[l] {
		if r.blks[l][i].idx == idx {
			return &r.blks[l][i]
		}
	}
	return nil
}

func (r *refHH) query(t, phi float64) []sketch.ItemCount {
	merged := newRefMG(r.k)
	fine := r.width[len(r.width)-1]
	for p := t - r.window; p < t-1e-9; {
		placed := false
		for l, d := range r.width {
			idx := int64(math.Ceil((p - 1e-9) / d))
			start := float64(idx) * d
			if start-p < fine && start+d <= t+1e-9 {
				if b := r.find(l, idx); b != nil {
					merged.merge(b.mg)
				}
				p, placed = start+d, true
				break
			}
		}
		if !placed {
			idx := int64(math.Floor((p + 1e-9) / fine))
			if b := r.find(len(r.width)-1, idx); b != nil {
				merged.merge(b.mg)
			}
			p = float64(idx+1) * fine
		}
	}
	slack := merged.total / float64(r.k+1)
	thresh := phi*r.eh.WindowSum(t) - slack
	var out []sketch.ItemCount
	for key, c := range merged.counters {
		if c >= thresh {
			out = append(out, sketch.ItemCount{Key: key, Count: c, Err: slack})
		}
	}
	sketch.SortItems(out)
	return out
}

func (r *refHH) decayedQuery(f decay.AgeFunc, t, phi float64) []sketch.ItemCount {
	f0 := f.Eval(0)
	counts := map[uint64]float64{}
	var total, slack float64
	for _, b := range r.blks[len(r.blks)-1] {
		if b.end <= t-r.window || b.start > t {
			continue
		}
		w := (f.Eval(math.Max(t-b.end, 0)) + f.Eval(t-b.start)) / 2 / f0
		if w == 0 {
			continue
		}
		for key, c := range b.mg.counters {
			counts[key] += c * w
		}
		total += b.mg.total * w
		slack += b.mg.total / float64(r.k+1) * w
	}
	var out []sketch.ItemCount
	for key, c := range counts {
		if c >= phi*total-slack {
			out = append(out, sketch.ItemCount{Key: key, Count: c, Err: slack})
		}
	}
	sketch.SortItems(out)
	return out
}

func (r *refHH) blocks() int {
	n := 0
	for _, lv := range r.blks {
		n += len(lv)
	}
	return n
}

// hhTape is an out-of-order arrival tape over about ten windows of 10 time
// units: one arrival in eight is stamped up to a second late (clamped on
// arrival), keys are skewed over a universe of ≫ k keys, and weights are
// unit, packet lengths or log-uniform over [1e-3, 1e6].
func hhTape(seed uint64, n int, weights string) []ev {
	rng := core.NewRNG(seed)
	out := make([]ev, n)
	ts := 0.0
	for i := range out {
		ts += rng.ExpFloat64() / 300
		at := ts
		if rng.Intn(8) == 0 {
			at -= rng.Float64()
		}
		key := uint64(1 + int(math.Floor(1/math.Sqrt(rng.Float64()))))
		if rng.Intn(3) == 0 {
			key = uint64(1000 + rng.Intn(5000))
		}
		w := 1.0
		switch weights {
		case "bytes":
			w = 40 + float64(rng.Intn(1460))
		case "logw":
			w = math.Pow(10, -3+9*rng.Float64())
		}
		out[i] = ev{ts: at, key: key, v: w}
	}
	return out
}

// sameItems compares two query results bit for bit.
func sameItems(got, want []sketch.ItemCount) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d items, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key != w.Key || math.Float64bits(g.Count) != math.Float64bits(w.Count) || math.Float64bits(g.Err) != math.Float64bits(w.Err) {
			return fmt.Errorf("item %d: %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// sameAnswers compares Query (at the latest timestamp and a third of a
// window past it), DecayedQuery, WindowTotal and Blocks of h against r.
func sameAnswers(h *HeavyHitters, r *refHH, now float64) error {
	f := decay.NewAgeExp(0.2)
	for _, t := range []float64{now, now + h.window/3} {
		if g, w := h.WindowTotal(t), r.eh.WindowSum(t); math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("WindowTotal(%v) = %v, want %v", t, g, w)
		}
		if err := sameItems(h.Query(t, 0.01), r.query(t, 0.01)); err != nil {
			return fmt.Errorf("Query(%v): %v", t, err)
		}
		if err := sameItems(h.DecayedQuery(f, t, 0.01), r.decayedQuery(f, t, 0.01)); err != nil {
			return fmt.Errorf("DecayedQuery(%v): %v", t, err)
		}
	}
	if h.Blocks() != r.blocks() {
		return fmt.Errorf("%d blocks, want %d", h.Blocks(), r.blocks())
	}
	return nil
}

// arenaLen is the number of frozen counters h holds.
func arenaLen(h *HeavyHitters) int {
	n := 0
	for l := range h.lv {
		n += len(h.lv[l].keys)
	}
	return n
}

// TestHeavyHittersMatchesBlockReference feeds HeavyHitters and the
// per-block map reference the same out-of-order tapes, ten windows long so
// that blocks expire and the arenas compact, and compares every answer at
// sampled points bit for bit.
func TestHeavyHittersMatchesBlockReference(t *testing.T) {
	for i, weights := range []string{"unit", "bytes", "logw"} {
		for _, eps := range []float64{0.05, 0.02} {
			t.Run(fmt.Sprintf("%s/eps=%g", weights, eps), func(t *testing.T) {
				tape := hhTape(uint64(10+i), 30_000, weights)
				h, r := NewHeavyHitters(10, eps), newRefHH(10, eps)
				compactions, prev := 0, 0
				for j, e := range tape {
					h.Observe(e.key, e.ts, e.v)
					r.observe(e.key, e.ts, e.v)
					n := arenaLen(h)
					if n < prev {
						compactions++
					}
					prev = n
					if j%1499 == 0 {
						if err := sameAnswers(h, r, r.last); err != nil {
							t.Fatalf("after %d arrivals: %v", j+1, err)
						}
					}
				}
				if err := sameAnswers(h, r, r.last); err != nil {
					t.Fatalf("at the end: %v", err)
				}
				if compactions == 0 {
					t.Error("no arena was ever compacted")
				}
			})
		}
	}
}

// TestHeavyHittersResetIsFresh: a structure reset after one tape and fed
// a second answers as a new one fed the second, and a reset structure fed
// a tape it has held before never allocates.
func TestHeavyHittersResetIsFresh(t *testing.T) {
	first, second := hhTape(21, 20_000, "bytes"), hhTape(22, 20_000, "unit")
	used, fresh := NewHeavyHitters(10, 0.02), NewHeavyHitters(10, 0.02)
	for _, e := range first {
		used.Observe(e.key, e.ts, e.v)
	}
	used.Reset()
	f := decay.NewAgeExp(0.2)
	for j, e := range second {
		used.Observe(e.key, e.ts, e.v)
		fresh.Observe(e.key, e.ts, e.v)
		if j%1999 != 0 && j != len(second)-1 {
			continue
		}
		now := fresh.last
		if g, w := used.WindowTotal(now), fresh.WindowTotal(now); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("after %d: WindowTotal %v, fresh %v", j+1, g, w)
		}
		if err := sameItems(used.Query(now, 0.01), fresh.Query(now, 0.01)); err != nil {
			t.Fatalf("after %d: Query: %v", j+1, err)
		}
		if err := sameItems(used.DecayedQuery(f, now, 0.01), fresh.DecayedQuery(f, now, 0.01)); err != nil {
			t.Fatalf("after %d: DecayedQuery: %v", j+1, err)
		}
		if used.Blocks() != fresh.Blocks() {
			t.Fatalf("after %d: %d blocks, fresh %d", j+1, used.Blocks(), fresh.Blocks())
		}
	}
	if testing.Short() {
		return
	}
	if avg := testing.AllocsPerRun(3, func() {
		used.Reset()
		for _, e := range second {
			used.Observe(e.key, e.ts, e.v)
		}
	}); avg != 0 {
		t.Errorf("a reset HeavyHitters allocates %.1f objects refilling a tape it held", avg)
	}
}
