package sketch

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"forwarddecay/internal/core"
)

// mapMG is the map-backed Misra–Gries summary the flat one replaced, kept
// as the oracle: the same decrement and merge arithmetic, one map entry per
// counter. Every per-key operation is independent of map order, so the
// flat summary must agree with it bit for bit.
type mapMG struct {
	k        int
	counters map[uint64]float64
	total    float64
}

func newMapMG(k int) *mapMG { return &mapMG{k: k, counters: make(map[uint64]float64, k+1)} }

func (m *mapMG) Update(key uint64, w float64) {
	if w <= 0 {
		return
	}
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
		for k2, c := range m.counters {
			if c <= min {
				delete(m.counters, k2)
			} else {
				m.counters[k2] = c - min
			}
		}
		w -= min
		if w > 0 && len(m.counters) < m.k {
			m.counters[key] = w
			return
		}
	}
}

func (m *mapMG) Merge(o *mapMG) {
	for k2, c := range o.counters {
		m.counters[k2] += c
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
	off := vals[len(vals)-m.k-1]
	for k2, c := range m.counters {
		if c <= off {
			delete(m.counters, k2)
		} else {
			m.counters[k2] = c - off
		}
	}
}

func (m *mapMG) Items() []ItemCount {
	out := make([]ItemCount, 0, len(m.counters))
	for k2, c := range m.counters {
		out = append(out, ItemCount{Key: k2, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Count > out[j].Count || out[i].Count == out[j].Count && out[i].Key < out[j].Key
	})
	return out
}

// sameMG compares the flat summary with the oracle: Total, Len, the
// estimate of every key below universe and the Items list, all bit for bit.
func sameMG(t *testing.T, at string, got *MisraGries, want *mapMG, universe uint64) {
	t.Helper()
	if math.Float64bits(got.Total()) != math.Float64bits(want.total) {
		t.Fatalf("%s: Total %v, oracle %v", at, got.Total(), want.total)
	}
	if got.Len() != len(want.counters) {
		t.Fatalf("%s: Len %d, oracle %d", at, got.Len(), len(want.counters))
	}
	for key := range universe {
		if g, w := got.Estimate(key), want.counters[key]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: Estimate(%d) = %v, oracle %v", at, key, g, w)
		}
	}
	gi, wi := got.Items(), want.Items()
	for i := range wi {
		if gi[i].Key != wi[i].Key || math.Float64bits(gi[i].Count) != math.Float64bits(wi[i].Count) {
			t.Fatalf("%s: Items[%d] = %+v, oracle %+v", at, i, gi[i], wi[i])
		}
	}
}

// TestMisraGriesMatchesMapOracle drives the flat summary and the map oracle
// with the same seeded weighted streams — from a few keys per counter to
// eviction-heavy ones with ≫ k keys and weights spanning 1e-3 to 1e6 — and
// folds in a second pair of summaries every few hundred updates, comparing
// everything after each merge and at the end.
func TestMisraGriesMatchesMapOracle(t *testing.T) {
	for _, tc := range []struct {
		k        int
		universe uint64
		logW     bool // weights log-uniform over [1e-3, 1e6], else in [0.5, 2.5)
	}{
		{1, 8, false},
		{8, 12, false},
		{16, 400, true},
		{64, 5000, true},
		{200, 2000, false},
		{200, 20000, true},
	} {
		t.Run(fmt.Sprintf("k=%d/keys=%d/logw=%v", tc.k, tc.universe, tc.logW), func(t *testing.T) {
			rng := core.NewRNG(uint64(tc.k)*7919 + tc.universe)
			weight := func() float64 {
				if tc.logW {
					return math.Pow(10, -3+9*rng.Float64())
				}
				return 0.5 + 2*rng.Float64()
			}
			flat, oracle := NewMisraGries(tc.k), newMapMG(tc.k)
			side, sideOracle := NewMisraGries(tc.k), newMapMG(tc.k)
			for i := range 20_000 {
				key, w := uint64(rng.Intn(int(tc.universe))), weight()
				if rng.Intn(2) == 0 {
					flat.Update(key, w)
					oracle.Update(key, w)
				} else {
					side.Update(key, w)
					sideOracle.Update(key, w)
				}
				if i%337 == 336 {
					flat.Merge(side)
					oracle.Merge(sideOracle)
					sameMG(t, fmt.Sprintf("merge after %d", i), flat, oracle, tc.universe)
					side.Reset()
					sideOracle = newMapMG(tc.k)
				}
			}
			sameMG(t, "end", flat, oracle, tc.universe)
			sameMG(t, "side", side, sideOracle, tc.universe)
		})
	}
}

// TestMisraGriesResetIsFresh: a reset summary fed a stream matches a new
// one fed the same stream, and stops allocating.
func TestMisraGriesResetIsFresh(t *testing.T) {
	keys, ws, _ := zipfStream(41, 5000, 3000, 1.1, true)
	feed := func(m *MisraGries) {
		for i := range keys {
			m.Update(keys[i], ws[i])
		}
	}
	used, fresh := NewMisraGries(50), NewMisraGries(50)
	feed(used)
	used.Reset()
	feed(used)
	feed(fresh)
	if fmt.Sprint(used.Items()) != fmt.Sprint(fresh.Items()) || used.Total() != fresh.Total() {
		t.Fatal("reset summary differs from a fresh one")
	}
	if avg := testing.AllocsPerRun(3, func() { used.Reset(); feed(used) }); avg != 0 {
		t.Errorf("reset summary allocates %.1f objects per stream", avg)
	}
}
