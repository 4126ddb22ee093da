package window

import (
	"math"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/internal/core"
)

type ev struct {
	ts  float64
	key uint64
	v   float64
}

// genStream produces a skewed, timestamp-ordered keyed stream.
func genStream(seed uint64, n int, rate float64, universe int) []ev {
	rng := core.NewRNG(seed)
	out := make([]ev, n)
	ts := 0.0
	for i := range out {
		ts += rng.ExpFloat64() / rate
		k := 1 + int(math.Floor(1/math.Sqrt(rng.Float64())))
		if k > universe {
			k = universe
		}
		out[i] = ev{ts: ts, key: uint64(k), v: 40 + float64(rng.Intn(1460))}
	}
	return out
}

func TestBackwardSumMatchesExact(t *testing.T) {
	evs := genStream(1, 40000, 100, 500)
	bs := NewBackwardSum(0.05, 0)
	for _, e := range evs {
		bs.Observe(e.ts, e.v)
	}
	now := evs[len(evs)-1].ts
	for _, f := range []decay.AgeFunc{
		decay.NewAgePoly(1),
		decay.NewAgeExp(0.05),
		decay.NewSlidingWindow(60),
	} {
		var want float64
		f0 := f.Eval(0)
		for _, e := range evs {
			want += e.v * f.Eval(now-e.ts) / f0
		}
		got := bs.Value(f, now)
		if math.Abs(got-want) > 0.15*want {
			t.Errorf("%v: decayed sum %v, want %v ± 15%%", f, got, want)
		}
	}
}

// TestBackwardCountWindowed: a windowed count is a BackwardSum over unit
// values.
func TestBackwardCountWindowed(t *testing.T) {
	evs := genStream(2, 30000, 200, 500)
	bc := NewBackwardSum(0.05, 120)
	for _, e := range evs {
		bc.Observe(e.ts, 1)
	}
	now := evs[len(evs)-1].ts
	w := decay.NewSlidingWindow(60)
	var want float64
	for _, e := range evs {
		if now-e.ts < 60 {
			want++
		}
	}
	got := bc.Value(w, now)
	if math.Abs(got-want) > 0.15*want {
		t.Errorf("window count %v, want %v", got, want)
	}
	if bc.eh.Len() == 0 || bc.SizeBytes() <= 0 {
		t.Error("bucket/size accounting broken")
	}
}

// TestBackwardSumSpaceGap documents the core claim of Figure 2(d): the
// backward-decay state is orders of magnitude larger than the 8 bytes a
// forward-decayed sum needs.
func TestBackwardSumSpaceGap(t *testing.T) {
	evs := genStream(3, 50000, 400, 500)
	bs := NewBackwardSum(0.01, 60)
	for _, e := range evs {
		bs.Observe(e.ts, e.v)
	}
	if bs.SizeBytes() < 100*8 {
		t.Errorf("backward sum uses %d bytes; expected ≫ 8 (kilobytes)", bs.SizeBytes())
	}
}

func exactWindowCounts(evs []ev, t, w float64) (map[uint64]float64, float64) {
	m := make(map[uint64]float64)
	var total float64
	for _, e := range evs {
		if e.ts > t-w && e.ts <= t {
			m[e.key]++
			total++
		}
	}
	return m, total
}

func TestWindowHeavyHittersGuarantee(t *testing.T) {
	evs := genStream(4, 60000, 300, 2000)
	const W, eps, phi = 60.0, 0.02, 0.05
	h := NewHeavyHitters(W, eps)
	for _, e := range evs {
		h.Observe(e.key, e.ts, 1)
	}
	now := evs[len(evs)-1].ts
	exact, total := exactWindowCounts(evs, now, W)
	if got := h.WindowTotal(now); math.Abs(got-total) > 0.1*total {
		t.Fatalf("window total %v, want %v", got, total)
	}
	got := h.Query(now, phi)
	gotSet := map[uint64]bool{}
	for _, ic := range got {
		gotSet[ic.Key] = true
	}
	for k, c := range exact {
		if c >= phi*total && !gotSet[k] {
			t.Errorf("missed window heavy hitter %d (count %v ≥ %v)", k, c, phi*total)
		}
	}
	for _, ic := range got {
		if exact[ic.Key] < (phi-3*eps)*total {
			t.Errorf("false positive %d: true %v < %v", ic.Key, exact[ic.Key], (phi-3*eps)*total)
		}
	}
}

func TestWindowHHExpiresOldItems(t *testing.T) {
	h := NewHeavyHitters(10, 0.1)
	// Key 7 dominates early, then disappears; after a window passes it must
	// not be reported.
	for ts := 0.0; ts < 10; ts += 0.01 {
		h.Observe(7, ts, 1)
	}
	for ts := 10.0; ts < 25; ts += 0.01 {
		h.Observe(9, ts, 1)
	}
	got := h.Query(25, 0.2)
	for _, ic := range got {
		if ic.Key == 7 {
			t.Errorf("expired key 7 still reported: %+v", got)
		}
	}
	if len(got) == 0 || got[0].Key != 9 {
		t.Errorf("expected key 9 as the window heavy hitter, got %+v", got)
	}
}

func TestWindowHHDecayedQuery(t *testing.T) {
	evs := genStream(5, 50000, 250, 1500)
	const W = 120.0
	h := NewHeavyHitters(W, 0.02)
	for _, e := range evs {
		h.Observe(e.key, e.ts, 1)
	}
	now := evs[len(evs)-1].ts
	f := decay.NewAgeExp(0.05)
	// Exact decayed counts (restricted to the window horizon, where the
	// structure retains data; weight beyond it is e^{-6} ≈ negligible).
	exact := make(map[uint64]float64)
	var total float64
	for _, e := range evs {
		a := now - e.ts
		if a >= W {
			continue
		}
		w := f.Eval(a)
		exact[e.key] += w
		total += w
	}
	const phi = 0.05
	got := h.DecayedQuery(f, now, phi)
	gotSet := map[uint64]bool{}
	for _, ic := range got {
		gotSet[ic.Key] = true
		if math.Abs(ic.Count-exact[ic.Key]) > 0.25*exact[ic.Key]+total*0.02 {
			t.Errorf("key %d decayed count %v, want %v", ic.Key, ic.Count, exact[ic.Key])
		}
	}
	for k, c := range exact {
		if c >= phi*total && !gotSet[k] {
			t.Errorf("missed decayed heavy hitter %d (%v ≥ %v)", k, c, phi*total)
		}
	}
}

func TestWindowHHSpaceAndUpdateCost(t *testing.T) {
	evs := genStream(6, 30000, 300, 2000)
	h := NewHeavyHitters(60, 0.01)
	for _, e := range evs {
		h.Observe(e.key, e.ts, 1)
	}
	// The block hierarchy must be kilobytes-to-megabytes — vastly more than
	// a SpaceSaving with 1/eps = 100 counters (~10 KB).
	if h.SizeBytes() < 50_000 {
		t.Errorf("window HH uses %d bytes; expected a large multi-block structure", h.SizeBytes())
	}
	if h.Blocks() == 0 || h.levels < 2 {
		t.Errorf("blocks=%d levels=%d", h.Blocks(), h.levels)
	}
}

func TestWindowHHByteWeighted(t *testing.T) {
	evs := genStream(7, 40000, 200, 800)
	const W, phi = 60.0, 0.05
	h := NewHeavyHitters(W, 0.02)
	exact := make(map[uint64]float64)
	var total float64
	now := evs[len(evs)-1].ts
	for _, e := range evs {
		h.Observe(e.key, e.ts, e.v)
	}
	for _, e := range evs {
		if e.ts > now-W {
			exact[e.key] += e.v
			total += e.v
		}
	}
	got := h.Query(now, phi)
	gotSet := map[uint64]bool{}
	for _, ic := range got {
		gotSet[ic.Key] = true
	}
	for k, c := range exact {
		if c >= phi*total && !gotSet[k] {
			t.Errorf("missed byte-weighted heavy hitter %d", k)
		}
	}
}

func TestWindowHHPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"window": func() { NewHeavyHitters(0, 0.1) },
		"eps0":   func() { NewHeavyHitters(10, 0) },
		"eps1":   func() { NewHeavyHitters(10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	h := NewHeavyHitters(10, 0.1)
	h.Observe(1, 5, 0)  // ignored
	h.Observe(1, 5, -1) // ignored
	if h.WindowTotal(5) != 0 {
		t.Error("non-positive weights must be ignored")
	}
}
