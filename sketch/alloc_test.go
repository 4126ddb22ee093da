package sketch

import (
	"testing"

	"forwarddecay/internal/core"
)

// Allocation guards for the sketch hot paths. The O(1)-amortised kernels
// must not allocate in steady state: SpaceSaving reuses its entry array,
// open-addressing index and min-window candidate heap; QDigest reuses its
// node map and compaction scratch. These tests pin that property so a
// regression shows up as a test failure, not just a bench delta.

func TestSpaceSavingUpdateSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	const k, nKeys = 64, 4096
	rng := core.NewRNG(7)
	keys := make([]uint64, nKeys)
	ws := make([]float64, nKeys)
	for i := range keys {
		keys[i] = uint64(rng.Intn(10000))
		ws[i] = 0.5 + rng.Float64()
	}
	ss := NewSpaceSavingK(k)
	// Warm up over several full cycles: the entry array reaches capacity,
	// the index is sized, and the min-window hits its high-water capacity.
	for pass := 0; pass < 4; pass++ {
		for i := range keys {
			ss.Update(keys[i], ws[i])
		}
	}
	i := 0
	avg := testing.AllocsPerRun(5000, func() {
		ss.Update(keys[i&(nKeys-1)], ws[i&(nKeys-1)])
		i++
	})
	if avg != 0 {
		t.Errorf("steady-state SpaceSaving.Update allocates %.2f objects/op, want 0", avg)
	}
}

func TestQDigestUpdateSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	const nVals = 256
	rng := core.NewRNG(11)
	vals := make([]uint64, nVals)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << 16))
	}
	q := NewQDigest(1<<16, 0.05)
	// Warm up: materialize every leaf and let the automatic compactions
	// settle the node map and scratch buffer at their working sizes.
	for pass := 0; pass < 4; pass++ {
		for i := range vals {
			q.Update(vals[i], 1+float64(i&7))
		}
	}
	q.Compress()
	i := 0
	avg := testing.AllocsPerRun(5000, func() {
		q.Update(vals[i&(nVals-1)], 1+float64(i&7))
		i++
	})
	if avg != 0 {
		t.Errorf("steady-state QDigest.Update allocates %.2f objects/op, want 0", avg)
	}
}

func TestQDigestCompressWarmAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	rng := core.NewRNG(13)
	q := NewQDigest(1<<12, 0.1)
	for i := 0; i < 4000; i++ {
		q.Update(uint64(rng.Intn(1<<12)), 0.5+rng.Float64())
	}
	q.Compress() // warm the scratch buffer
	avg := testing.AllocsPerRun(200, func() { q.Compress() })
	if avg != 0 {
		t.Errorf("warm QDigest.Compress allocates %.2f objects/op, want 0", avg)
	}
}

// TestQDigestQuantileWarmAllocs: a quantile query sorts the node ids in the
// compaction scratch, so a warm digest answers without allocating.
func TestQDigestQuantileWarmAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	rng := core.NewRNG(17)
	q := NewQDigest(1<<12, 0.1)
	for i := 0; i < 2048; i++ {
		q.Update(uint64(rng.Intn(1<<12)), 0.5+rng.Float64())
	}
	q.Quantile(0.5) // warm the scratch buffer
	phis := []float64{0.5, 0.01, 0.99, 0.25}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		q.Quantile(phis[i%len(phis)])
		i++
	})
	if avg != 0 {
		t.Errorf("warm QDigest.Quantile allocates %.2f objects/op, want 0", avg)
	}
}
