package agg

import (
	"testing"

	"forwarddecay/decay"
	"forwarddecay/internal/core"
)

// Baseline micro-benchmarks for the decayed aggregates' hot paths, so perf
// changes show up in `go test -bench . ./agg/`.

func benchModel() decay.Forward { return decay.NewForward(decay.NewPoly(2), 0) }

func BenchmarkCounterObserve(b *testing.B) {
	c := NewCounter(benchModel())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Observe(1 + float64(i)*1e-6)
	}
	_ = c.Value(float64(b.N))
}

func BenchmarkCounterObserveExp(b *testing.B) {
	// Exponential decay exercises the periodic log-domain rescaling.
	c := NewCounter(decay.NewForward(decay.NewExp(0.1), 0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Observe(float64(i) * 1e-3)
	}
	_ = c.Value(float64(b.N) * 1e-3)
}

func BenchmarkSumObserve(b *testing.B) {
	s := NewSum(benchModel())
	rng := core.NewRNG(1)
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(1+float64(i)*1e-6, vals[i&1023])
	}
	_ = s.Value(float64(b.N))
}

func BenchmarkHeavyHittersObserve(b *testing.B) {
	h := NewHeavyHittersK(benchModel(), 256)
	rng := core.NewRNG(2)
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = rng.Uint64() % 10_000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(keys[i&4095], 1+float64(i)*1e-6)
	}
}
