package agg

import (
	"math"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/internal/codec/codectest"
	"forwarddecay/internal/core"
)

func TestCounterRoundTrip(t *testing.T) {
	for _, m := range []decay.Forward{
		decay.NewForward(decay.NewPoly(2), 100),
		decay.NewForward(decay.NewExp(0.25), -5),
		decay.NewForward(decay.None{}, 0),
		decay.NewForward(decay.LandmarkWindow{}, 7),
		decay.NewForward(decay.NewPolySum(1, 0, 2), 3),
	} {
		c := NewCounter(m)
		rng := core.NewRNG(1)
		for i := 0; i < 500; i++ {
			c.Observe(m.Landmark + 1 + 100*rng.Float64())
		}
		b, err := c.MarshalBinary()
		if err != nil {
			t.Fatalf("%v: %v", m.Func, err)
		}
		var d Counter
		if err := d.UnmarshalBinary(b); err != nil {
			t.Fatalf("%v: %v", m.Func, err)
		}
		tq := m.Landmark + 200
		if !almostEq(d.Value(tq), c.Value(tq), 1e-12) {
			t.Errorf("%v: decoded %v, want %v", m.Func, d.Value(tq), c.Value(tq))
		}
		if d.N() != c.N() {
			t.Errorf("%v: N %d != %d", m.Func, d.N(), c.N())
		}
		// Decoded aggregates keep working and merging.
		d.Observe(tq)
		if err := d.Merge(c); err != nil {
			t.Errorf("%v: merge after decode: %v", m.Func, err)
		}
	}
}

func TestSumRoundTripWithRebasedState(t *testing.T) {
	m := decay.NewForward(decay.NewExp(1), 0)
	s := NewSum(m)
	for i := 0; i < 3000; i++ {
		s.Observe(float64(i), 2.5) // forces internal rebasing
	}
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Sum
	if err := d.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	const tq = 3000
	if !almostEq(d.Value(tq), s.Value(tq), 1e-9) {
		t.Errorf("decoded sum %v, want %v", d.Value(tq), s.Value(tq))
	}
	if !almostEq(d.Mean(), s.Mean(), 1e-9) {
		t.Errorf("decoded mean %v, want %v", d.Mean(), s.Mean())
	}
	if !almostEq(d.Variance(), s.Variance(), 1e-6) {
		t.Errorf("decoded variance %v, want %v", d.Variance(), s.Variance())
	}
}

func TestHeavyHittersRoundTrip(t *testing.T) {
	m := decay.NewForward(decay.NewPoly(2), -1)
	h := NewHeavyHittersK(m, 32)
	keys, ts := decayedZipfStream(91, 10000, 300)
	for i := range keys {
		h.Observe(keys[i], ts[i])
	}
	b, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d HeavyHitters
	if err := d.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	tq := ts[len(ts)-1]
	if !almostEq(d.DecayedCount(tq), h.DecayedCount(tq), 1e-9) {
		t.Fatalf("decoded C %v, want %v", d.DecayedCount(tq), h.DecayedCount(tq))
	}
	a, bq := h.Query(tq, 0.05), d.Query(tq, 0.05)
	if len(a) != len(bq) {
		t.Fatalf("decoded HH count %d, want %d", len(bq), len(a))
	}
	for i := range a {
		if a[i].Key != bq[i].Key || !almostEq(a[i].Count, bq[i].Count, 1e-9) {
			t.Errorf("decoded HH %d: %+v vs %+v", i, bq[i], a[i])
		}
	}
	// Decoded summaries merge with live ones.
	if err := d.Merge(h); err != nil {
		t.Errorf("merge after decode: %v", err)
	}
}

func TestQuantilesRoundTrip(t *testing.T) {
	m := decay.NewForward(decay.NewExp(0.01), 0)
	q := NewQuantiles(m, 1024, 0.05)
	rng := core.NewRNG(2)
	for i := 0; i < 8000; i++ {
		q.Observe(uint64(rng.Intn(1024)), float64(i)*0.01)
	}
	b, err := q.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Quantiles
	if err := d.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{0.25, 0.5, 0.75} {
		if d.Quantile(phi) != q.Quantile(phi) {
			t.Errorf("decoded quantile(%v) = %d, want %d", phi, d.Quantile(phi), q.Quantile(phi))
		}
	}
	if !almostEq(d.DecayedCount(80), q.DecayedCount(80), 1e-9) {
		t.Errorf("decoded C %v, want %v", d.DecayedCount(80), q.DecayedCount(80))
	}
}

func TestMinMaxRoundTrip(t *testing.T) {
	m := decay.NewForward(decay.NewExp(0.1), 0)
	mx, mn := NewMax(m), NewMin(m)
	ts, vs := randomStream(92, 500, 1, 300)
	for i := range ts {
		mx.Observe(ts[i], vs[i])
		mn.Observe(ts[i], vs[i])
	}
	bx, err := mx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var dx Max
	if err := dx.UnmarshalBinary(bx); err != nil {
		t.Fatal(err)
	}
	if !almostEq(dx.Value(400), mx.Value(400), 1e-12) {
		t.Errorf("decoded max %v, want %v", dx.Value(400), mx.Value(400))
	}
	bn, err := mn.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var dn Min
	if err := dn.UnmarshalBinary(bn); err != nil {
		t.Fatal(err)
	}
	if !almostEq(dn.Value(400), mn.Value(400), 1e-12) {
		t.Errorf("decoded min %v, want %v", dn.Value(400), mn.Value(400))
	}
	// Tags are distinct: a Max encoding is not a Min.
	if err := dn.UnmarshalBinary(bx); err == nil {
		t.Error("Min accepted a Max encoding")
	}
	// Empty round trip.
	var emptyMax Max
	eb, err := NewMax(m).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := emptyMax.UnmarshalBinary(eb); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := emptyMax.Arg(); ok {
		t.Error("decoded empty Max claims a value")
	}
}

func TestDistinctExactRoundTrip(t *testing.T) {
	m := decay.NewForward(decay.NewPoly(2), -1)
	d := NewDistinctExact(m)
	keys, ts := decayedZipfStream(93, 5000, 400)
	for i := range keys {
		d.Observe(keys[i], ts[i])
	}
	b, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var dd DistinctExact
	if err := dd.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	tq := ts[len(ts)-1]
	if !almostEq(dd.Value(tq), d.Value(tq), 1e-12) {
		t.Errorf("decoded D %v, want %v", dd.Value(tq), d.Value(tq))
	}
	if dd.Keys() != d.Keys() {
		t.Errorf("decoded keys %d, want %d", dd.Keys(), d.Keys())
	}
	if err := dd.Merge(d); err != nil {
		t.Errorf("merge after decode: %v", err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var c Counter
	var s Sum
	var h HeavyHitters
	var q Quantiles
	for _, b := range [][]byte{nil, {0xff}, {tagCounter}, []byte("hello world")} {
		if err := c.UnmarshalBinary(b); err == nil {
			t.Errorf("Counter accepted %v", b)
		}
		if err := s.UnmarshalBinary(b); err == nil {
			t.Errorf("Sum accepted %v", b)
		}
		if err := h.UnmarshalBinary(b); err == nil {
			t.Errorf("HeavyHitters accepted %v", b)
		}
		if err := q.UnmarshalBinary(b); err == nil {
			t.Errorf("Quantiles accepted %v", b)
		}
	}
	// Cross-type confusion is rejected by tag.
	cnt := NewCounter(decay.NewForward(decay.NewPoly(1), 0))
	cb, _ := cnt.MarshalBinary()
	if err := s.UnmarshalBinary(cb); err == nil {
		t.Error("Sum accepted a Counter encoding")
	}
}

func TestDecodedEmptyAggregates(t *testing.T) {
	m := decay.NewForward(decay.NewPoly(2), 0)
	c := NewCounter(m)
	b, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Counter
	if err := d.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if d.Value(10) != 0 || d.N() != 0 {
		t.Errorf("decoded empty counter: %v, %d", d.Value(10), d.N())
	}
	s := NewSum(m)
	sb, _ := s.MarshalBinary()
	var ds Sum
	if err := ds.UnmarshalBinary(sb); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(ds.Mean()) {
		t.Errorf("decoded empty sum mean = %v, want NaN", ds.Mean())
	}
}

// TestQuantilesMergeRefusesOtherDomain: a decoded partial carries its own
// domain, and merging it into a summary over another one is an error, as a
// model mismatch is.
func TestQuantilesMergeRefusesOtherDomain(t *testing.T) {
	m := decay.NewForward(decay.NewExp(0.01), 0)
	wide := NewQuantiles(m, 1<<16, 0.05)
	wide.Observe(40000, 1)
	b, err := wide.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec := NewQuantiles(m, 1<<10, 0.05)
	if err := dec.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	narrow := NewQuantiles(m, 1<<10, 0.05)
	narrow.Observe(3, 1)
	if err := narrow.Merge(dec); err == nil {
		t.Error("a 2^10-domain summary merged a 2^16-domain one")
	}
	if err := dec.Merge(narrow); err == nil {
		t.Error("a 2^16-domain summary merged a 2^10-domain one")
	}
}

// TestDecodersKeepNoInput: every aggregate decodes into state of its own —
// overwriting the input afterwards changes nothing the aggregate encodes.
func TestDecodersKeepNoInput(t *testing.T) {
	m := decay.NewForward(decay.NewPoly(2), -1)
	c, s, h := NewCounter(m), NewSum(m), NewHeavyHittersK(m, 8)
	mx, d, q := NewMax(m), NewDistinctExact(m), NewQuantiles(m, 64, 0.1)
	for i := 0; i < 50; i++ {
		ts := float64(i % 7)
		c.Observe(ts)
		s.Observe(ts, float64(i))
		h.Observe(uint64(i%5), ts)
		mx.Observe(ts, float64(i%11))
		d.Observe(uint64(i%13), ts)
	}
	q.Observe(9, 3) // one node: the digest's map order cannot vary
	for name, pair := range map[string][2]interface {
		MarshalBinary() ([]byte, error)
		UnmarshalBinary([]byte) error
	}{
		"counter": {c, &Counter{}}, "sum": {s, &Sum{}}, "heavyhitters": {h, &HeavyHitters{}},
		"max": {mx, &Max{}}, "distinct": {d, &DistinctExact{}}, "quantiles": {q, &Quantiles{}},
	} {
		t.Run(name, func(t *testing.T) {
			enc, err := pair[0].MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			codectest.NoRetain(t, enc, pair[1].UnmarshalBinary, pair[1].MarshalBinary)
		})
	}
}
