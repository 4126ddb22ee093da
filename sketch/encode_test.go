package sketch

import (
	"math"
	"runtime"
	"testing"

	"forwarddecay/internal/codec"
	"forwarddecay/internal/codec/codectest"
	"forwarddecay/internal/core"
)

func TestSpaceSavingRoundTrip(t *testing.T) {
	keys, ws, _ := zipfStream(101, 20000, 500, 1.3, true)
	s := NewSpaceSavingK(64)
	for i := range keys {
		s.Update(keys[i], ws[i])
	}
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d SpaceSaving
	if err := d.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if d.Total() != s.Total() || d.K() != s.K() || d.Len() != s.Len() {
		t.Fatalf("header mismatch: %v/%v/%v vs %v/%v/%v",
			d.Total(), d.K(), d.Len(), s.Total(), s.K(), s.Len())
	}
	for _, ic := range s.HeavyHitters(0) {
		est, errB := d.Estimate(ic.Key)
		if est != ic.Count || errB != ic.Err {
			t.Fatalf("key %d: decoded (%v,%v), want (%v,%v)", ic.Key, est, errB, ic.Count, ic.Err)
		}
	}
	// Decoded sketches keep working.
	d.Update(999999, 5)
	if est, _ := d.Estimate(999999); est < 5 {
		t.Errorf("decoded sketch update broken: %v", est)
	}
}

// TestSpaceSavingDecodeSizesIndexFromEntries: the key index of a decoded
// summary is sized from the entries the input holds, not from its declared
// k, so a forged k costs nothing; the index then grows as the summary fills,
// and the summary behaves exactly like one built with k counters.
func TestSpaceSavingDecodeSizesIndexFromEntries(t *testing.T) {
	forged := ssHeader(1<<30, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var d SpaceSaving
	if err := d.UnmarshalBinary(forged); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("decoding a %d-byte empty summary allocated %d bytes", len(forged), grew)
	}

	const k = 300
	ref := NewSpaceSavingK(k)
	ref.Update(7, 3)
	ref.Update(8, 1)
	b, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got SpaceSaving
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if len(got.idx.vals) >= len(ref.idx.vals) {
		t.Fatalf("decoded index has %d slots for 2 entries (k=%d)", len(got.idx.vals), k)
	}
	keys, ws, _ := zipfStream(103, 5000, 2000, 1.1, true)
	for i := range keys {
		ref.Update(keys[i], ws[i])
		got.Update(keys[i], ws[i])
	}
	want, have := ref.Top(k), got.Top(k)
	if len(want) != len(have) {
		t.Fatalf("decoded summary holds %d entries, want %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("entry %d: decoded summary %+v, want %+v", i, have[i], want[i])
		}
	}
	if 4*got.Len() > len(got.idx.vals) {
		t.Fatalf("index load above 1/4: %d entries in %d slots", got.Len(), len(got.idx.vals))
	}
}

// ssHeader encodes a SpaceSaving header declaring k counters and n entries.
func ssHeader(k, n uint64) []byte {
	b := codec.AppendU64([]byte{tagSpaceSaving}, k)
	return codec.AppendU64(codec.AppendF64(b, 0), n)
}

func TestQDigestRoundTrip(t *testing.T) {
	rng := core.NewRNG(102)
	q := NewQDigest(1<<10, 0.05)
	for i := 0; i < 20000; i++ {
		q.Update(uint64(rng.Intn(1<<10)), 1+rng.Float64())
	}
	b, err := q.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d QDigest
	if err := d.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Total()-q.Total()) > 1e-9 || d.U() != q.U() {
		t.Fatalf("header mismatch")
	}
	for _, v := range []uint64{10, 100, 500, 1000} {
		// Rank sums node weights in map order; allow float-summation jitter.
		if math.Abs(d.Rank(v)-q.Rank(v)) > 1e-9*q.Total() {
			t.Errorf("Rank(%d): decoded %v, want %v", v, d.Rank(v), q.Rank(v))
		}
	}
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		if d.Quantile(phi) != q.Quantile(phi) {
			t.Errorf("Quantile(%v) mismatch", phi)
		}
	}
}

func TestKMVRoundTrip(t *testing.T) {
	s := NewKMV(128)
	for i := 0; i < 5000; i++ {
		s.Insert(uint64(i))
	}
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d KMV
	if err := d.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if d.Estimate() != s.Estimate() || d.Len() != s.Len() || d.K() != s.K() {
		t.Fatalf("decoded KMV differs: %v/%d vs %v/%d", d.Estimate(), d.Len(), s.Estimate(), s.Len())
	}
	// Continues to dedupe correctly after decoding.
	before := d.Len()
	d.Insert(42) // already present
	if d.Len() != before {
		t.Error("decoded KMV lost membership state")
	}
}

func TestMisraGriesRoundTrip(t *testing.T) {
	keys, ws, _ := zipfStream(103, 10000, 300, 1.2, true)
	m := NewMisraGries(40)
	for i := range keys {
		m.Update(keys[i], ws[i])
	}
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d MisraGries
	if err := d.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if d.Total() != m.Total() || d.Len() != m.Len() {
		t.Fatalf("header mismatch")
	}
	for _, ic := range m.Items() {
		if d.Estimate(ic.Key) != ic.Count {
			t.Errorf("key %d: decoded %v, want %v", ic.Key, d.Estimate(ic.Key), ic.Count)
		}
	}
}

// mgEncoding builds a MisraGries encoding by hand: k, total, then the
// given key/count pairs in the order given.
func mgEncoding(k uint64, total float64, pairs ...[2]float64) []byte {
	b := codec.AppendU64([]byte{tagMisraGries}, k)
	b = codec.AppendU64(codec.AppendF64(b, total), uint64(len(pairs)))
	for _, p := range pairs {
		b = codec.AppendF64(codec.AppendU64(b, uint64(p[0])), p[1])
	}
	return b
}

// TestMisraGriesEncodingCanonical: the encoding lists counters in ascending
// key order, so summaries holding the same counters encode to the same
// bytes whatever order they were built in, and a decode re-encodes exactly.
func TestMisraGriesEncodingCanonical(t *testing.T) {
	a, b := NewMisraGries(64), NewMisraGries(64)
	for i := uint64(0); i < 50; i++ {
		a.Update(i*2654435761, float64(1+i%7))
	}
	for i := uint64(50); i > 0; i-- {
		b.Update((i-1)*2654435761, float64(1+(i-1)%7))
	}
	ea, _ := a.MarshalBinary()
	eb, _ := b.MarshalBinary()
	if string(ea) != string(eb) {
		t.Fatal("equal summaries built in different orders encode differently")
	}
	var d MisraGries
	if err := d.UnmarshalBinary(ea); err != nil {
		t.Fatal(err)
	}
	if ed, _ := d.MarshalBinary(); string(ed) != string(ea) {
		t.Fatal("decoded summary re-encodes differently")
	}
	m := NewMisraGries(3)
	m.Update(7, 3)
	m.Update(2, 2)
	m.Update(1, 1)
	want := mgEncoding(3, 6, [2]float64{1, 1}, [2]float64{2, 2}, [2]float64{7, 3})
	if got, _ := m.MarshalBinary(); string(got) != string(want) {
		t.Errorf("encoding %x, want %x", got, want)
	}
}

// TestMisraGriesDecodeRejects: the decoder takes only what MarshalBinary
// writes — strictly ascending keys, finite positive counts, a finite total.
func TestMisraGriesDecodeRejects(t *testing.T) {
	for name, b := range map[string][]byte{
		"duplicate key":  mgEncoding(4, 3, [2]float64{5, 1}, [2]float64{5, 2}),
		"descending key": mgEncoding(4, 3, [2]float64{6, 1}, [2]float64{5, 2}),
		"NaN count":      mgEncoding(4, 3, [2]float64{5, math.NaN()}),
		"+Inf count":     mgEncoding(4, 3, [2]float64{5, math.Inf(1)}),
		"-Inf count":     mgEncoding(4, 3, [2]float64{5, math.Inf(-1)}),
		"zero count":     mgEncoding(4, 3, [2]float64{5, 0}),
		"negative count": mgEncoding(4, 3, [2]float64{5, -1}),
		"NaN total":      mgEncoding(4, math.NaN(), [2]float64{5, 1}),
		"+Inf total":     mgEncoding(4, math.Inf(1)),
		"too many":       mgEncoding(1, 3, [2]float64{5, 1}, [2]float64{6, 2}),
	} {
		var m MisraGries
		if err := m.UnmarshalBinary(b); err == nil {
			t.Errorf("%s: accepted", name)
		} else if _, ok := err.(*codec.Error); !ok {
			t.Errorf("%s: error %T, want *codec.Error", name, err)
		}
	}
	var m MisraGries
	if err := m.UnmarshalBinary(mgEncoding(4, 3, [2]float64{5, 1}, [2]float64{6, 2})); err != nil {
		t.Errorf("well-formed encoding refused: %v", err)
	}
}

func TestDominanceRoundTrip(t *testing.T) {
	rng := core.NewRNG(104)
	s := NewDominance(128, 1.1, 256)
	for i := 0; i < 5000; i++ {
		s.Update(uint64(rng.Intn(500)), 8*rng.Float64())
	}
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Dominance
	if err := d.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if d.LogEstimate() != s.LogEstimate() {
		t.Fatalf("decoded estimate %v, want %v", d.LogEstimate(), s.LogEstimate())
	}
	// Decoded estimators merge with live ones.
	d.Merge(s)
	if math.IsNaN(d.LogEstimate()) {
		t.Error("merge after decode produced NaN")
	}

	// Empty round trip.
	e := NewDominance(16, 2, 8)
	eb, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var de Dominance
	if err := de.UnmarshalBinary(eb); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(de.LogEstimate(), -1) {
		t.Errorf("decoded empty Dominance estimate = %v", de.LogEstimate())
	}
}

func TestEncodingsRejectGarbage(t *testing.T) {
	garbage := [][]byte{nil, {0x00}, {0xff, 1, 2, 3}, []byte("short"), {tagSpaceSaving, 1}}
	for _, b := range garbage {
		if err := (&SpaceSaving{}).UnmarshalBinary(b); err == nil {
			t.Errorf("SpaceSaving accepted %v", b)
		}
		if err := (&QDigest{}).UnmarshalBinary(b); err == nil {
			t.Errorf("QDigest accepted %v", b)
		}
		if err := (&KMV{}).UnmarshalBinary(b); err == nil {
			t.Errorf("KMV accepted %v", b)
		}
		if err := (&MisraGries{}).UnmarshalBinary(b); err == nil {
			t.Errorf("MisraGries accepted %v", b)
		}
		if err := (&Dominance{}).UnmarshalBinary(b); err == nil {
			t.Errorf("Dominance accepted %v", b)
		}
	}
	// Cross-type confusion rejected.
	k := NewKMV(8)
	k.Insert(1)
	kb, _ := k.MarshalBinary()
	if err := (&SpaceSaving{}).UnmarshalBinary(kb); err == nil {
		t.Error("SpaceSaving accepted a KMV encoding")
	}
	// A Dominance span whose int64 difference wraps: were it accepted, the
	// first Update would prune ~2^64 levels.
	wide := codec.AppendF64([]byte{tagDominance}, math.Log(1.05))
	wide = codec.AppendF64(codec.AppendU64(codec.AppendU64(wide, 16), 64), 0)
	wide = codec.AppendU64(codec.AppendU64(append(wide, 1), 1<<63), 1<<63-1)
	if err := (&Dominance{}).UnmarshalBinary(codec.AppendU64(wide, 0)); err == nil {
		t.Error("Dominance accepted a span of 2^64 levels")
	}
	// Trailing bytes rejected.
	s := NewSpaceSavingK(4)
	s.Update(1, 1)
	sb, _ := s.MarshalBinary()
	if err := (&SpaceSaving{}).UnmarshalBinary(append(sb, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestDecodersKeepNoInput: every summary decodes into state of its own —
// overwriting the input afterwards changes nothing the summary encodes.
func TestDecodersKeepNoInput(t *testing.T) {
	ss, kmv, dom, mg := NewSpaceSavingK(8), NewKMV(16), NewDominance(16, 2, 8), NewMisraGries(8)
	for i := uint64(0); i < 40; i++ {
		ss.Update(i%11, float64(1+i%3))
		kmv.Insert(i * 2654435761)
		mg.Update(i%11, float64(1+i%3))
	}
	dom.Update(5, 1) // one level: the level map's order cannot vary
	for name, pair := range map[string][2]interface {
		MarshalBinary() ([]byte, error)
		UnmarshalBinary([]byte) error
	}{
		"spacesaving": {ss, &SpaceSaving{}}, "kmv": {kmv, &KMV{}}, "dominance": {dom, &Dominance{}},
		"misragries": {mg, &MisraGries{}},
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
