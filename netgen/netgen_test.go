package netgen

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
)

func TestGeneratorDeterministic(t *testing.T) {
	a := New(DefaultConfig(1000, 42))
	b := New(DefaultConfig(1000, 42))
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must generate the same stream")
		}
	}
	c := New(DefaultConfig(1000, 43))
	if a.Next() == c.Next() {
		t.Error("different seeds should diverge")
	}
}

func TestGeneratorRate(t *testing.T) {
	g := New(DefaultConfig(100000, 1))
	const n = 200000
	var last float64
	for i := 0; i < n; i++ {
		last = g.Next().Time
	}
	// 200k packets at 100k pkt/s should span ≈ 2 seconds.
	if math.Abs(last-2) > 0.1 {
		t.Errorf("200k packets span %v s at 100k pkt/s, want ≈ 2", last)
	}
	if g.N() != n {
		t.Errorf("N = %d", g.N())
	}
}

func TestGeneratorTimestampsMonotone(t *testing.T) {
	g := New(DefaultConfig(5000, 2))
	prev := -1.0
	for i := 0; i < 10000; i++ {
		p := g.Next()
		if p.Time <= prev {
			t.Fatalf("timestamps not strictly increasing at %d", i)
		}
		prev = p.Time
	}
}

func TestGeneratorZipfSkew(t *testing.T) {
	cfg := DefaultConfig(10000, 3)
	cfg.Hosts = 1000
	g := New(cfg)
	counts := map[uint32]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[g.Next().DstIP]++
	}
	// Skewed: the single most popular host should carry several percent of
	// traffic, and thousands of hosts should appear overall.
	var max int
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/n < 0.02 {
		t.Errorf("top host carries %v of traffic; expected Zipf head ≥ 2%%", float64(max)/n)
	}
	if len(counts) < 300 {
		t.Errorf("only %d distinct hosts seen; expected a long tail", len(counts))
	}
	// Head ranks must dominate tail ranks.
	var cs []int
	for _, c := range counts {
		cs = append(cs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(cs)))
	top10 := 0
	for _, c := range cs[:10] {
		top10 += c
	}
	if float64(top10)/n < 0.15 {
		t.Errorf("top-10 hosts carry %v; expected ≥ 15%%", float64(top10)/n)
	}
}

func TestGeneratorProtocolMixAndSizes(t *testing.T) {
	cfg := DefaultConfig(10000, 4)
	cfg.TCPFraction = 0.85
	g := New(cfg)
	const n = 100000
	tcp := 0
	var bytesTotal float64
	for i := 0; i < n; i++ {
		p := g.Next()
		if p.Proto == ProtoTCP {
			tcp++
		} else if p.Proto != ProtoUDP {
			t.Fatalf("unexpected protocol %d", p.Proto)
		}
		if p.Len < 40 || p.Len > 1500 {
			t.Fatalf("packet length %d outside [40,1500]", p.Len)
		}
		bytesTotal += float64(p.Len)
	}
	frac := float64(tcp) / n
	if math.Abs(frac-0.85) > 0.05 {
		t.Errorf("TCP fraction %v, want ≈ 0.85", frac)
	}
	mean := bytesTotal / n
	if mean < 300 || mean > 900 {
		t.Errorf("mean packet size %v outside the plausible internet mix", mean)
	}
}

func TestOutOfOrderDelivery(t *testing.T) {
	cfg := DefaultConfig(1000, 5)
	cfg.OutOfOrder = 64
	g := New(cfg)
	inversions := 0
	prev := -1.0
	const n = 20000
	minTS, maxTS := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		p := g.Next()
		if p.Time < prev {
			inversions++
		}
		prev = p.Time
		minTS = math.Min(minTS, p.Time)
		maxTS = math.Max(maxTS, p.Time)
	}
	if inversions == 0 {
		t.Error("OutOfOrder produced a perfectly ordered stream")
	}
	if inversions > n/2 {
		t.Errorf("%d/%d inversions; reordering should be local", inversions, n)
	}
	if maxTS <= minTS {
		t.Error("degenerate timestamps")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	g := New(DefaultConfig(1000, 7))
	pkts := g.Take(nil, 5000)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pkts) {
		t.Fatalf("read %d packets, wrote %d", len(got), len(pkts))
	}
	for i := range pkts {
		if got[i] != pkts[i] {
			t.Fatalf("packet %d differs: %+v vs %+v", i, got[i], pkts[i])
		}
	}
}

func TestStreamTraceMatchesReadTrace(t *testing.T) {
	g := New(DefaultConfig(1000, 14))
	pkts := g.Take(nil, 3000)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var streamed []Packet
	if err := StreamTrace(bytes.NewReader(data), func(p Packet) error {
		streamed = append(streamed, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(pkts) {
		t.Fatalf("streamed %d, want %d", len(streamed), len(pkts))
	}
	for i := range pkts {
		if streamed[i] != pkts[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
	// Early stop propagates the callback's error.
	stop := fmt.Errorf("stop")
	n := 0
	err := StreamTrace(bytes.NewReader(data), func(Packet) error {
		n++
		if n == 10 {
			return stop
		}
		return nil
	})
	if err != stop || n != 10 {
		t.Errorf("early stop: err=%v n=%d", err, n)
	}
	if err := StreamTrace(bytes.NewReader([]byte("garbage")), func(Packet) error { return nil }); err == nil {
		t.Error("expected error for bad magic")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Error("expected error for bad magic")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("expected error for empty input")
	}
}

// TestReadTraceForgedCountAllocatesNothing: a 12-byte header claiming a
// million packets, followed by no records, must fail without first
// allocating room for the records it claims.
func TestReadTraceForgedCountAllocatesNothing(t *testing.T) {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], traceMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTrace(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ReadTrace accepted a header with no records")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("ReadTrace allocated %d bytes for a forged count", d)
	}
}

func TestFormatIP(t *testing.T) {
	if got := FormatIP(0x0a000001); got != "10.0.0.1" {
		t.Errorf("FormatIP = %q", got)
	}
	if got := FormatIP(0xc0a80164); got != "192.168.1.100" {
		t.Errorf("FormatIP = %q", got)
	}
}

func TestDestKeyDistinguishesPorts(t *testing.T) {
	a := Packet{DstIP: 1, DstPort: 80}
	b := Packet{DstIP: 1, DstPort: 443}
	c := Packet{DstIP: 2, DstPort: 80}
	if a.DestKey() == b.DestKey() || a.DestKey() == c.DestKey() {
		t.Error("DestKey collisions across distinct destinations")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	cfg := DefaultConfig(1000, 1)
	cfg.Rate = 0
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero rate")
		}
	}()
	New(cfg)
}

func TestGroupCardinalityPerMinute(t *testing.T) {
	// The paper's queries generate "tens of thousands of groups" per
	// minute; at full rate our generator must produce a comparable
	// destination cardinality.
	g := New(DefaultConfig(100000, 8))
	groups := map[uint64]struct{}{}
	for g.Now() < 60 {
		groups[g.Next().DestKey()] = struct{}{}
	}
	if len(groups) < 5000 {
		t.Errorf("only %d distinct destination groups in a minute; expected thousands", len(groups))
	}
}
