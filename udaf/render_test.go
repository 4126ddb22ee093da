package udaf

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"forwarddecay/gsql"
	"forwarddecay/netgen"
	"forwarddecay/sketch"
	"forwarddecay/window"
)

// TestRenderHHMatchesSprintf: renderHH writes each pair byte for byte as
// fmt's "%d:%.6g" does, in the given order.
func TestRenderHHMatchesSprintf(t *testing.T) {
	counts := []float64{
		1, 0.5, 3, 123456789, 999999.5, 1e6, 100000, 1e-7, 1e21, 1.5e-300, 5e-324,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0, -2.25,
	}
	var items []sketch.ItemCount
	for i, c := range counts {
		items = append(items, sketch.ItemCount{Key: uint64(i) * 0x9e3779b97f4a7c15, Count: c})
	}
	items = append(items, sketch.ItemCount{Key: math.MaxUint64, Count: 7})
	for n := 0; n <= len(items); n++ {
		parts := make([]string, n)
		for i, ic := range items[:n] {
			parts[i] = fmt.Sprintf("%d:%.6g", ic.Key, ic.Count)
		}
		if got, want := renderHH(items[:n]).S, strings.Join(parts, ","); got != want {
			t.Errorf("%d items: %q, want %q", n, got, want)
		}
	}
}

// TestRenderSampleMatchesSortedStrings: renderSample joins the values'
// String renderings in ascending string order.
func TestRenderSampleMatchesSortedStrings(t *testing.T) {
	values := []gsql.Value{
		gsql.Int(1500), gsql.Int(-3), gsql.Int(40), gsql.Int(math.MinInt64), gsql.Int(40),
		gsql.Float(0.1), gsql.Float(1e21), gsql.Float(math.Inf(-1)), gsql.Float(math.NaN()), gsql.Float(math.Copysign(0, -1)),
		gsql.Str("10.0.0.1"), gsql.Str(""), gsql.Str("b,c"), gsql.Bool(true), gsql.Bool(false), gsql.Null,
	}
	for n := 0; n <= len(values); n++ {
		parts := make([]string, n)
		for i, v := range values[:n] {
			parts[i] = v.String()
		}
		sort.Strings(parts)
		if got, want := renderSample(values[:n]).S, strings.Join(parts, ","); got != want {
			t.Errorf("%d values: %q, want %q", n, got, want)
		}
	}
}

// TestBackwardAggsResetIsFresh: swhh and ehsum aggregators reset after one
// group and fed a second render the rows new ones do, and the reset
// structures refill a group they held before without allocating.
func TestBackwardAggsResetIsFresh(t *testing.T) {
	cfg := Config{}.withDefaults()
	newSWHH := func() *swhhAgg { return &swhhAgg{s: window.NewHeavyHitters(cfg.Window, cfg.Epsilon), phi: cfg.Phi} }
	newEH := func() *ehsumAgg { return &ehsumAgg{s: sketch.NewExpHistogram(cfg.Epsilon, cfg.Window), f: cfg.EHDecay} }
	group := func(seed uint64, n int) [][]gsql.Value {
		ncfg := netgen.DefaultConfig(400, seed)
		ncfg.OutOfOrder = 64
		var rows [][]gsql.Value
		for _, p := range netgen.New(ncfg).Take(nil, n) {
			rows = append(rows, []gsql.Value{gsql.Int(int64(p.DestKey())), gsql.Float(p.Time), gsql.Float(float64(p.Len))})
		}
		return rows
	}
	feed := func(sw *swhhAgg, eh *ehsumAgg, rows [][]gsql.Value) {
		for _, r := range rows {
			if err := sw.Step(r); err != nil {
				t.Fatal(err)
			}
			if err := eh.Step(r[1:]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The first group runs on past the second's end, so a reset that kept
	// its latest timestamp would query the second at the wrong time.
	first, second := group(1, 30_000), group(2, 20_000)
	sw, eh := newSWHH(), newEH()
	feed(sw, eh, first)
	sw.Reset()
	eh.Reset()
	feed(sw, eh, second)
	fsw, feh := newSWHH(), newEH()
	feed(fsw, feh, second)
	if got, want := sw.Final().S, fsw.Final().S; got != want || got == "" {
		t.Errorf("reset swhh renders %q, fresh %q", got, want)
	}
	if got, want := eh.Final().F, feh.Final().F; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("reset ehsum reads %v, fresh %v", got, want)
	}
	if sw.s.Blocks() != fsw.s.Blocks() || eh.s.Len() != feh.s.Len() {
		t.Errorf("reset structures hold %d blocks, %d buckets; fresh %d, %d", sw.s.Blocks(), eh.s.Len(), fsw.s.Blocks(), feh.s.Len())
	}
	if testing.Short() {
		return
	}
	if avg := testing.AllocsPerRun(3, func() {
		sw.Reset()
		eh.Reset()
		feed(sw, eh, second)
	}); avg != 0 {
		t.Errorf("reset aggregators allocate %.1f objects refilling a group they held", avg)
	}
}
