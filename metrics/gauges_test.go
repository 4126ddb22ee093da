package metrics

import (
	"sync"
	"testing"
)

func TestGaugeSetBasics(t *testing.T) {
	gs := NewGaugeSet()
	gs.Set("ratio", 0.75)
	gs.Set("queries", 1000)
	gs.Set("ratio", 0.5) // gauges move both ways
	if v := gs.Gauge("ratio").Value(); v != 0.5 {
		t.Fatalf("ratio = %v, want 0.5", v)
	}
	if v := gs.Gauge("queries").Value(); v != 1000 {
		t.Fatalf("queries = %v, want 1000", v)
	}
	snap := gs.Snapshot()
	if len(snap) != 2 || snap["ratio"] != 0.5 || snap["queries"] != 1000 {
		t.Fatalf("snapshot = %v", snap)
	}
	names := gs.Names()
	if len(names) != 2 || names[0] != "queries" || names[1] != "ratio" {
		t.Fatalf("names = %v, want sorted [queries ratio]", names)
	}
}

func TestGaugeSetConcurrent(t *testing.T) {
	gs := NewGaugeSet()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				gs.Set("shared", float64(i))
				_ = gs.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if v := gs.Snapshot()["shared"]; v != 999 {
		t.Fatalf("final level = %v, want 999", v)
	}
}
