package metrics

import (
	"sync"
	"testing"
)

func TestCounterSetBasics(t *testing.T) {
	cs := NewCounterSet()
	if got := cs.Get("never"); got != 0 {
		t.Fatalf("Get on unknown counter = %d", got)
	}
	cs.Add("a", 3)
	cs.Counter("b").Add(1)
	cs.Add("a", 2)
	if got := cs.Get("a"); got != 5 {
		t.Errorf("a = %d, want 5", got)
	}
	if got := cs.Get("b"); got != 1 {
		t.Errorf("b = %d, want 1", got)
	}
	snap := cs.Snapshot()
	if len(snap) != 2 || snap["a"] != 5 || snap["b"] != 1 {
		t.Errorf("snapshot = %v", snap)
	}
	names := cs.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v, want sorted [a b]", names)
	}
	// Interned handle and registry view stay the same counter.
	c := cs.Counter("a")
	c.Add(10)
	if got := cs.Get("a"); got != 15 {
		t.Errorf("interned handle diverged: %d", got)
	}
}

// TestCounterSetConcurrent hammers interning and bumping from many
// goroutines; run under -race this is the thread-safety contract.
func TestCounterSetConcurrent(t *testing.T) {
	cs := NewCounterSet()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				cs.Add("shared", 1)
				cs.Counter("own").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := cs.Get("shared"); got != workers*per {
		t.Errorf("shared = %d, want %d", got, workers*per)
	}
	if got := cs.Get("own"); got != workers*per {
		t.Errorf("own = %d, want %d", got, workers*per)
	}
}
