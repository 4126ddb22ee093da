package metrics

// Gauges complement the monotonic counters: point-in-time levels (attached
// query count, distinct shared subexpressions, a hit ratio) that move both
// ways. Stored as float64 bits behind one atomic word so readers never see
// a torn value; the registry mirrors CounterSet so expositions can walk
// both with the same stable-keyed snapshot idiom.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Gauge is one instantaneous float64 metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the current level.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeSet is a named registry of gauges, safe for concurrent use.
// The zero value is NOT ready; use NewGaugeSet.
type GaugeSet struct {
	mu sync.RWMutex
	m  map[string]*Gauge
}

// NewGaugeSet returns an empty registry.
func NewGaugeSet() *GaugeSet {
	return &GaugeSet{m: map[string]*Gauge{}}
}

// Gauge interns and returns the gauge for a name, creating it at zero on
// first use.
func (gs *GaugeSet) Gauge(name string) *Gauge {
	gs.mu.RLock()
	g := gs.m[name]
	gs.mu.RUnlock()
	if g != nil {
		return g
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if g = gs.m[name]; g == nil {
		g = &Gauge{}
		gs.m[name] = g
	}
	return g
}

// Set stores a named gauge's level, interning it if needed.
func (gs *GaugeSet) Set(name string, v float64) { gs.Gauge(name).Set(v) }

// Delete removes a named gauge from the registry so short-lived series
// (per-query attribution under catalog churn) do not accumulate forever.
// Deleting an absent name is a no-op. Holders of the *Gauge pointer may
// keep using it; it is simply no longer exposed.
func (gs *GaugeSet) Delete(name string) {
	gs.mu.Lock()
	delete(gs.m, name)
	gs.mu.Unlock()
}

// Snapshot returns every gauge's current level.
func (gs *GaugeSet) Snapshot() map[string]float64 {
	gs.mu.RLock()
	defer gs.mu.RUnlock()
	out := make(map[string]float64, len(gs.m))
	for k, g := range gs.m {
		out[k] = g.Value()
	}
	return out
}

// Names returns the registered gauge names, sorted, for stable exposition
// order.
func (gs *GaugeSet) Names() []string {
	gs.mu.RLock()
	defer gs.mu.RUnlock()
	out := make([]string, 0, len(gs.m))
	for k := range gs.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
