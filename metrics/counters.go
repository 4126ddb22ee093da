package metrics

// A minimal scrapeable counter registry, the operational companion to the
// decaying Reservoir: long-running components (the distrib elastic cluster,
// an ingest listener, a gsql service wrapper) register monotonically
// increasing health counters here so one scrape loop can export them
// alongside RuntimeStats. Counters are cheap enough to bump on hot-ish
// paths (one atomic add once interned) and the snapshot is a stable-keyed
// map ready for a text or JSON exposition.

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is one monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterSet is a named registry of counters, safe for concurrent use.
// The zero value is NOT ready; use NewCounterSet.
type CounterSet struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// NewCounterSet returns an empty registry.
func NewCounterSet() *CounterSet {
	return &CounterSet{m: map[string]*Counter{}}
}

// Counter interns and returns the counter for a name, creating it at zero
// on first use. Callers that bump a counter repeatedly should hold on to
// the returned *Counter rather than re-interning per update.
func (cs *CounterSet) Counter(name string) *Counter {
	cs.mu.RLock()
	c := cs.m[name]
	cs.mu.RUnlock()
	if c != nil {
		return c
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if c = cs.m[name]; c == nil {
		c = &Counter{}
		cs.m[name] = c
	}
	return c
}

// Add bumps a named counter by delta, interning it if needed.
func (cs *CounterSet) Add(name string, delta uint64) { cs.Counter(name).Add(delta) }

// Get returns a named counter's value (0 for names never interned).
func (cs *CounterSet) Get(name string) uint64 {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	if c := cs.m[name]; c != nil {
		return c.Value()
	}
	return 0
}

// Snapshot returns every counter's current value.
func (cs *CounterSet) Snapshot() map[string]uint64 {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	out := make(map[string]uint64, len(cs.m))
	for k, c := range cs.m {
		out[k] = c.Value()
	}
	return out
}

// Names returns the registered counter names, sorted, for stable
// exposition order.
func (cs *CounterSet) Names() []string {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	out := make([]string, 0, len(cs.m))
	for k := range cs.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
