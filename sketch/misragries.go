package sketch

import "sort"

// MisraGries is the classic deterministic frequent-items summary with k
// counters: for a stream of total weight W it estimates every item's weight
// with underestimation at most W/(k+1). It accepts weighted updates and
// merges (by counter addition followed by an offset-truncation step), and is
// the per-block building block of the sliding-window heavy-hitters baseline
// in the window package.
//
// MisraGries is not safe for concurrent use.
type MisraGries struct {
	k        int
	counters map[uint64]float64
	total    float64
}

// NewMisraGries returns a summary with k counters. It panics if k < 1.
func NewMisraGries(k int) *MisraGries {
	if k < 1 {
		panic("sketch: MisraGries needs at least one counter")
	}
	return &MisraGries{k: k, counters: make(map[uint64]float64, k+1)}
}

// K returns the number of counters.
func (m *MisraGries) K() int { return m.k }

// Total returns the total weight observed.
func (m *MisraGries) Total() float64 { return m.total }

// Len returns the number of live counters.
func (m *MisraGries) Len() int { return len(m.counters) }

// Update adds weight w for key. Non-positive weights are ignored.
func (m *MisraGries) Update(key uint64, w float64) {
	if w <= 0 {
		return
	}
	m.total += w
	if c, ok := m.counters[key]; ok || len(m.counters) < m.k {
		m.counters[key] = c + w
		return
	}
	// Decrement all counters by the weight of the smallest "absorbable"
	// amount: the weighted generalization decrements by min(w, min counter),
	// repeating until the newcomer is either installed or exhausted.
	for w > 0 {
		min := w
		for _, c := range m.counters {
			if c < min {
				min = c
			}
		}
		for k2, c := range m.counters {
			if c <= min {
				delete(m.counters, k2)
			} else {
				m.counters[k2] = c - min
			}
		}
		w -= min
		if w > 0 {
			if len(m.counters) < m.k {
				m.counters[key] = w
				return
			}
		}
	}
}

// Estimate returns the (under)estimate of key's weight; the true weight is
// within [estimate, estimate + Total/(k+1)].
func (m *MisraGries) Estimate(key uint64) float64 { return m.counters[key] }

// Merge folds another summary into this one by adding counters and then
// truncating back to k counters, subtracting the (k+1)-st largest value —
// the mergeable-summaries construction, which preserves the additive error
// bound (W₁+W₂)/(k+1).
func (m *MisraGries) Merge(o *MisraGries) {
	if o == nil {
		return
	}
	for k2, c := range o.counters {
		m.counters[k2] += c
	}
	m.total += o.total
	if len(m.counters) <= m.k {
		return
	}
	vals := make([]float64, 0, len(m.counters))
	for _, c := range m.counters {
		vals = append(vals, c)
	}
	sort.Float64s(vals)
	// Subtract the (k+1)-st largest counter value from everything.
	off := vals[len(vals)-m.k-1]
	for k2, c := range m.counters {
		if c <= off {
			delete(m.counters, k2)
		} else {
			m.counters[k2] = c - off
		}
	}
}

// Items returns the live counters in decreasing order of estimate.
func (m *MisraGries) Items() []ItemCount {
	out := make([]ItemCount, 0, len(m.counters))
	for k2, c := range m.counters {
		out = append(out, ItemCount{Key: k2, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Count > out[j].Count || out[i].Count == out[j].Count && out[i].Key < out[j].Key
	})
	return out
}

// SizeBytes estimates the in-memory footprint (~48 B per map slot).
func (m *MisraGries) SizeBytes() int { return 32 + len(m.counters)*48 }
