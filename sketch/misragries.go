package sketch

import (
	"math"
	"slices"
	"sort"
)

// MisraGries is the classic deterministic frequent-items summary with k
// counters: for a stream of total weight W it estimates every item's weight
// with underestimation at most W/(k+1). It accepts weighted updates and
// merges (by counter addition followed by an offset-truncation step), and is
// the per-block building block of the sliding-window heavy-hitters baseline
// in the window package.
//
// The counters are flat: dense parallel key and count slices (at most k
// live), indexed by the same open-addressing key index SpaceSaving uses. A
// monitored key's update is one probe and one add; a newcomer to a full
// summary pays one O(k) pass that finds the minimum, compacts the survivors
// in place and refills the index. Merge reuses a scratch buffer, and Reset
// keeps every buffer, so a summary recycled block after block stops
// allocating once warm.
//
// MisraGries is not safe for concurrent use.
type MisraGries struct {
	k       int
	keys    []uint64  // dense, storage order
	counts  []float64 // counts[i] belongs to keys[i]
	idx     ssIndex   // key → index in keys/counts
	total   float64
	scratch []float64 // Merge's sort buffer
}

// NewMisraGries returns a summary with k counters. It panics if k < 1.
func NewMisraGries(k int) *MisraGries {
	if k < 1 {
		panic("sketch: MisraGries needs at least one counter")
	}
	m := &MisraGries{k: k, keys: make([]uint64, 0, k), counts: make([]float64, 0, k)}
	m.idx.init(k)
	return m
}

// K returns the number of counters.
func (m *MisraGries) K() int { return m.k }

// Total returns the total weight observed.
func (m *MisraGries) Total() float64 { return m.total }

// Len returns the number of live counters.
func (m *MisraGries) Len() int { return len(m.keys) }

// Update adds weight w for key. Weights that are not positive and finite
// (NaN, ±Inf, ≤ 0) are ignored.
func (m *MisraGries) Update(key uint64, w float64) {
	if !(w > 0) || math.IsInf(w, 1) {
		return
	}
	m.total += w
	slot, ok := m.idx.slot(key)
	if ok {
		m.counts[m.idx.at(slot)] += w
		return
	}
	if len(m.keys) < m.k {
		m.install(key, w, slot)
		return
	}
	// Decrement all counters by the smallest "absorbable" amount: the
	// weighted generalization decrements by min(w, min counter), repeating
	// until the newcomer is either installed or exhausted.
	for w > 0 {
		min := w
		for _, c := range m.counts {
			if c < min {
				min = c
			}
		}
		m.subtract(min)
		w -= min
		if w > 0 && len(m.keys) < m.k {
			slot, _ = m.idx.slot(key)
			m.install(key, w, slot)
			return
		}
	}
}

// install appends a counter for a key the summary does not hold; slot is
// the empty index slot the key's probe ended at.
func (m *MisraGries) install(key uint64, c float64, slot uint64) {
	m.keys = append(m.keys, key)
	m.counts = append(m.counts, c)
	i := int32(len(m.keys) - 1)
	if 4*len(m.keys) > len(m.idx.vals) {
		// An index sized from a decoded counter count, not from k, doubles
		// before it passes 1/4 load.
		m.idx.grow()
		m.idx.put(key, i)
		return
	}
	m.idx.set(slot, key, i)
}

// subtract takes off from every counter, drops the counters it exhausts
// (c ≤ off), compacts the survivors in place and refills the index.
func (m *MisraGries) subtract(off float64) {
	m.idx.clear()
	n := 0
	for i, c := range m.counts {
		if c <= off {
			continue
		}
		m.keys[n], m.counts[n] = m.keys[i], c-off
		n++
	}
	m.keys, m.counts = m.keys[:n], m.counts[:n]
	m.reindex()
}

// reindex puts every counter into an empty index.
func (m *MisraGries) reindex() {
	for i, key := range m.keys {
		m.idx.put(key, int32(i))
	}
}

// Estimate returns the (under)estimate of key's weight; the true weight is
// within [estimate, estimate + Total/(k+1)].
func (m *MisraGries) Estimate(key uint64) float64 {
	if i, ok := m.idx.get(key); ok {
		return m.counts[i]
	}
	return 0
}

// Merge folds another summary into this one by adding counters and then
// truncating back to k counters, subtracting the (k+1)-st largest value —
// the mergeable-summaries construction, which preserves the additive error
// bound (W₁+W₂)/(k+1).
func (m *MisraGries) Merge(o *MisraGries) {
	if o == nil {
		return
	}
	m.MergeCounters(o.keys, o.counts, o.total)
}

// Counters returns the live counters as parallel key and count slices in
// storage order. They alias the summary and are valid until its next
// change; MergeCounters folds them back in as Merge would fold the summary.
func (m *MisraGries) Counters() (keys []uint64, counts []float64) {
	return m.keys, m.counts
}

// MergeCounters is Merge for a summary held as the parallel key and count
// runs Counters returned, plus its total: frozen summaries can be stored
// flat and folded in without being rebuilt.
func (m *MisraGries) MergeCounters(keys []uint64, counts []float64, total float64) {
	for i, key := range keys {
		if slot, ok := m.idx.slot(key); ok {
			m.counts[m.idx.at(slot)] += counts[i]
		} else {
			m.install(key, counts[i], slot)
		}
	}
	m.total += total
	if len(m.keys) <= m.k {
		return
	}
	vals := append(m.scratch[:0], m.counts...)
	slices.Sort(vals)
	m.scratch = vals[:0]
	// Subtract the (k+1)-st largest counter value from everything.
	m.subtract(vals[len(vals)-m.k-1])
}

// Reset clears the summary for reuse, keeping its buffers and index.
func (m *MisraGries) Reset() {
	m.idx.clear()
	m.keys, m.counts = m.keys[:0], m.counts[:0]
	m.total = 0
}

// Items returns the live counters in decreasing order of estimate, equal
// estimates by ascending key.
func (m *MisraGries) Items() []ItemCount {
	out := make([]ItemCount, len(m.keys))
	for i, key := range m.keys {
		out[i] = ItemCount{Key: key, Count: m.counts[i]}
	}
	SortItems(out)
	return out
}

// SortItems orders items by decreasing count, equal counts by ascending key
// — the order Items reports.
func SortItems(items []ItemCount) {
	sort.Slice(items, func(i, j int) bool {
		return items[i].Count > items[j].Count || items[i].Count == items[j].Count && items[i].Key < items[j].Key
	})
}

// SizeBytes reports the memory held: the header, the counter slices and
// the merge scratch at their capacities, and the key index.
func (m *MisraGries) SizeBytes() int {
	return 96 + (cap(m.keys)+cap(m.counts)+cap(m.scratch))*8 + len(m.idx.vals)*12
}
