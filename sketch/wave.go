package sketch

// Wave is the Deterministic Wave window-count summary of Gibbons and
// Tirthapura: level l records the timestamp of every 2^l-th arrival, keeping
// the most recent entries per level, so the number of items younger than any
// age within the window is recovered with relative error at most 1/k in
// O(k·log(εN)) space. It is provided as the alternative window-count
// substrate mentioned in the paper's related-work section and compared to
// the Exponential Histogram in the ablation benchmarks.
//
// Timestamps must be non-decreasing. Wave is not safe for concurrent use.
type Wave struct {
	k      int
	window float64
	n      uint64        // arrivals so far
	levels [][]waveEntry // levels[l] holds positions ≡ 0 mod 2^l, oldest first
	last   float64
}

type waveEntry struct {
	pos uint64
	ts  float64
}

// NewWave returns a wave with relative error 1/k over a sliding window of
// the given length. It panics if k < 1 or window <= 0.
func NewWave(k int, window float64) *Wave {
	if k < 1 {
		panic("sketch: Wave needs k >= 1")
	}
	if window <= 0 {
		panic("sketch: Wave needs a positive window")
	}
	return &Wave{k: k, window: window}
}

// perLevel is the number of entries retained at each level.
func (w *Wave) perLevel() int { return w.k + 2 }

// Insert records an arrival at the given timestamp.
func (w *Wave) Insert(ts float64) {
	if ts < w.last {
		ts = w.last
	}
	w.last = ts
	w.n++
	pos := w.n
	for l := 0; ; l++ {
		if pos&((1<<uint(l))-1) != 0 {
			break
		}
		for len(w.levels) <= l {
			w.levels = append(w.levels, nil)
		}
		lv := append(w.levels[l], waveEntry{pos: pos, ts: ts})
		if len(lv) > w.perLevel() {
			copy(lv, lv[1:])
			lv = lv[:len(lv)-1]
		}
		w.levels[l] = lv
	}
	w.expire(ts)
}

// expire drops entries older than the window (they can never be needed).
func (w *Wave) expire(now float64) {
	cutoff := now - w.window
	for l := range w.levels {
		lv := w.levels[l]
		i := 0
		// Keep one expired entry per level as the "boundary witness".
		for i < len(lv)-1 && lv[i+1].ts < cutoff {
			i++
		}
		if i > 0 {
			w.levels[l] = append(lv[:0], lv[i:]...)
		}
	}
}

// CountSince estimates the number of items with timestamp ≥ since (which
// must be within the window), with relative error at most 1/k.
func (w *Wave) CountSince(since float64) float64 {
	// Find the lowest level that still covers `since`: its oldest retained
	// entry must be at or before the boundary.
	for l := 0; l < len(w.levels); l++ {
		lv := w.levels[l]
		if len(lv) == 0 {
			continue
		}
		if lv[0].ts >= since && w.n >= uint64(len(lv))<<uint(l) {
			// This level's history does not reach back to `since`; a higher
			// (coarser) level must.
			continue
		}
		// Binary search the first entry with ts >= since.
		lo, hi := 0, len(lv)
		for lo < hi {
			mid := (lo + hi) / 2
			if lv[mid].ts < since {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(lv) {
			return 0 // everything at this level is older than `since`
		}
		// Items since position lv[lo].pos, plus up to 2^l − 1 uncounted
		// items between the boundary and that position (estimate half).
		est := float64(w.n-lv[lo].pos) + 1
		if l > 0 {
			est += float64(uint64(1)<<uint(l)) / 2
		}
		return est
	}
	return float64(w.n)
}

// WindowCount estimates the number of items in (t − window, t].
func (w *Wave) WindowCount(t float64) float64 {
	w.expire(t)
	return w.CountSince(t - w.window)
}

// SizeBytes estimates the in-memory footprint: 16 bytes per entry.
func (w *Wave) SizeBytes() int {
	s := 64
	for _, lv := range w.levels {
		s += 24 + cap(lv)*16
	}
	return s
}
