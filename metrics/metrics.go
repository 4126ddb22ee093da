// Package metrics provides a production-style, thread-safe
// exponentially-decaying reservoir on top of the forward-decay sampling
// machinery — the construction popularized by metrics libraries (a decaying
// reservoir keeps a fixed-size sample whose inclusion probabilities decay
// exponentially with age, so percentile snapshots reflect roughly the last
// few half-lives of data).
//
// Internally this is exactly §V-B of the forward-decay paper: weighted
// reservoir sampling with static weights exp(α·(t−L)), maintained in the
// log domain so no periodic rescaling pass is ever needed — an improvement
// over landmark-rescaling implementations, which must stop the world to
// renormalize weights.
package metrics

import (
	"math"
	"sort"
	"sync"
	"time"

	"forwarddecay/decay"
	"forwarddecay/sample"
)

// Reservoir is a fixed-size, exponentially-decaying sample of float64
// observations. It is safe for concurrent use.
type Reservoir struct {
	mu    sync.Mutex
	model decay.Forward
	s     *sample.WRS[float64]
	now   func() time.Time
	start time.Time
}

// Option configures a Reservoir.
type Option func(*Reservoir)

// WithClock substitutes the time source (for tests and simulations).
func WithClock(now func() time.Time) Option {
	return func(r *Reservoir) { r.now = now }
}

// NewReservoir returns a decaying reservoir holding up to size
// observations with the given half-life: an observation one half-life old
// is half as likely to be in the sample as a fresh one. It panics if
// size < 1 or halfLife <= 0.
func NewReservoir(size int, halfLife time.Duration, opts ...Option) *Reservoir {
	if size < 1 {
		panic("metrics: reservoir size must be positive")
	}
	if halfLife <= 0 {
		panic("metrics: half-life must be positive")
	}
	r := &Reservoir{now: time.Now}
	for _, o := range opts {
		o(r)
	}
	r.start = r.now()
	alpha := math.Ln2 / halfLife.Seconds()
	r.model = decay.NewForward(decay.Exp{Alpha: alpha}, 0)
	// The sample distribution is the same for any seed; a fixed one keeps
	// behaviour reproducible.
	r.s = sample.NewWRS[float64](size, 1)
	return r
}

// Update records an observation at the current time.
func (r *Reservoir) Update(v float64) { r.UpdateAt(v, r.now()) }

// UpdateAt records an observation with an explicit timestamp. Out-of-order
// timestamps are fine (§VI-B of the paper).
func (r *Reservoir) UpdateAt(v float64, t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.Add(v, r.model.LogStaticWeight(t.Sub(r.start).Seconds()))
}

// Snapshot returns an immutable view of the current sample for quantile
// queries.
func (r *Reservoir) Snapshot() Snapshot {
	r.mu.Lock()
	vals := r.s.Sample() // copies
	r.mu.Unlock()
	sort.Float64s(vals)
	return Snapshot{values: vals}
}

// Snapshot is a point-in-time view of a Reservoir's sample.
type Snapshot struct {
	values []float64 // sorted
}

// Quantile returns the φ-quantile of the sample (0 ≤ φ ≤ 1), or NaN when
// empty.
func (s Snapshot) Quantile(phi float64) float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	if phi <= 0 {
		return s.values[0]
	}
	if phi >= 1 {
		return s.values[len(s.values)-1]
	}
	pos := phi * float64(len(s.values)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 < len(s.values) {
		return s.values[lo]*(1-frac) + s.values[lo+1]*frac
	}
	return s.values[lo]
}

// Median returns the 50th percentile.
func (s Snapshot) Median() float64 { return s.Quantile(0.5) }
