package e2ebench

import (
	"math"
	"sync/atomic"
	"time"

	"forwarddecay/gsql"
)

// closure is what one stream saw of one bucket flush: the rows sharing a tb
// that arrived back to back. n and hash are what the oracle compares; due,
// first and last are the emit-latency spans.
type closure struct {
	tb          int64
	n           int
	hash        uint64
	frame       int       // global index of the closing frame, -1 when unknown
	due         time.Time // that frame's due time; zero outside a paced phase
	first, last time.Time
}

// rowSpan is one traced row delivery. Spans hold no pointers (times are
// nanoseconds since the run started), so keeping millions of them costs the
// collector nothing to scan.
type rowSpan struct {
	cursor uint64
	tb     int64
	recvNs int64
	frame  int
}

// keptRow is a row retained for the theorem checks, tagged with the frame
// whose push emitted it (rows of one flush share it).
type keptRow struct {
	frame int
	row   gsql.Tuple
}

// stream accumulates one subscriber's deliveries. Its fields are written by
// the single goroutine that consumes the subscription (or, in-process, by
// the pushing goroutine) and read only after that goroutine is quiescent;
// recv is the exception, polled while waiting for delivery to finish.
type stream struct {
	q    int // index into the workload's catalog
	kind subKind
	recv atomic.Uint64

	closures []closure
	lat      []float64 // ms, one per row delivered in a paced phase
	gaps     uint64
	shed     uint64
	err      error

	keep  bool // retain rows (engine workload)
	kept  []keptRow
	tr    tracer
	spans []rowSpan
}

// row records one delivery. due is the wall-clock time the frame that closed
// the row's bucket was due to be sent (zero when the phase is not paced);
// frame is the global index of that frame when known, else -1.
func (s *stream) row(t gsql.Tuple, cursor uint64, now, due time.Time, frame int) {
	tb := t[0].I
	// Out-of-order tapes flush a late group under an already-emitted tb, so a
	// closure is a (tb, closing frame) pair, not a tb alone.
	if n := len(s.closures); n == 0 || s.closures[n-1].tb != tb || s.closures[n-1].frame != frame {
		s.closures = append(s.closures, closure{tb: tb, hash: fnvOffset, frame: frame, due: due, first: now})
	}
	c := &s.closures[len(s.closures)-1]
	c.n++
	c.hash = hashTuple(c.hash, t)
	c.last = now
	if !due.IsZero() {
		s.lat = append(s.lat, float64(now.Sub(due))/1e6)
	}
	if s.keep {
		s.kept = append(s.kept, keptRow{frame, t})
	}
	if s.tr.on != nil && s.tr.on.Load() {
		s.spans = append(s.spans, rowSpan{cursor, tb, int64(now.Sub(s.tr.t0)), frame})
	}
	s.recv.Add(1)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashTuple chains a row into a running FNV-1a hash over every field of
// every value, so two streams hash alike only when they are bit-identical.
func hashTuple(h uint64, t gsql.Tuple) uint64 {
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (x & 0xff)) * fnvPrime
			x >>= 8
		}
	}
	for _, v := range t {
		mix(uint64(v.T))
		mix(uint64(v.I))
		mix(math.Float64bits(v.F))
		mix(uint64(len(v.S)))
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * fnvPrime
		}
	}
	return h
}

// pacedPlan lets a subscriber turn a row's tb into the due time of the frame
// that closed its bucket: the schedule is fixed before the phase starts, so
// no channel between sender and subscribers is needed.
type pacedPlan struct {
	start    time.Time
	interval time.Duration
	frame0   int     // global index of the phase's first frame
	firstTB  int64   // first bucket of the phase
	closedBy []int32 // per bucket of the phase: frame of the phase that closes it, -1 = none
}

func (p *pacedPlan) due(tb int64) (time.Time, int) {
	if p == nil || tb < p.firstTB || tb-p.firstTB >= int64(len(p.closedBy)) {
		return time.Time{}, -1
	}
	f := p.closedBy[tb-p.firstTB]
	if f < 0 {
		return time.Time{}, -1
	}
	return p.start.Add(time.Duration(f) * p.interval), p.frame0 + int(f)
}

// plan builds the paced plan for laps [lap0, lap0+laps) of the tape.
func (t *tape) plan(lap0, laps int, start time.Time, interval time.Duration) *pacedPlan {
	nb := len(t.closeFrame)
	p := &pacedPlan{
		start: start, interval: interval, frame0: lap0 * t.frames(),
		firstTB:  t.firstTB + int64(lap0*nb),
		closedBy: make([]int32, laps*nb),
	}
	for l := 0; l < laps; l++ {
		for b, f := range t.closeFrame {
			switch {
			case f >= 0:
				f += int32(l * t.frames())
			case l+1 < laps:
				f = int32((l + 1) * t.frames()) // the next lap's first frame closes it
			}
			p.closedBy[l*nb+b] = f
		}
	}
	return p
}
