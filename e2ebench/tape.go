package e2ebench

import (
	"math"

	"forwarddecay/netgen"
)

// tape is one workload's generated input: a fixed packet sequence cut into
// fixed frames. It is built from the seed before any timing starts; a lap
// replays it whole, shifted forward in event time by a whole number of
// seconds per lap so stream time never runs backwards and every lap closes
// the same number of buckets over the same groups.
type tape struct {
	pkts  []netgen.Packet
	batch int     // packets per frame
	shift float64 // event-seconds added per lap
	// closeFrame[b] is the index of the first frame holding a packet of a
	// later bucket than b (buckets counted from the tape's first, in units of
	// bucketSec); -1 for the last bucket, which only the next lap closes.
	closeFrame []int32
	bucketSec  int64
	firstTB    int64
}

// newTape generates n packets (rounded down to whole frames) for the
// workload from the seed.
func newTape(w *Workload, seed uint64, n int) *tape {
	n -= n % w.BatchSize
	cfg := netgen.DefaultConfig(w.EventRate, seed)
	cfg.OutOfOrder = w.OutOfOrder
	pkts := netgen.New(cfg).Take(make([]netgen.Packet, 0, n), n)

	t := &tape{pkts: pkts, batch: w.BatchSize, bucketSec: w.BucketSec}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range pkts {
		lo, hi = math.Min(lo, p.Time), math.Max(hi, p.Time)
	}
	t.firstTB = int64(lo) / t.bucketSec
	// A whole number of buckets past the last packet, so lap k's first
	// bucket is strictly later than lap k-1's last.
	t.shift = float64((int64(hi)/t.bucketSec - t.firstTB + 1) * t.bucketSec)

	t.closeFrame = make([]int32, int64(t.shift)/t.bucketSec)
	for i := range t.closeFrame {
		t.closeFrame[i] = -1
	}
	maxB := int64(-1)
	for f := 0; f < t.frames(); f++ {
		for _, p := range t.frame(f) {
			b := int64(p.Time)/t.bucketSec - t.firstTB
			if b > maxB {
				for c := maxB; c >= 0 && c < b; c++ {
					if t.closeFrame[c] < 0 {
						t.closeFrame[c] = int32(f)
					}
				}
				maxB = b
			}
		}
	}
	return t
}

func (t *tape) frames() int { return len(t.pkts) / t.batch }

func (t *tape) frame(f int) []netgen.Packet { return t.pkts[f*t.batch : (f+1)*t.batch] }

// shifted copies frame f into dst with lap's time shift applied.
func (t *tape) shifted(dst []netgen.Packet, f, lap int) []netgen.Packet {
	dst = append(dst[:0], t.frame(f)...)
	if d := float64(lap) * t.shift; d != 0 {
		for i := range dst {
			dst[i].Time += d
		}
	}
	return dst
}

// prefix returns a tape over the first n packets (whole frames), for the
// single-threaded layer replays.
func (t *tape) prefix(n int) *tape {
	if n > len(t.pkts) {
		n = len(t.pkts)
	}
	n -= n % t.batch
	c := *t
	c.pkts = t.pkts[:n]
	return &c
}
