package agg

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"forwarddecay/decay"
)

// TestMomentsMatchesCounterAndSum: a frame folds bit for bit what a Counter
// and a Sum observing the same rows hold, through rebases (timestamps far
// past the scale), scale adoption after cancellation (v and −v), equal and
// late timestamps (an earlier one again after a rebase), zero, huge and
// non-finite values and timestamps, landmark shifts and merges.
func TestMomentsMatchesCounterAndSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []decay.Forward{decay.NewForward(decay.NewExp(0.5), 0), decay.NewForward(decay.NewPoly(2), -1)} {
		f := Moments{Count: NewCounter(m), Sum: NewSum(m)}
		c, s := NewCounter(m), NewSum(m)
		same := func(f *Moments) {
			t.Helper()
			for _, pair := range [][2]interface{ MarshalBinary() ([]byte, error) }{{f.Count, c}, {f.Sum, s}} {
				a, _ := pair[0].MarshalBinary()
				b, _ := pair[1].MarshalBinary()
				if !bytes.Equal(a, b) {
					t.Fatalf("%s: frame and separate aggregates differ", m.Func)
				}
			}
		}
		observe := func(ti, v float64) {
			f.Observe(ti, f.Model().LogStaticWeight(ti), v)
			c.Observe(ti)
			s.Observe(ti, v)
			same(&f)
		}
		if m.Func.String() == decay.NewExp(0.5).String() {
			// Cancel to an exact 0, adopt an old timestamp's scale, fold at
			// it, rebase far ahead, and fold at the old timestamp again.
			for _, r := range [][2]float64{{0, 5}, {0, -5}, {-700, 3}, {-700, 1}, {800, 2}, {-700, 4}} {
				observe(r[0], r[1])
			}
		}
		ts := 0.0
		var seen []float64
		for i := 0; i < 20000; i++ {
			switch rng.Intn(6) {
			case 0:
				ts += rng.Float64() * 900 // past MaxSafeExp under exp(0.5): rebases
			case 1: // an equal timestamp
			default:
				ts += rng.Float64()
			}
			ti, v := ts, rng.NormFloat64()*1e3
			if len(seen) > 0 && rng.Intn(5) == 0 {
				ti = seen[rng.Intn(len(seen))] // late: maybe far below the scale
			}
			if seen = append(seen, ti); len(seen) > 64 {
				seen = seen[1:]
			}
			switch rng.Intn(40) {
			case 0:
				v = 0
			case 1:
				v = math.Inf(1)
			case 2:
				ti = math.NaN()
			case 3:
				v = 1e200
			}
			observe(ti, v)
			if rng.Intn(2) == 0 { // cancel it: the sums may reach 0 and adopt a new scale
				observe(ti, -v)
			}
			if i%5000 == 4999 && m.Func.String() == decay.NewExp(0.5).String() {
				for _, x := range []error{f.ShiftLandmark(ts), c.ShiftLandmark(ts), s.ShiftLandmark(ts)} {
					if x != nil {
						t.Fatal(x)
					}
				}
			}
		}
		g := Moments{Count: NewCounter(f.Model()), Sum: NewSum(f.Model())}
		if err := g.Merge(&f); err != nil {
			t.Fatal(err)
		}
		same(&g)
	}
}
