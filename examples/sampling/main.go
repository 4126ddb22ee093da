// Sampling demonstrates Section V of the paper: drawing samples whose
// inclusion probabilities follow a forward decay function, using the three
// samplers (with replacement, weighted reservoir, priority), and using a
// priority sample to estimate decayed subset counts — compared against the
// prior-art baselines (plain reservoir, Aggarwal's biased reservoir).
//
// Run with: go run ./examples/sampling
package main

import (
	"fmt"

	"forwarddecay/agg"
	"forwarddecay/decay"
	"forwarddecay/netgen"
	"forwarddecay/sample"
)

func main() {
	const k = 500
	// Exponential decay with a 30-second half-life, landmark at 0. Because
	// forward and backward exponential decay coincide, this sampler solves
	// the classical "exponentially decayed sample" problem in O(k) space
	// for arbitrary timestamps (Corollary 1 of the paper).
	model := decay.NewForward(decay.NewExpHalfLife(30), 0)

	gen := netgen.New(netgen.DefaultConfig(20_000, 3))
	wrs := sample.NewForwardWRS[float64](model, k, 1)
	pri := sample.NewForwardPriority[uint64](model, k, 2)
	wr := sample.NewForwardWR[float64](model, k, 3)
	res := sample.NewReservoir[float64](k, 4)
	agb := sample.NewAggarwal[float64](k, 5)
	exact80 := agg.NewCounter(model)
	exactRest := agg.NewCounter(model)

	var now float64
	var rawCount float64
	for gen.Now() < 180 { // three minutes of traffic
		p := gen.Next()
		now = p.Time
		wrs.Observe(p.Time, p.Time) // sample the timestamps themselves
		pri.Observe(p.DestKey(), p.Time)
		wr.Observe(p.Time, p.Time)
		res.Add(p.Time)
		agb.Add(p.Time)
		if p.DstPort == 80 {
			exact80.Observe(p.Time)
		} else {
			exactRest.Observe(p.Time)
		}
		rawCount++
	}

	meanAge := func(ts []float64) float64 {
		var s float64
		for _, t := range ts {
			s += now - t
		}
		return s / float64(len(ts))
	}
	fmt.Printf("stream: %.0f packets over %.0f s; exp decay half-life 30 s\n\n", rawCount, now)
	fmt.Printf("mean age of sampled packets (s):\n")
	fmt.Printf("  uniform reservoir (no decay):    %6.1f  (≈ half the stream length)\n", meanAge(res.Sample()))
	fmt.Printf("  forward WRS (exp decay):         %6.1f  (recent items dominate)\n", meanAge(wrs.Sample()))
	fmt.Printf("  forward WR  (with replacement):  %6.1f\n", meanAge(wr.Sample()))
	fmt.Printf("  Aggarwal biased reservoir:       %6.2f\n", meanAge(agb.Sample()))
	fmt.Println("    (Aggarwal's decay rate is fixed at ~1/k per ARRIVAL — milliseconds at this")
	fmt.Println("     packet rate. Forward decay works in timestamps, so the half-life is chosen")
	fmt.Println("     freely — one of the limitations §V-C removes.)")
	fmt.Println()

	// Priority sampling gives unbiased decayed subset-sum estimates: here,
	// the decayed count of packets to each sampled destination.
	// Priority sampling answers ad-hoc subset queries after the fact, with
	// unbiased decayed estimates (§V-B): estimate the decayed count of
	// port-80 traffic from the sample and compare with the exact value.
	est := pri.EstimateDecayedCount(now)
	fmt.Printf("priority-sample estimate of the total decayed count: %.1f (exact %.1f)\n",
		est, exact80.Value(now)+exactRest.Value(now))
	var est80 float64
	for _, it := range pri.Sample(now) {
		if uint16(it.Item) == 80 {
			est80 += it.Weight
		}
	}
	fmt.Printf("ad-hoc subset query 'decayed count of port-80 packets':\n")
	fmt.Printf("  from the k=%d priority sample: %.1f\n", k, est80)
	fmt.Printf("  exact:                         %.1f\n", exact80.Value(now))

	// Distributed operation (§VI-B): two sites sample independently and
	// merge exactly.
	a := sample.NewForwardWRS[int](model, 10, 11)
	b := sample.NewForwardWRS[int](model, 10, 12)
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			a.Observe(i, float64(i))
		} else {
			b.Observe(i, float64(i))
		}
	}
	if err := a.Merge(b); err != nil {
		panic(err)
	}
	fmt.Printf("\nmerged two-site WRS sample (k=10): %v\n", a.Sample())
}
