package metrics_test

import (
	"fmt"
	"time"

	"forwarddecay/metrics"
)

// A decaying reservoir forgets old latency regimes within a few half-lives.
func ExampleReservoir() {
	clock := time.Date(2026, 7, 4, 0, 0, 0, 0, time.UTC)
	r := metrics.NewReservoir(256, 10*time.Second,
		metrics.WithClock(func() time.Time { return clock }))

	for i := 0; i < 5000; i++ {
		r.Update(10) // healthy: 10 ms
		clock = clock.Add(10 * time.Millisecond)
	}
	for i := 0; i < 5000; i++ {
		r.Update(100) // degraded: 100 ms
		clock = clock.Add(10 * time.Millisecond)
	}
	s := r.Snapshot()
	fmt.Println(s.Median() > 90)
	// Output: true
}
