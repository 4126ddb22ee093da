package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock is a controllable time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 7, 4, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestReservoirTracksRecentRegime(t *testing.T) {
	clk := newFakeClock()
	r := NewReservoir(200, 30*time.Second, WithClock(clk.now))
	// Old regime: values near 10 for two minutes.
	for i := 0; i < 2000; i++ {
		r.Update(10 + float64(i%3))
		clk.advance(60 * time.Millisecond)
	}
	// New regime: values near 1000 for four half-lives.
	for i := 0; i < 2000; i++ {
		r.Update(1000 + float64(i%3))
		clk.advance(60 * time.Millisecond)
	}
	s := r.Snapshot()
	if med := s.Median(); med < 900 {
		t.Errorf("median %v still dominated by the old regime", med)
	}
	// The 5th percentile may keep a little history, but the bulk is new.
	if q := s.Quantile(0.25); q < 900 {
		t.Errorf("p25 %v too old", q)
	}
	if s.Quantile(1) < 1000 || s.Quantile(0) > 1002 && s.Quantile(0) < 10 {
		t.Errorf("min/max bracket wrong: %v/%v", s.Quantile(0), s.Quantile(1))
	}
}

func TestReservoirUndersizedStreamExact(t *testing.T) {
	clk := newFakeClock()
	r := NewReservoir(100, time.Minute, WithClock(clk.now))
	for _, v := range []float64{5, 1, 9, 3} {
		r.Update(v)
		clk.advance(time.Second)
	}
	// All four values are kept: sorted 1 3 5 9.
	s := r.Snapshot()
	if s.Quantile(0) != 1 || s.Quantile(1) != 9 {
		t.Errorf("min/max = %v/%v", s.Quantile(0), s.Quantile(1))
	}
	if got := s.Median(); math.Abs(got-4) > 1e-12 {
		t.Errorf("median = %v (interpolated)", got)
	}
	if got := s.Quantile(1.0 / 3); got != 3 {
		t.Errorf("p33 = %v, want the second value 3", got)
	}
}

func TestReservoirEmptySnapshot(t *testing.T) {
	r := NewReservoir(10, time.Second)
	s := r.Snapshot()
	for _, v := range []float64{s.Median(), s.Quantile(0), s.Quantile(1), s.Quantile(0.9)} {
		if !math.IsNaN(v) {
			t.Errorf("empty snapshot stat = %v, want NaN", v)
		}
	}
}

func TestReservoirLongRunNoOverflow(t *testing.T) {
	// A half-life of one second over a simulated day: raw static weights
	// span e^(86400·ln2) — far past float64 — but the log-domain sampler
	// never overflows.
	clk := newFakeClock()
	r := NewReservoir(50, time.Second, WithClock(clk.now))
	for i := 0; i < 86_400; i++ {
		r.Update(float64(i % 100))
		clk.advance(time.Second)
	}
	s := r.Snapshot()
	if math.IsNaN(s.Median()) || math.IsInf(s.Median(), 0) {
		t.Errorf("median = %v", s.Median())
	}
}

func TestReservoirConcurrent(t *testing.T) {
	r := NewReservoir(100, time.Minute)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				r.Update(float64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if med := r.Snapshot().Median(); !(med >= 0 && med < 5000) {
		t.Errorf("median %v outside the values recorded", med)
	}
}

func TestReservoirOutOfOrderUpdates(t *testing.T) {
	clk := newFakeClock()
	r := NewReservoir(100, 10*time.Second, WithClock(clk.now))
	base := clk.now()
	// Deliver timestamps shuffled: recent values (800+) must dominate.
	for i := 0; i < 3000; i++ {
		ts := base.Add(time.Duration((i*7919)%3000) * 100 * time.Millisecond) // 0..300 s scrambled
		v := float64((i * 7919) % 3000)
		r.UpdateAt(v/10, ts) // value correlates with timestamp: v = seconds·10⁻¹...
	}
	s := r.Snapshot()
	if med := s.Median(); med < 100 {
		t.Errorf("median %v; recent (high-valued) items should dominate", med)
	}
}

func TestReservoirQuantileEdges(t *testing.T) {
	clk := newFakeClock()
	r := NewReservoir(10, time.Minute, WithClock(clk.now))
	for i := 1; i <= 5; i++ {
		r.Update(float64(i))
	}
	s := r.Snapshot()
	if s.Quantile(0) != 1 || s.Quantile(1) != 5 {
		t.Errorf("edge quantiles: %v/%v", s.Quantile(0), s.Quantile(1))
	}
	if s.Quantile(-1) != 1 || s.Quantile(2) != 5 {
		t.Errorf("clamped quantiles: %v/%v", s.Quantile(-1), s.Quantile(2))
	}
}

func TestReservoirConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"size":     func() { NewReservoir(0, time.Second) },
		"halfLife": func() { NewReservoir(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestReservoirModelAccessor(t *testing.T) {
	r := NewReservoir(10, 10*time.Second)
	// α = ln2 / 10s.
	if got := r.model.Weight(0, 10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("weight after one half-life = %v", got)
	}
}
