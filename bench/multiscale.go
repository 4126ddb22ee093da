package bench

import (
	"fmt"
	"runtime"
	"time"

	"forwarddecay/gsql"
)

// Multi-query scaling harness: how does the per-tuple cost of the shared
// runtime grow with the number of standing queries? The workload is
// shared-heavy — the regime the MultiRun is built for: queries cluster into
// a handful of predicate classes (rare WHERE filters over a 4096-address
// space) and share group keys and temporal buckets, while every query still
// owns a distinct aggregate argument, so plans are not mere text duplicates.
// A non-matching tuple then costs one pass over the class predicates no
// matter how many queries are attached; only the ~1/1024 matching tuples
// fan out into per-query folds. The headline invariant (gated in ci.sh):
// 1000 standing queries run at <2x the per-tuple cost of 10.

// MultiScalePoint is one measured point of the scaling sweep.
type MultiScalePoint struct {
	Queries    int
	NsPerTuple float64
	Classes    int
}

// multiScaleWheres are the predicate classes of the scaling workload. Each
// matches 1/4096 of the address cycle, so with all four in play ~1/1024 of
// the stream fans out to some class's members.
var multiScaleWheres = []string{
	"dstIP = 7",
	"dstIP = 19",
	"dstIP = 23",
	"dstIP = 42",
}

// MultiScaleQuery renders standing query i of the shared-heavy workload:
// the WHERE rotates over the predicate classes; the sum argument is unique
// per query so no two texts dedup to one plan.
func MultiScaleQuery(i int) string {
	return fmt.Sprintf(
		"select tb, dstIP, count(*), sum(len + %d) from TCP where %s group by time/60 as tb, dstIP",
		i, multiScaleWheres[i%len(multiScaleWheres)])
}

// multiScaleTrace synthesizes the scaling stream: 1000 packets/second with
// destinations scattered over a 4096-address space, so each predicate class
// matches ~1/4096 of the tuples.
func multiScaleTrace(n int, seed uint64) []gsql.Tuple {
	tuples := make([]gsql.Tuple, n)
	x := seed*2654435761 + 1
	for j := range tuples {
		x = x*6364136223846793005 + 1442695040888963407
		t := int64(j / 1000)
		tuples[j] = gsql.Tuple{
			gsql.Int(t), gsql.Float(float64(j) / 1000), gsql.Int(int64(x >> 33 & 0xffff)),
			gsql.Int(int64(x>>17) & 4095), gsql.Int(4242), gsql.Int(80),
			gsql.Int(6), gsql.Int(100 + int64(j%1400)),
		}
	}
	return tuples
}

// RunMultiScale measures the shared runtime's per-tuple cost at each query
// count, pushing the same trace through a freshly built MultiRun per point.
// Each point is measured twice and keeps the faster lap — min-of-N
// estimates the code's true cost, and a GC barrier before each timed lap
// keeps attach-time garbage from being billed to the push path.
func RunMultiScale(counts []int, tuples int, seed uint64) ([]MultiScalePoint, error) {
	trace := multiScaleTrace(tuples, seed)
	out := make([]MultiScalePoint, 0, len(counts))
	for _, n := range counts {
		p, err := measureMultiScale(n, trace)
		if err != nil {
			return nil, err
		}
		again, err := measureMultiScale(n, trace)
		if err != nil {
			return nil, err
		}
		if again.NsPerTuple < p.NsPerTuple {
			p = again
		}
		out = append(out, p)
	}
	return out, nil
}

func measureMultiScale(n int, trace []gsql.Tuple) (MultiScalePoint, error) {
	nop := func(gsql.Tuple) error { return nil }
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		return MultiScalePoint{}, err
	}
	m, err := gsql.NewMultiRun(e, "TCP", gsql.Options{})
	if err != nil {
		return MultiScalePoint{}, err
	}
	for i := 0; i < n; i++ {
		if _, err := m.Attach(MultiScaleQuery(i), 0, nop); err != nil {
			return MultiScalePoint{}, fmt.Errorf("attach query %d: %w", i, err)
		}
	}
	// Warm-up lap: materialize every group and fault the code paths in
	// before the timed lap.
	warm := len(trace) / 10
	if warm > 10000 {
		warm = 10000
	}
	for _, t := range trace[:warm] {
		if err := m.Push(t); err != nil {
			return MultiScalePoint{}, err
		}
	}
	runtime.GC()
	start := time.Now()
	for _, t := range trace {
		if err := m.Push(t); err != nil {
			return MultiScalePoint{}, err
		}
	}
	elapsed := time.Since(start)
	st := m.MultiStats()
	if err := m.CloseAll(); err != nil {
		return MultiScalePoint{}, err
	}
	return MultiScalePoint{
		Queries:    n,
		NsPerTuple: float64(elapsed.Nanoseconds()) / float64(len(trace)),
		Classes:    st.Classes,
	}, nil
}
