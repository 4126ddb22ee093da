package bench

import (
	"fmt"
	"runtime"
	"time"

	"forwarddecay/gsql"
)

// Catalog-churn harness: how long does attaching (and detaching) one
// standing query take as a function of how many queries are already
// attached? The incremental-rebuild invariant (gated in ci.sh) is that both
// are O(query) — parse, plan and splice one member — not O(catalog). A
// runtime that recompiled its predicate classes on every catalog mutation
// would scale the per-attach cost with the catalog size and fail the ratio
// gate immediately: the 1000-query catalog must churn at a small constant
// multiple of the 10-query catalog's cost (map bookkeeping grows slightly
// with occupancy, so the gate allows that constant; a recompile costs
// ~100x).

// ChurnPoint is one measured point of the churn sweep.
type ChurnPoint struct {
	Catalog  int
	AttachNs float64
	DetachNs float64
}

// RunChurn measures attach/detach latency at each catalog size, min-of-two
// laps per point (same philosophy as the scaling sweep: min-of-N estimates
// the code's true cost, GC spikes do not persist across laps).
func RunChurn(catalogs []int, pairs int, seed uint64) ([]ChurnPoint, error) {
	trace := multiScaleTrace(20_000, seed)
	out := make([]ChurnPoint, 0, len(catalogs))
	for _, n := range catalogs {
		p, err := measureChurn(n, pairs, trace)
		if err != nil {
			return nil, err
		}
		again, err := measureChurn(n, pairs, trace)
		if err != nil {
			return nil, err
		}
		if again.AttachNs+again.DetachNs < p.AttachNs+p.DetachNs {
			p = again
		}
		out = append(out, p)
	}
	return out, nil
}

func measureChurn(n, pairs int, trace []gsql.Tuple) (ChurnPoint, error) {
	nop := func(gsql.Tuple) error { return nil }
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		return ChurnPoint{}, err
	}
	// Measure the isolated runtime — the configuration the query service
	// runs — so admission estimation and attribution setup are on the
	// clock too.
	m, err := gsql.NewMultiRun(e, "TCP", gsql.Options{
		Isolate: &gsql.IsolateConfig{BreakerErrors: 16},
	})
	if err != nil {
		return ChurnPoint{}, err
	}
	for i := 0; i < n; i++ {
		if _, err := m.Attach(MultiScaleQuery(i), 0, nop); err != nil {
			return ChurnPoint{}, fmt.Errorf("attach query %d: %w", i, err)
		}
	}
	// Materialize live groups and key-table occupancy before the timed
	// churn: an empty catalog would undersell the detach path.
	for _, t := range trace {
		if err := m.Push(t); err != nil {
			return ChurnPoint{}, err
		}
	}
	runtime.GC()
	var attachNs, detachNs int64
	for i := 0; i < pairs; i++ {
		// A fresh text each time (continuing the standing numbering), so
		// every attach pays parse+plan+intern, never the plan-dedup cache.
		q := MultiScaleQuery(n + i)
		t0 := time.Now()
		h, err := m.Attach(q, 0, nop)
		t1 := time.Now()
		if err != nil {
			return ChurnPoint{}, fmt.Errorf("churn attach %d: %w", i, err)
		}
		h.Detach()
		t2 := time.Now()
		attachNs += t1.Sub(t0).Nanoseconds()
		detachNs += t2.Sub(t1).Nanoseconds()
	}
	if err := m.CloseAll(); err != nil {
		return ChurnPoint{}, err
	}
	return ChurnPoint{
		Catalog:  n,
		AttachNs: float64(attachNs) / float64(pairs),
		DetachNs: float64(detachNs) / float64(pairs),
	}, nil
}
