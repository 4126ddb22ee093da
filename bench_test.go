// Top-level benchmarks: one testing.B benchmark per table/figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`), plus ablation
// benchmarks for the design choices called out in DESIGN.md. The bench
// package's fdbench command renders the same experiments as paper-style
// tables; these benchmarks expose the raw per-operation costs to standard
// Go tooling.
package forwarddecay_test

import (
	"fmt"
	"testing"
	"time"

	"forwarddecay/agg"
	"forwarddecay/decay"
	"forwarddecay/distrib"
	"forwarddecay/gsql"
	"forwarddecay/metrics"
	"forwarddecay/netgen"
	"forwarddecay/sample"
	"forwarddecay/sketch"
	"forwarddecay/udaf"
	"forwarddecay/window"
)

// benchPackets materializes a packet stream for benchmarks.
func benchPackets(rate float64, n int) []netgen.Packet {
	g := netgen.New(netgen.DefaultConfig(rate, 42))
	return g.Take(make([]netgen.Packet, 0, n), n)
}

func benchTuples(rate float64, n int) []gsql.Tuple {
	g := netgen.New(netgen.DefaultConfig(rate, 42))
	out := make([]gsql.Tuple, n)
	for i := range out {
		out[i] = netgen.Tuple(g.Next())
	}
	return out
}

// benchEngine builds an engine with all UDAFs registered.
func benchEngine(b *testing.B, eps float64) *gsql.Engine {
	b.Helper()
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		b.Fatal(err)
	}
	if err := udaf.RegisterAll(e, udaf.Config{Epsilon: eps, Window: 60}); err != nil {
		b.Fatal(err)
	}
	return e
}

// runQueryBench pushes b.N tuples through a prepared statement.
func runQueryBench(b *testing.B, eps float64, query string, tuples []gsql.Tuple, opts gsql.Options) {
	b.Helper()
	e := benchEngine(b, eps)
	st, err := e.Prepare(query)
	if err != nil {
		b.Fatal(err)
	}
	run := st.Start(func(gsql.Tuple) error { return nil }, opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run.Push(tuples[i%len(tuples)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := run.Close(); err != nil {
		b.Fatal(err)
	}
}

// Figure 2(a): per-minute per-destination count+sum under each method with
// the two-level split on.
func BenchmarkFig2aCountSum(b *testing.B) {
	tuples := benchTuples(200_000, 200_000)
	for _, m := range []struct{ name, q string }{
		{"NoDecay", `select tb, dstIP, destPort, count(*), sum(len) from TCP group by time/60 as tb, dstIP, destPort`},
		{"FwdPoly", `select tb, dstIP, destPort, sum(float(len)*(time % 60)*(time % 60))/3600 from TCP group by time/60 as tb, dstIP, destPort`},
		{"FwdExp", `select tb, dstIP, destPort, sum(float(len)*exp(float(time % 60)/10)) from TCP group by time/60 as tb, dstIP, destPort`},
		{"BwdEH", `select tb, dstIP, destPort, ehsum(ftime, float(len)) from TCP group by time/60 as tb, dstIP, destPort`},
	} {
		b.Run(m.name, func(b *testing.B) {
			runQueryBench(b, 0.1, m.q, tuples, gsql.Options{})
		})
	}
}

// Figure 2(b): the same queries with aggregate splitting disabled.
func BenchmarkFig2bNoSplit(b *testing.B) {
	tuples := benchTuples(200_000, 200_000)
	for _, m := range []struct{ name, q string }{
		{"NoDecay", `select tb, dstIP, destPort, count(*), sum(len) from TCP group by time/60 as tb, dstIP, destPort`},
		{"FwdPoly", `select tb, dstIP, destPort, sum(float(len)*(time % 60)*(time % 60))/3600 from TCP group by time/60 as tb, dstIP, destPort`},
	} {
		b.Run(m.name, func(b *testing.B) {
			runQueryBench(b, 0.1, m.q, tuples, gsql.Options{DisableTwoLevel: true})
		})
	}
}

// Figure 2(c): the EH baseline's cost as ε shrinks (forward methods are
// ε-independent; see BenchmarkFig2aCountSum).
func BenchmarkFig2cEHEpsilon(b *testing.B) {
	tuples := benchTuples(100_000, 150_000)
	const q = `select tb, dstIP, destPort, ehsum(ftime, float(len)) from TCP group by time/60 as tb, dstIP, destPort`
	for _, eps := range []float64{0.01, 0.02, 0.05, 0.1} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			runQueryBench(b, eps, q, tuples, gsql.Options{})
		})
	}
}

// Figure 2(d): per-group space. The benchmark inserts a hot group's minute
// of traffic into an EH and reports bytes/group (forward decay needs 8).
func BenchmarkFig2dSpacePerGroup(b *testing.B) {
	pkts := benchPackets(100, 6000) // one destination's packets over ~60 s
	for _, eps := range []float64{0.01, 0.1} {
		b.Run(fmt.Sprintf("EH/eps=%g", eps), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				eh := sketch.NewExpHistogram(eps, 60)
				for _, p := range pkts {
					eh.Insert(p.Time, float64(p.Len))
				}
				size = eh.SizeBytes()
			}
			b.ReportMetric(float64(size), "bytes/group")
		})
	}
	b.Run("FwdDecay", func(b *testing.B) {
		m := decay.NewForward(decay.NewPoly(2), 0)
		s := agg.NewSum(m)
		for i := 0; i < b.N; i++ {
			s.Observe(pkts[i%len(pkts)].Time, float64(pkts[i%len(pkts)].Len))
		}
		b.ReportMetric(8, "bytes/group")
	})
}

// Figure 3(a)/(b): sampling maintenance cost per packet; sub-benchmarks
// cover the three methods and the sample-size sweep.
func BenchmarkFig3Sampling(b *testing.B) {
	pkts := benchPackets(200_000, 200_000)
	for _, k := range []int{100, 1000, 10_000} {
		b.Run(fmt.Sprintf("Reservoir/k=%d", k), func(b *testing.B) {
			s := sample.NewReservoir[uint32](k, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Add(pkts[i%len(pkts)].SrcIP)
			}
		})
		b.Run(fmt.Sprintf("PriorityFwdExp/k=%d", k), func(b *testing.B) {
			s := sample.NewPriority[uint32](k, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pkts[i%len(pkts)]
				s.Add(p.SrcIP, 0.1*float64(int64(p.Time)%60))
			}
		})
		b.Run(fmt.Sprintf("Aggarwal/k=%d", k), func(b *testing.B) {
			s := sample.NewAggarwal[uint32](k, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Add(pkts[i%len(pkts)].SrcIP)
			}
		})
	}
	b.Run("WRSFwdExp/k=1000", func(b *testing.B) {
		s := sample.NewWRS[uint32](1000, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pkts[i%len(pkts)]
			s.Add(p.SrcIP, 0.1*float64(int64(p.Time)%60))
		}
	})
}

// Figures 4(a)/4(b) and 5: heavy-hitter maintenance cost per packet for the
// four methods, across ε.
func BenchmarkFig45HeavyHitters(b *testing.B) {
	pkts := benchPackets(200_000, 200_000)
	for _, eps := range []float64{0.01, 0.1} {
		k := int(1 / eps)
		b.Run(fmt.Sprintf("UnaryHH/eps=%g", eps), func(b *testing.B) {
			s := sketch.NewStreamSummary(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(pkts[i%len(pkts)].DestKey())
			}
		})
		b.Run(fmt.Sprintf("FwdExpSS/eps=%g", eps), func(b *testing.B) {
			h := agg.NewHeavyHittersK(decay.NewForward(decay.NewExp(0.1), 0), k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pkts[i%len(pkts)]
				h.Observe(p.DestKey(), p.Time)
			}
		})
		b.Run(fmt.Sprintf("FwdPolySS/eps=%g", eps), func(b *testing.B) {
			h := agg.NewHeavyHittersK(decay.NewForward(decay.NewPoly(2), -1), k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pkts[i%len(pkts)]
				h.Observe(p.DestKey(), p.Time)
			}
		})
		b.Run(fmt.Sprintf("SlidingWindow/eps=%g", eps), func(b *testing.B) {
			h := window.NewHeavyHitters(60, eps)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pkts[i%len(pkts)]
				h.Observe(p.DestKey(), p.Time, 1)
			}
			b.StopTimer()
			b.ReportMetric(float64(h.SizeBytes()), "bytes")
		})
	}
}

// Figure 4(c)/(d): heavy-hitter space. Reported as bytes metrics after a
// full simulated window of traffic.
func BenchmarkFig4cdSpace(b *testing.B) {
	pkts := benchPackets(5000, 450_000) // ~90 s of traffic
	for _, eps := range []float64{0.01, 0.1} {
		k := int(1 / eps)
		b.Run(fmt.Sprintf("FwdSS/eps=%g", eps), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				h := agg.NewHeavyHittersK(decay.NewForward(decay.NewExp(0.1), 0), k)
				for _, p := range pkts {
					h.Observe(p.DestKey(), p.Time)
				}
				size = h.SizeBytes()
			}
			b.ReportMetric(float64(size), "bytes")
		})
		b.Run(fmt.Sprintf("SlidingWindow/eps=%g", eps), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				h := window.NewHeavyHitters(60, eps)
				for _, p := range pkts {
					h.Observe(p.DestKey(), p.Time, 1)
				}
				size = h.SizeBytes()
			}
			b.ReportMetric(float64(size), "bytes")
		})
	}
}

// Figure 1 / core model: the cost of a single weight evaluation and of a
// forward-decayed counter update (the 8-byte state of Figure 2(d)).
func BenchmarkFig1WeightEvaluation(b *testing.B) {
	models := []struct {
		name string
		m    decay.Forward
	}{
		{"Poly2", decay.NewForward(decay.NewPoly(2), 0)},
		{"Exp", decay.NewForward(decay.NewExp(0.1), 0)},
	}
	for _, mm := range models {
		b.Run(mm.name+"/Weight", func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc += mm.m.Weight(float64(i%1000), 1000)
			}
			_ = acc
		})
		b.Run(mm.name+"/CounterObserve", func(b *testing.B) {
			c := agg.NewCounter(mm.m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Observe(float64(i % 100000))
			}
		})
	}
}

// Ablation: heap-based weighted SpaceSaving vs the unary-optimised
// stream-summary structure, on the same unary stream (the Figure 5 gap).
func BenchmarkAblationSpaceSaving(b *testing.B) {
	pkts := benchPackets(200_000, 200_000)
	b.Run("WeightedHeap", func(b *testing.B) {
		s := sketch.NewSpaceSavingK(100)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Update(pkts[i%len(pkts)].DestKey(), 1)
		}
	})
	b.Run("UnaryBuckets", func(b *testing.B) {
		s := sketch.NewStreamSummary(100)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Update(pkts[i%len(pkts)].DestKey())
		}
	})
}

// The EH's insert alone, over a 60 s window of one tape: packet lengths at
// two accuracies (≈ 90 and ≈ 550 live buckets) and the classic unit-weight
// case at the finest. The per-insert cost must not follow the bucket count.
func BenchmarkExpHistogramInsert(b *testing.B) {
	pkts := benchPackets(100, 200_000)
	for _, c := range []struct {
		name string
		eps  float64
		unit bool
	}{{"eps=0.1", 0.1, false}, {"eps=0.01", 0.01, false}, {"unit-eps=0.005", 0.005, true}} {
		b.Run(c.name, func(b *testing.B) {
			h := sketch.NewExpHistogram(c.eps, 60)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Laps of the tape continue its clock, so the window keeps
				// turning over instead of clamping every timestamp.
				p := &pkts[i%len(pkts)]
				ts := p.Time + float64(i/len(pkts))*pkts[len(pkts)-1].Time
				if c.unit {
					h.Insert(ts, 1)
				} else {
					h.Insert(ts, float64(p.Len))
				}
			}
			b.ReportMetric(float64(h.Len()), "buckets")
		})
	}
}

// Ablation: Exponential Histogram vs Deterministic Wave for window counts.
func BenchmarkAblationWindowCount(b *testing.B) {
	pkts := benchPackets(100_000, 200_000)
	b.Run("ExpHistogram", func(b *testing.B) {
		h := sketch.NewExpHistogram(0.05, 60)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Insert(pkts[i%len(pkts)].Time, 1)
		}
	})
	b.Run("Wave", func(b *testing.B) {
		w := sketch.NewWave(20, 60)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Insert(pkts[i%len(pkts)].Time)
		}
	})
}

// Ablation: the log-domain rebasing path (exponential decay, rebases
// regularly) vs the plain path (polynomial decay, never rebases) vs no
// decay, isolating the §VI-A machinery's cost.
func BenchmarkAblationRescale(b *testing.B) {
	for _, mm := range []struct {
		name string
		m    decay.Forward
	}{
		{"None", decay.NewForward(decay.None{}, 0)},
		{"Poly2", decay.NewForward(decay.NewPoly(2), 0)},
		{"ExpFastRebase", decay.NewForward(decay.NewExp(10), 0)}, // rebases every ~30 time units
	} {
		b.Run(mm.name, func(b *testing.B) {
			s := agg.NewSum(mm.m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Observe(float64(i)*0.001, 1.5)
			}
		})
	}
}

// Ablation: two-level split on vs off for the same query (Figure 2(a) vs
// 2(b) in microbenchmark form).
func BenchmarkAblationTwoLevel(b *testing.B) {
	tuples := benchTuples(200_000, 200_000)
	const q = `select tb, dstIP, destPort, count(*), sum(len) from TCP group by time/60 as tb, dstIP, destPort`
	for _, slots := range []int{4096, 65536, 262144} {
		b.Run(fmt.Sprintf("Split/slots=%d", slots), func(b *testing.B) {
			runQueryBench(b, 0.1, q, tuples, gsql.Options{LowLevelSlots: slots})
		})
	}
	b.Run("NoSplit", func(b *testing.B) {
		runQueryBench(b, 0.1, q, tuples, gsql.Options{DisableTwoLevel: true})
	})
}

// Ablation: forward-decay quantiles (one weighted q-digest) vs the
// windowed block hierarchy — the quantile analogue of the Figure 4/5 gap.
func BenchmarkAblationQuantiles(b *testing.B) {
	pkts := benchPackets(100_000, 200_000)
	b.Run("ForwardDigest", func(b *testing.B) {
		m := decay.NewForward(decay.NewPoly(2), -1)
		q := agg.NewQuantiles(m, 2048, 0.05)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pkts[i%len(pkts)]
			q.Observe(uint64(p.Len), p.Time)
		}
	})
	b.Run("WindowBlocks", func(b *testing.B) {
		q := window.NewQuantiles(60, 2048, 0.05)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pkts[i%len(pkts)]
			q.Observe(uint64(p.Len), p.Time, 1)
		}
	})
}

// Distributed ingestion: per-observation cost through a site channel
// (includes the channel hop, the §VI-B deployment's "network").
func BenchmarkDistribIngest(b *testing.B) {
	model := decay.NewForward(decay.NewExp(0.01), 0)
	cl, err := distrib.New(distrib.Config{Sites: 4, Model: model, HHK: 100, Buffer: 8192})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	pkts := benchPackets(100_000, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts[i%len(pkts)]
		cl.Observe(i, distrib.Observation{Key: p.DestKey(), Value: float64(p.Len), Time: p.Time})
	}
}

// Metrics reservoir: the production-facing decaying-percentiles path.
func BenchmarkMetricsReservoirUpdate(b *testing.B) {
	clock := time.Date(2026, 7, 4, 0, 0, 0, 0, time.UTC)
	r := metrics.NewReservoir(1024, 30*time.Second,
		metrics.WithClock(func() time.Time { return clock }))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1000 == 0 {
			clock = clock.Add(time.Second)
		}
		r.Update(float64(i % 500))
	}
}

// Holistic aggregates under forward decay: quantile and distinct-count
// maintenance cost (Theorems 3 and 4).
func BenchmarkHolisticForwardDecay(b *testing.B) {
	pkts := benchPackets(100_000, 200_000)
	m := decay.NewForward(decay.NewPoly(2), -1)
	b.Run("QuantilesObserve", func(b *testing.B) {
		q := agg.NewQuantiles(m, 2048, 0.05)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pkts[i%len(pkts)]
			q.Observe(uint64(p.Len), p.Time)
		}
	})
	b.Run("DistinctObserve", func(b *testing.B) {
		d := agg.NewDistinct(m, 256, 1.2, 128)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pkts[i%len(pkts)]
			d.Observe(p.DestKey(), p.Time)
		}
	})
	b.Run("DistinctExactObserve", func(b *testing.B) {
		d := agg.NewDistinctExact(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pkts[i%len(pkts)]
			d.Observe(p.DestKey(), p.Time)
		}
	})
}

// Sharded LFTA/HFTA runtime: end-to-end ingest throughput of
// Statement.StartParallel vs the serial executor on a multi-group
// forward-decay query, both fed 256-row frames through PushBatch (ns/op is
// per tuple). Speedup over serial requires GOMAXPROCS > 1; at GOMAXPROCS=1
// the shard variants expose routing + channel overhead.
func BenchmarkParallelIngest(b *testing.B) {
	tuples := benchTuples(200_000, 200_000)
	const q = `select tb, dstIP, destPort, count(*), sum(len),
	             sum(float(len)*(time % 60)*(time % 60))/3600
	           from TCP group by time/60 as tb, dstIP, destPort`
	const frame = 256
	var frames []*gsql.Batch
	for lo := 0; lo+frame <= len(tuples); lo += frame {
		fb, err := gsql.NewBatch(gsql.PacketSchema("TCP"))
		if err != nil {
			b.Fatal(err)
		}
		for _, tp := range tuples[lo : lo+frame] {
			if err := fb.Append(tp); err != nil {
				b.Fatal(err)
			}
		}
		frames = append(frames, fb)
	}
	prepare := func(b *testing.B) *gsql.Statement {
		st, err := benchEngine(b, 0.1).Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	drive := func(b *testing.B, push func(*gsql.Batch) (int, error), close func() error) {
		b.ResetTimer()
		for i := 0; i < b.N; i += frame {
			if _, err := push(frames[(i/frame)%len(frames)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := close(); err != nil {
			b.Fatal(err)
		}
	}
	nop := func(gsql.Tuple) error { return nil }
	b.Run("Serial", func(b *testing.B) {
		run := prepare(b).Start(nop, gsql.Options{})
		drive(b, run.PushBatch, run.Close)
	})
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("Shards=%d", shards), func(b *testing.B) {
			pr, err := prepare(b).StartParallel(nop, gsql.ParallelOptions{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			drive(b, pr.PushBatch, pr.Close)
		})
	}
}
