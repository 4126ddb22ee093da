package bench

import (
	"fmt"

	"forwarddecay/agg"
	"forwarddecay/decay"
	"forwarddecay/gsql"
	"forwarddecay/sketch"
	"forwarddecay/udaf"
	"forwarddecay/window"
)

func init() {
	register(Experiment{
		ID:    "ablations",
		Title: "Ablations of the design choices called out in DESIGN.md",
		Run:   runAblations,
	})
}

func runAblations(cfg RunConfig) []Table {
	n := cfg.packets(200_000)
	pkts := packetStream(200_000, cfg.Seed, n)

	// 1. Heap-based weighted SpaceSaving vs unary-optimised bucket list on
	//    the same unary stream.
	ssTable := Table{
		ID:      "ablation-ss",
		Title:   "SpaceSaving variants on a unary stream (k=100)",
		Columns: []string{"structure", "ns/update"},
	}
	heap := sketch.NewSpaceSavingK(100)
	hNs := MeasureNsPerOp(len(pkts), func(i int) { heap.Update(pkts[i].DestKey(), 1) })
	unary := sketch.NewStreamSummary(100)
	uNs := MeasureNsPerOp(len(pkts), func(i int) { unary.Update(pkts[i].DestKey()) })
	ssTable.Rows = [][]string{
		{"weighted heap (O(log k))", fmt.Sprintf("%.0f", hNs)},
		{"unary buckets (O(1))", fmt.Sprintf("%.0f", uNs)},
	}
	ssTable.Notes = append(ssTable.Notes,
		"the unary structure motivates Figure 5's separate 'Unary HH' series")

	// 2. Two-level split on/off across low-table sizes.
	tuples := tupleStream(200_000, cfg.Seed, n)
	const q = `select tb, dstIP, destPort, count(*), sum(len) from TCP group by time/60 as tb, dstIP, destPort`
	tlTable := Table{
		ID:      "ablation-twolevel",
		Title:   "two-level aggregate split (in-process)",
		Columns: []string{"configuration", "ns/tuple"},
	}
	for _, slots := range []int{4096, 65536} {
		e := newEngine(udaf.Config{})
		ns := runStatementNsPerTuple(e, q, tuples, gsql.Options{LowLevelSlots: slots})
		tlTable.Rows = append(tlTable.Rows, []string{
			fmt.Sprintf("split, %d slots", slots), fmt.Sprintf("%.0f", ns)})
	}
	e := newEngine(udaf.Config{})
	ns := runStatementNsPerTuple(e, q, tuples, gsql.Options{DisableTwoLevel: true})
	tlTable.Rows = append(tlTable.Rows, []string{"no split", fmt.Sprintf("%.0f", ns)})
	tlTable.Notes = append(tlTable.Notes,
		"in one process the split does not pay for itself; GS's benefit comes from",
		"running the low level in a separate lightweight process (see EXPERIMENTS.md)")

	// 3. EH vs Deterministic Wave for window counts. The backward queries
	//    are timed too, at the stream's end: a backward summary pays at
	//    query time what forward decay pays at insert.
	const queries = 1000
	now := pkts[len(pkts)-1].Time
	wcTable := Table{
		ID:      "ablation-windowcount",
		Title:   "window-count summaries over a 60 s window",
		Columns: []string{"structure", "ns/insert", "ns/query", "bytes"},
	}
	eh := sketch.NewExpHistogram(0.05, 60)
	ehNs := MeasureNsPerOp(len(pkts), func(i int) { eh.Insert(pkts[i].Time, 1) })
	ehQ := MeasureNsPerOp(queries, func(int) { eh.WindowCount(now) })
	wv := sketch.NewWave(20, 60)
	wvNs := MeasureNsPerOp(len(pkts), func(i int) { wv.Insert(pkts[i].Time) })
	wvQ := MeasureNsPerOp(queries, func(int) { wv.WindowCount(now) })
	wcTable.Rows = [][]string{
		{"Exponential Histogram", fmt.Sprintf("%.0f", ehNs), fmt.Sprintf("%.0f", ehQ), fmtBytes(eh.SizeBytes())},
		{"Deterministic Wave", fmt.Sprintf("%.0f", wvNs), fmt.Sprintf("%.0f", wvQ), fmtBytes(wv.SizeBytes())},
	}

	// 4. The cost of the §VI-A log-domain rebasing machinery.
	rsTable := Table{
		ID:      "ablation-rescale",
		Title:   "decayed-sum update cost by decay function (rebasing overhead)",
		Columns: []string{"decay", "ns/observe"},
	}
	for _, mm := range []struct {
		name string
		m    decay.Forward
	}{
		{"none", decay.NewForward(decay.None{}, 0)},
		{"poly(2), never rebases", decay.NewForward(decay.NewPoly(2), 0)},
		{"exp(10), rebases every ~30 s", decay.NewForward(decay.NewExp(10), 0)},
	} {
		s := agg.NewSum(mm.m)
		ns := MeasureNsPerOp(len(pkts), func(i int) { s.Observe(float64(i)*0.001, 1.5) })
		rsTable.Rows = append(rsTable.Rows, []string{mm.name, fmt.Sprintf("%.0f", ns)})
	}

	// 5. Forward quantile digest vs windowed block hierarchy.
	qTable := Table{
		ID:      "ablation-quantiles",
		Title:   "quantile maintenance: one weighted q-digest vs windowed blocks",
		Columns: []string{"structure", "ns/observe", "ns/query", "bytes"},
	}
	fq := agg.NewQuantiles(decay.NewForward(decay.NewPoly(2), -1), 2048, 0.05)
	fqNs := MeasureNsPerOp(len(pkts), func(i int) { fq.Observe(uint64(pkts[i].Len), pkts[i].Time) })
	fqQ := MeasureNsPerOp(queries, func(int) { fq.Quantile(0.5) })
	wq := window.NewQuantiles(60, 2048, 0.05)
	wqNs := MeasureNsPerOp(len(pkts), func(i int) { wq.Observe(uint64(pkts[i].Len), pkts[i].Time, 1) })
	wqQ := MeasureNsPerOp(queries, func(int) { wq.Query(now, 0.5) })
	qTable.Rows = [][]string{
		{"forward decay (agg.Quantiles)", fmt.Sprintf("%.0f", fqNs), fmt.Sprintf("%.0f", fqQ), fmtBytes(fq.SizeBytes())},
		{"sliding window (window.Quantiles)", fmt.Sprintf("%.0f", wqNs), fmt.Sprintf("%.0f", wqQ), fmtBytes(wq.SizeBytes())},
	}
	qTable.Notes = append(qTable.Notes,
		"both queries ask for the median; the window merges its blocks into a fresh digest per query")

	return []Table{ssTable, tlTable, wcTable, rsTable, qTable}
}
