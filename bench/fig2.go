package bench

import (
	"fmt"

	"forwarddecay/decay"
	"forwarddecay/gsql"
	"forwarddecay/internal/core"
	"forwarddecay/sketch"
	"forwarddecay/udaf"
)

func init() {
	register(Experiment{ID: "fig2a", Title: "Count/Sum CPU load vs stream rate, two-level aggregation on (Figure 2a)",
		Run: func(cfg RunConfig) []Table { return []Table{runFig2Rates(cfg, "fig2a", gsql.Options{})} }})
	register(Experiment{ID: "fig2b", Title: "Count/Sum CPU load vs stream rate, aggregate splitting disabled (Figure 2b)",
		Run: func(cfg RunConfig) []Table {
			return []Table{runFig2Rates(cfg, "fig2b", gsql.Options{DisableTwoLevel: true})}
		}})
	register(Experiment{ID: "fig2c", Title: "Count/Sum throughput vs EH accuracy parameter ε (Figure 2c)", Run: runFig2c})
	register(Experiment{ID: "fig2d", Title: "Space per group vs ε (Figure 2d)", Run: runFig2d})
}

// The four methods of Figure 2, as GSQL queries: undecayed builtins,
// quadratic and exponential forward decay in pure arithmetic (§IV-A), and
// the backward-decay-capable Exponential Histogram UDAF.
const (
	qUndecayed = `select tb, dstIP, destPort, count(*), sum(len)
	              from TCP group by time/60 as tb, dstIP, destPort`
	qFwdPoly = `select tb, dstIP, destPort,
	              sum(float((time % 60)*(time % 60)))/3600,
	              sum(float(len)*(time % 60)*(time % 60))/3600
	            from TCP group by time/60 as tb, dstIP, destPort`
	qFwdExp = `select tb, dstIP, destPort,
	              sum(exp(float(time % 60)/10)),
	              sum(float(len)*exp(float(time % 60)/10))
	            from TCP group by time/60 as tb, dstIP, destPort`
	qBwdEH = `select tb, dstIP, destPort,
	              ehsum(ftime, float(1)), ehsum(ftime, float(len))
	            from TCP group by time/60 as tb, dstIP, destPort`
)

// fig2Methods pairs method names with their queries.
var fig2Methods = []struct {
	name  string
	query string
	eps   float64 // EH epsilon; 0 for ε-independent methods
}{
	{"no decay", qUndecayed, 0},
	{"fwd poly(2)", qFwdPoly, 0},
	{"fwd exp", qFwdExp, 0},
	{"bwd EH(0.1)", qBwdEH, 0.1},
}

// runFig2Rates measures per-tuple cost of each method at each stream rate
// and reports modelled CPU load.
func runFig2Rates(cfg RunConfig, id string, opts gsql.Options) Table {
	rates := []float64{100_000, 200_000, 300_000, 400_000}
	n := cfg.packets(250_000)
	t := Table{
		ID:      id,
		Title:   "CPU load (% of one core) of per-minute per-destination count+sum",
		Columns: []string{"rate (pkt/s)"},
	}
	for _, m := range fig2Methods {
		t.Columns = append(t.Columns, m.name)
	}
	for _, rate := range rates {
		tuples := tupleStream(rate, cfg.Seed, n)
		row := []string{fmtRate(rate)}
		for _, m := range fig2Methods {
			eps := m.eps
			if eps == 0 {
				eps = 0.1
			}
			e := newEngine(udaf.Config{Epsilon: eps, Window: 60, EHDecay: decay.NewSlidingWindow(60)})
			ns := runStatementNsPerTuple(e, m.query, tuples, opts)
			row = append(row, fmtLoad(CPULoad(rate, ns)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"load = measured ns/pkt × rate / 1e7; >100% means the method cannot keep up (tuple drops)")
	if opts.DisableTwoLevel {
		t.Notes = append(t.Notes, "two-level aggregate splitting disabled for all methods (the EH UDAF always runs high-level)")
	}
	return t
}

// runFig2c sweeps the EH accuracy parameter and reports sustainable
// throughput per method (the forward methods do not depend on ε).
func runFig2c(cfg RunConfig) []Table {
	const rate = 100_000
	epss := []float64{0.01, 0.02, 0.05, 0.1}
	n := cfg.packets(200_000)
	tuples := tupleStream(rate, cfg.Seed, n)

	t := Table{
		ID:      "fig2c",
		Title:   "max throughput (kpkt/s) vs ε at 100k pkt/s offered",
		Columns: []string{"epsilon", "no decay", "fwd poly(2)", "fwd exp", "bwd EH(ε)"},
	}
	// ε-independent methods: measure once.
	fixed := make([]float64, 3)
	for i, m := range fig2Methods[:3] {
		e := newEngine(udaf.Config{Epsilon: 0.1})
		ns := runStatementNsPerTuple(e, m.query, tuples, gsql.Options{})
		fixed[i] = 1e6 / ns // kpkt/s
	}
	for _, eps := range epss {
		e := newEngine(udaf.Config{Epsilon: eps, Window: 60})
		ns := runStatementNsPerTuple(e, qBwdEH, tuples, gsql.Options{})
		row := []string{fmt.Sprintf("%.2f", eps)}
		for _, f := range fixed {
			row = append(row, fmt.Sprintf("%.0f", f))
		}
		row = append(row, fmt.Sprintf("%.0f", 1e6/ns))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"undecayed and forward-decayed throughput is ε-independent; the EH baseline's per-group state grows as ε shrinks (its insert does not)")
	return []Table{t}
}

// runFig2d reports per-group state: undecayed and forward decay store one
// machine word per aggregate; the EH baseline stores a bucket histogram.
func runFig2d(cfg RunConfig) []Table {
	epss := []float64{0.01, 0.02, 0.05, 0.1}
	t := Table{
		ID:      "fig2d",
		Title:   "space per group (log scale in the paper): one hot destination over a 60 s bucket",
		Columns: []string{"epsilon", "no decay", "fwd decay", "bwd EH(ε)"},
	}
	// A hot group receiving 100 pkt/s for one minute.
	rng := core.NewRNG(cfg.Seed)
	var arr []float64
	ts := 0.0
	for ts < 60 {
		ts += rng.ExpFloat64() / 100
		arr = append(arr, ts)
	}
	for _, eps := range epss {
		eh := sketch.NewExpHistogram(eps, 60)
		for _, a := range arr {
			eh.Insert(a, 40+float64(int(a*1e6)%1400))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", eps),
			"4 B", // 32-bit counter, as the paper reports for GS
			"8 B", // one float64 scaled sum
			fmtBytes(eh.SizeBytes()),
		})
	}
	t.Notes = append(t.Notes,
		"queries generate tens of thousands of groups per minute, so KB-per-group is unsustainable (§VIII)")
	return []Table{t}
}
