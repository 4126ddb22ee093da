package bench

import (
	"fmt"
	"math"
	"time"

	"forwarddecay/agg"
	"forwarddecay/decay"
	"forwarddecay/distrib"
)

func init() {
	register(Experiment{
		ID:    "dist",
		Title: "Distributed sites: merged summaries vs single-node, and merge cost (§VI-B)",
		Run:   runDist,
	})
}

// runDist partitions one stream across increasing site counts, then
// measures (a) the error of the merged decayed sum against a single-node
// run — which must be zero, the §VI-B exactness claim — and (b) the
// wall-clock cost of a full snapshot+merge cycle, which grows only with the
// number of sites, not the stream length.
func runDist(cfg RunConfig) []Table {
	n := cfg.packets(200_000)
	model := decay.NewForward(decay.NewExp(0.02), 0)
	pkts := packetStream(20_000, cfg.Seed, n)
	now := pkts[len(pkts)-1].Time

	single := agg.NewSum(model)
	for _, p := range pkts {
		single.Observe(p.Time, float64(p.Len))
	}
	want := single.Value(now)

	t := Table{
		ID:      "dist",
		Title:   "merged decayed byte sum vs single node, by site count",
		Columns: []string{"sites", "merged sum err %", "snapshot+merge (µs)"},
	}
	for _, sites := range []int{1, 2, 4, 8, 16} {
		cl, err := distrib.New(distrib.Config{Sites: sites, Model: model, HHK: 100})
		if err != nil {
			panic(err)
		}
		for _, p := range pkts {
			site := int(p.FlowKey() % uint64(sites))
			if err := cl.Observe(site, distrib.Observation{
				Key: p.DestKey(), Value: float64(p.Len), Time: p.Time,
			}); err != nil {
				panic(err)
			}
		}
		start := time.Now()
		snap, err := cl.Snapshot()
		if err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		cl.Close()
		errPct := 100 * math.Abs(snap.Sum.Value(now)-want) / want
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", sites),
			fmt.Sprintf("%.9f", errPct),
			fmt.Sprintf("%.0f", float64(elapsed.Microseconds())),
		})
	}
	t.Notes = append(t.Notes,
		"the merged decayed sum equals the single-node value to float rounding at every site count;",
		"snapshot cost covers serializing, shipping and merging every site's partial state")
	return []Table{t}
}
