// Command fdbench regenerates the tables and figures of the forward-decay
// paper's evaluation on the synthetic substrate.
//
// Usage:
//
//	fdbench [-scale f] [-seed n] list
//	fdbench [-scale f] [-seed n] all
//	fdbench [-scale f] [-seed n] <experiment-id> [<experiment-id>...]
//
// Experiment ids are the paper's figure numbers (fig1, fig2a…fig2d,
// fig3a, fig3b, fig4a…fig4d, fig5) plus "examples" for the worked examples.
// Scale 1.0 (the default) runs the full workloads; smaller values run
// proportionally smaller ones.
//
// The multi-query scaling sweep measures the shared runtime's per-tuple
// cost against the number of standing queries:
//
//	fdbench -queries 1,10,100,1000 [-scale-tuples n] [-max-ratio 2.0]
//
// With -max-ratio it enforces the scaling invariant (the largest count's
// per-tuple cost must stay under that multiple of the count-10 point); ci.sh
// gates on 2.0.
//
// The catalog-churn sweep measures attach/detach latency against the number
// of standing queries already attached:
//
//	fdbench -churn 10,1000 [-churn-pairs n] [-churn-max-ratio 3.0]
//
// With -churn-max-ratio it enforces the incremental-rebuild invariant (the
// largest catalog's per-mutation cost must stay under that multiple of the
// smallest catalog's — O(query), not O(catalog)); ci.sh gates on 3.0.
//
// Both sweeps print their tables on stderr. They gate ratios measured in one
// process, never an absolute time, so they hold on any machine.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"forwarddecay/bench"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = full experiment)")
	seed := flag.Uint64("seed", 20090329, "deterministic workload seed")
	queries := flag.String("queries", "", "comma-separated standing-query counts for the multi-query scaling sweep (e.g. 1,10,100,1000)")
	scaleTuples := flag.Int("scale-tuples", 200000, "tuples per scaling-sweep point")
	maxRatio := flag.Float64("max-ratio", 0, "fail if the largest query count's ns/tuple exceeds this multiple of the count-10 (or smallest) point; 0 disables the check")
	churn := flag.String("churn", "", "comma-separated catalog sizes for the attach/detach churn sweep (e.g. 10,1000)")
	churnPairs := flag.Int("churn-pairs", 200, "attach/detach pairs per churn-sweep point")
	churnMaxRatio := flag.Float64("churn-max-ratio", 0, "fail if the largest catalog's attach+detach ns exceeds this multiple of the smallest catalog's; 0 disables the check")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if *queries != "" || *churn != "" {
		if err := runSweeps(*queries, *scaleTuples, *maxRatio, *churn, *churnPairs, *churnMaxRatio, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "fdbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cfg := bench.RunConfig{Scale: *scale, Seed: *seed}

	switch args[0] {
	case "list":
		for _, e := range bench.Experiments() {
			fmt.Printf("%-9s %s\n", e.ID, e.Title)
		}
		return
	case "all":
		for _, e := range bench.Experiments() {
			runOne(e, cfg)
		}
		return
	}
	for _, id := range args {
		e := bench.ByID(id)
		if e == nil {
			fmt.Fprintf(os.Stderr, "fdbench: unknown experiment %q (try 'fdbench list')\n", id)
			os.Exit(1)
		}
		runOne(*e, cfg)
	}
}

func runOne(e bench.Experiment, cfg bench.RunConfig) {
	fmt.Printf("# %s — %s (scale %g)\n\n", e.ID, e.Title, cfg.Scale)
	for _, t := range e.Run(cfg) {
		t.Render(os.Stdout)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: fdbench [-scale f] [-seed n] <command>

commands:
  list            list experiment ids
  all             run every experiment
  <id> [...]      run specific experiments (e.g. fig2a fig5 examples)

modes:
  -queries N,...  multi-query scaling sweep: per-tuple ns of the shared
                  runtime at each standing-query count; with -max-ratio,
                  fail if the largest count exceeds that multiple of the
                  count-10 point
  -churn N,...    attach/detach churn sweep: per-mutation ns at each catalog
                  size; with -churn-max-ratio, fail if the largest catalog
                  exceeds that multiple of the smallest (the incremental-
                  rebuild gate); combines with -queries

flags:
`)
	flag.PrintDefaults()
}

// runSweeps runs the scaling and/or churn sweep and enforces their ratio
// gates. A failing gate re-sweeps once and keeps each point's better lap: a
// genuine scaling or O(catalog) break persists, a scheduler or GC spike on a
// small shared machine does not.
func runSweeps(queries string, scaleTuples int, maxRatio float64, churn string, churnPairs int, churnMaxRatio float64, seed uint64) error {
	if queries != "" {
		counts, err := parseCounts(queries)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scaling sweep: %d tuples/point at query counts %v\n", scaleTuples, counts)
		points, err := bench.RunMultiScale(counts, scaleTuples, seed)
		if err != nil {
			return err
		}
		if err := checkScaling(points, maxRatio); err != nil {
			fmt.Fprintf(os.Stderr, "retrying scaling sweep: %v\n", err)
			again, err := bench.RunMultiScale(counts, scaleTuples, seed)
			if err != nil {
				return err
			}
			for i := range points {
				if again[i].NsPerTuple < points[i].NsPerTuple {
					points[i] = again[i]
				}
			}
			if err := checkScaling(points, maxRatio); err != nil {
				return err
			}
		}
	}
	if churn != "" {
		catalogs, err := parseCounts(churn)
		if err != nil {
			return fmt.Errorf("bad -churn list: %w", err)
		}
		fmt.Fprintf(os.Stderr, "churn sweep: %d attach/detach pairs at catalog sizes %v\n", churnPairs, catalogs)
		points, err := bench.RunChurn(catalogs, churnPairs, seed)
		if err != nil {
			return err
		}
		if err := checkChurn(points, churnMaxRatio); err != nil {
			fmt.Fprintf(os.Stderr, "retrying churn sweep: %v\n", err)
			again, err := bench.RunChurn(catalogs, churnPairs, seed)
			if err != nil {
				return err
			}
			for i := range points {
				if again[i].AttachNs+again[i].DetachNs < points[i].AttachNs+points[i].DetachNs {
					points[i] = again[i]
				}
			}
			if err := checkChurn(points, churnMaxRatio); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseCounts parses the -queries list ("1,10,100,1000").
func parseCounts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -queries count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// checkScaling prints the sweep table and enforces the scaling invariant:
// the largest query count's per-tuple cost must stay under maxRatio times
// the count-10 point (falling back to the smallest measured count when 10
// was not swept). A shared runtime that degraded to per-query fan-out costs
// ~100x here, so the 2x ci.sh gate has a wide margin on both sides.
func checkScaling(points []bench.MultiScalePoint, maxRatio float64) error {
	if len(points) == 0 {
		return nil
	}
	fmt.Fprintf(os.Stderr, "\n%-10s %14s %10s\n", "queries", "ns/tuple", "classes")
	for _, p := range points {
		fmt.Fprintf(os.Stderr, "%-10d %14.1f %10d\n", p.Queries, p.NsPerTuple, p.Classes)
	}
	if maxRatio <= 0 {
		return nil
	}
	base, top := points[0], points[0]
	for _, p := range points {
		if p.Queries == 10 || (base.Queries != 10 && p.Queries < base.Queries) {
			base = p
		}
		if p.Queries > top.Queries {
			top = p
		}
	}
	if top.Queries == base.Queries {
		return fmt.Errorf("scaling gate: need at least two distinct query counts, got %d", top.Queries)
	}
	ratio := top.NsPerTuple / base.NsPerTuple
	if ratio > maxRatio {
		return fmt.Errorf("scaling gate: %d queries cost %.1f ns/tuple = %.2fx the %d-query cost (%.1f); limit %.2fx",
			top.Queries, top.NsPerTuple, ratio, base.Queries, base.NsPerTuple, maxRatio)
	}
	fmt.Fprintf(os.Stderr, "\nscaling gate: %d queries at %.2fx the per-tuple cost of %d (limit %.2fx)\n",
		top.Queries, ratio, base.Queries, maxRatio)
	return nil
}

// checkChurn prints the churn table and enforces the incremental-rebuild
// invariant: the largest catalog's combined attach+detach cost must stay
// under maxRatio times the smallest catalog's. Attaching a query is parse +
// plan + intern + splice-one-member, none of which depends on how many
// queries are already standing; a runtime that recompiled its predicate
// classes per mutation would cost ~100x at the 1000-query point, so the
// 3x ci.sh gate has a wide margin on both sides.
func checkChurn(points []bench.ChurnPoint, maxRatio float64) error {
	if len(points) == 0 {
		return nil
	}
	fmt.Fprintf(os.Stderr, "\n%-10s %14s %14s\n", "catalog", "attach ns", "detach ns")
	for _, p := range points {
		fmt.Fprintf(os.Stderr, "%-10d %14.1f %14.1f\n", p.Catalog, p.AttachNs, p.DetachNs)
	}
	if maxRatio <= 0 {
		return nil
	}
	base, top := points[0], points[0]
	for _, p := range points {
		if p.Catalog < base.Catalog {
			base = p
		}
		if p.Catalog > top.Catalog {
			top = p
		}
	}
	if top.Catalog == base.Catalog {
		return fmt.Errorf("churn gate: need at least two distinct catalog sizes, got %d", top.Catalog)
	}
	ratio := (top.AttachNs + top.DetachNs) / (base.AttachNs + base.DetachNs)
	if ratio > maxRatio {
		return fmt.Errorf("churn gate: attach+detach at %d queries costs %.1f ns = %.2fx the %d-query cost (%.1f); limit %.2fx — catalog mutation is no longer O(query)",
			top.Catalog, top.AttachNs+top.DetachNs, ratio, base.Catalog, base.AttachNs+base.DetachNs, maxRatio)
	}
	fmt.Fprintf(os.Stderr, "\nchurn gate: attach+detach at %d queries is %.2fx the %d-query cost (limit %.2fx)\n",
		top.Catalog, ratio, base.Catalog, maxRatio)
	return nil
}
