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
// A separate mode backs the ci.sh perf-regression gate:
//
//	fdbench -bench-json [-benchtime d] [-baseline BENCH_BASELINE.json]
//
// runs the hot-path micro-benchmark suite (bench.MicroBenchmarks), writes a
// BENCH_*.json report to stdout, and — when -baseline is given — exits
// non-zero if any shared benchmark runs >25% slower (ns/op) than the
// committed baseline.
//
// The multi-query scaling sweep measures the shared runtime's per-tuple
// cost against the number of standing queries:
//
//	fdbench -queries 1,10,100,1000 [-scale-tuples n] [-max-ratio 2.0]
//
// With -max-ratio it enforces the scaling invariant (the largest count's
// per-tuple cost must stay under that multiple of the count-10 point); ci.sh
// gates on 2.0. Combined with -bench-json the sweep lands in the same JSON
// report under "scaling".
//
// The catalog-churn sweep measures attach/detach latency against the number
// of standing queries already attached:
//
//	fdbench -churn 10,1000 [-churn-pairs n] [-churn-max-ratio 3.0]
//
// With -churn-max-ratio it enforces the incremental-rebuild invariant (the
// largest catalog's per-mutation cost must stay under that multiple of the
// smallest catalog's — O(query), not O(catalog)); ci.sh gates on 3.0 against
// the committed BENCH_PR10.json sweep.
package main

import (
	"flag"
	"fmt"
	"os"

	"forwarddecay/bench"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = full experiment)")
	seed := flag.Uint64("seed", 20090329, "deterministic workload seed")
	benchJSON := flag.Bool("bench-json", false, "run the hot-path micro-benchmark suite and emit BENCH_*.json on stdout")
	benchtime := flag.String("benchtime", "1s", "per-benchmark run time for -bench-json (go test -benchtime syntax)")
	baseline := flag.String("baseline", "", "baseline BENCH_*.json for -bench-json; exit non-zero on >25% ns/op regression")
	benchDesc := flag.String("bench-desc", "Hot-path micro-benchmarks emitted by fdbench -bench-json for the ci.sh perf-regression gate.", "description field for the -bench-json report")
	queries := flag.String("queries", "", "comma-separated standing-query counts for the multi-query scaling sweep (e.g. 1,10,100,1000)")
	scaleTuples := flag.Int("scale-tuples", 200000, "tuples per scaling-sweep point")
	maxRatio := flag.Float64("max-ratio", 0, "fail if the largest query count's ns/tuple exceeds this multiple of the count-10 (or smallest) point; 0 disables the check")
	churn := flag.String("churn", "", "comma-separated catalog sizes for the attach/detach churn sweep (e.g. 10,1000)")
	churnPairs := flag.Int("churn-pairs", 200, "attach/detach pairs per churn-sweep point")
	churnMaxRatio := flag.Float64("churn-max-ratio", 0, "fail if the largest catalog's attach+detach ns exceeds this multiple of the smallest catalog's; 0 disables the check")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if *benchJSON || *queries != "" || *churn != "" {
		if err := runBenchJSON(*baseline, *benchtime, *benchDesc, *benchJSON, *queries, *scaleTuples, *maxRatio, *churn, *churnPairs, *churnMaxRatio, *seed); err != nil {
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
  -bench-json     run the hot-path micro-benchmarks, print BENCH_*.json;
                  with -baseline, fail on >25%% ns/op regression
  -queries N,...  multi-query scaling sweep: per-tuple ns of the shared
                  runtime at each standing-query count; with -max-ratio,
                  fail if the largest count exceeds that multiple of the
                  count-10 point; combines with -bench-json into one report
  -churn N,...    attach/detach churn sweep: per-mutation ns at each catalog
                  size; with -churn-max-ratio, fail if the largest catalog
                  exceeds that multiple of the smallest (the incremental-
                  rebuild gate); combines with the other modes into one report

flags:
`)
	flag.PrintDefaults()
}
