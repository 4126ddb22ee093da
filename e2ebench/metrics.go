package e2ebench

// MetricDef names one metric of the benchmark. BENCHMARK.json at the root
// of the repository lists exactly these (a test keeps the two in step); the
// definitions are in README.md.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change is rejected (0 for per-layer
	// metrics, which are reported, not gated).
	Bound float64
}

// EndToEnd are the gated metrics, printed by an untraced run.
var EndToEnd = []MetricDef{
	{"tuples_per_s", "tuples/s", "higher", 0.25},
	{"cpu_ns_per_tuple", "ns", "lower", 0.25},
	{"allocs_per_tuple", "allocs", "lower", 0.15},
	{"emit_p50_ms", "ms", "lower", 0.25},
	{"live_heap_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// PerLayer are the layer metrics, printed by a traced run; the prefix is the
// module measured. failed_share keeps its end-to-end name
// but is reported here: see README.md, "Metrics that moved".
var PerLayer = []MetricDef{
	{"ingest.encode_ns_per_tuple", "ns", "lower", 0},
	{"ingest.decode_ns_per_tuple", "ns", "lower", 0},
	{"ingest.fill_ns_per_tuple", "ns", "lower", 0},
	{"ingest.wire_bytes_per_tuple", "bytes", "lower", 0},
	{"ingest.loop_ns_per_tuple", "ns", "lower", 0},
	{"ingest.send_wait_share", "ratio", "higher", 0},
	{"ingest.frames_resent", "count", "lower", 0},
	{"server.empty_ns_per_tuple", "ns", "lower", 0},
	{"server.wal_ns_per_tuple", "ns", "lower", 0},
	{"server.checkpoints", "count", "lower", 0},
	{"server.state_bytes", "bytes", "lower", 0},
	{"server.rows_per_tuple", "rows/tuple", "higher", 0},
	{"server.sub_ns_per_row", "ns", "lower", 0},
	{"server.shed_share", "ratio", "lower", 0},
	{"server.gaps_reported", "count", "lower", 0},
	{"server.restarts", "count", "lower", 0},
	{"server.emit_first_ms", "ms", "lower", 0},
	{"server.emit_last_ms", "ms", "lower", 0},
	{"server.residual_ns_per_tuple", "ns", "lower", 0},
	{"server.attach_ms_per_query", "ms", "lower", 0},
	{"server.ewma_ratio", "ratio", "lower", 0},
	{"gsql.multi_ns_per_tuple", "ns", "lower", 0},
	{"gsql.allocs_per_tuple", "allocs", "lower", 0},
	{"gsql.classes", "count", "lower", 0},
	{"gsql.distinct_exprs", "count", "lower", 0},
	{"gsql.shared_hit_ratio", "ratio", "higher", 0},
	{"gsql.multi_scalar_ns_per_tuple", "ns", "lower", 0},
	{"gsql.solo_ns_per_tuple", "ns", "lower", 0},
	{"gsql.share_gain", "ratio", "higher", 0},
	{"gsql.run_ns_per_tuple", "ns", "lower", 0},
	{"gsql.parallel2_ns_per_tuple", "ns", "lower", 0},
	{"gsql.parallel2_speedup", "ratio", "higher", 0},
	{"gsql.where_ns_per_tuple", "ns", "lower", 0},
	{"gsql.attach_us_per_query", "us", "lower", 0},
	{"gsql.checkpoint_ms", "ms", "lower", 0},
	{"gsql.checkpoint_bytes", "bytes", "lower", 0},
	{"gsql.restore_ms", "ms", "lower", 0},
	{"gsql.q_fdsum_ns_per_tuple", "ns", "lower", 0},
	{"gsql.q_fdhh_ns_per_tuple", "ns", "lower", 0},
	{"gsql.q_fdpct_ns_per_tuple", "ns", "lower", 0},
	{"gsql.q_fdsamp_ns_per_tuple", "ns", "lower", 0},
	{"gsql.q_bwd_ns_per_tuple", "ns", "lower", 0},
	{"gsql.q_undecayed_ns_per_tuple", "ns", "lower", 0},
	{"paper.fwd_over_undecayed", "ratio", "lower", 0},
	{"paper.bwd_over_fwd", "ratio", "higher", 0},
	{"agg.counter_ns", "ns", "lower", 0},
	{"agg.sum_ns", "ns", "lower", 0},
	{"agg.hh_ns", "ns", "lower", 0},
	{"agg.quantiles_ns", "ns", "lower", 0},
	{"agg.distinct_ns", "ns", "lower", 0},
	{"agg.hh_bytes", "bytes", "lower", 0},
	{"agg.quantiles_bytes", "bytes", "lower", 0},
	{"sketch.ss_update_ns", "ns", "lower", 0},
	{"sketch.qdigest_update_ns", "ns", "lower", 0},
	{"sketch.eh_update_ns", "ns", "lower", 0},
	{"sample.priority_ns", "ns", "lower", 0},
	{"sample.wrs_ns", "ns", "lower", 0},
	{"window.swhh_ns", "ns", "lower", 0},
	{"decay.weight_ns", "ns", "lower", 0},
	{"metrics.counter_add_ns", "ns", "lower", 0},
	{"harness.gen_ns_per_tuple", "ns", "lower", 0},
	{"harness.late_share", "ratio", "lower", 0},
	{"harness.trace_overhead", "ratio", "higher", 0},
	{"harness.emit_samples", "count", "higher", 0},
	{"harness.emit_closures", "count", "higher", 0},
	{"emit_p99_ms", "ms", "lower", 0},
	{"failed_share", "ratio", "lower", 0},
}

var metricDefs = func() map[string]MetricDef {
	m := map[string]MetricDef{}
	for _, d := range append(append([]MetricDef(nil), EndToEnd...), PerLayer...) {
		m[d.Name] = d
	}
	return m
}()
