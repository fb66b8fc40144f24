package main

// metricDef names one metric of BENCHMARK.json: the single table the
// run output, the final JSON line and the BENCHMARK.json consistency
// test are all driven by.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// e2eDefs are the end-to-end metrics every workload reports: what a
// caller of the system sees, measured with tracing off, each with a
// regression bound in BENCHMARK.json.
var e2eDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"point_ops_per_s", "1/s", "higher"},
	{"point_p50_us", "us", "lower"},
	{"range_rows_per_s", "1/s", "higher"},
	{"range_p50_us", "us", "lower"},
	{"server_rss_mb", "MB", "lower"},
}

// layerDefs are the per-layer diagnostics of a -trace run. The first
// six are client-observed numbers that cannot be bounded metrics: the
// two tails, whose run-to-run spread on a small shared box exceeds the
// largest bound the contract allows, and four that only some workloads
// have (or, for error_ratio, that is 0 when all is well); see
// README.md. The rest are <module>.<metric>: source L (the in-process
// ladder) or S (scraped or sampled around the workload's run).
var layerDefs = []metricDef{
	{"point_p99_us", "us", "lower"},
	{"range_p99_us", "us", "lower"},
	{"select_p50_ms", "ms", "lower"},
	{"write_p50_us", "us", "lower"},
	{"write_p99_us", "us", "lower"},
	{"error_ratio", "ratio", "lower"},

	{"access.lex_access_ns", "ns", "lower"},
	{"access.lex_access_allocs", "count", "lower"},
	{"access.lex_rank_ns", "ns", "lower"},
	{"access.sum_access_ns", "ns", "lower"},
	{"access.lex_range_ns_per_row", "ns", "lower"},
	{"access.overlay_access_ns", "ns", "lower"},
	{"access.overlay_tax_ns", "ns", "lower"},
	{"access.build_lex_ms", "ms", "lower"},
	{"access.build_lex_allocs", "count", "lower"},
	{"database.read_tsv_ms", "ms", "lower"},
	{"selection.lex_select_ms", "ms", "lower"},
	{"engine.access_ns", "ns", "lower"},
	{"engine.access_allocs", "count", "lower"},
	{"engine.tax_ns", "ns", "lower"},
	{"engine.range_ns_per_row", "ns", "lower"},
	{"engine.prepare_ms", "ms", "lower"},
	{"engine.apply_batch_us", "us", "lower"},
	{"engine.catchup_us", "us", "lower"},
	{"delta.wal_append_us", "us", "lower"},
	{"engine.delta_epochs_per_write", "ratio", "lower"},
	{"engine.bg_rebuilds", "count", "lower"},
	{"engine.sync_rebuilds", "count", "lower"},
	{"engine.overlay_edits_max", "count", "lower"},
	{"delta.wal_batches", "count", "higher"},
	{"engine.read_stall_s", "s", "lower"},
	{"shard.p1_access_ns", "ns", "lower"},
	{"shard.p4_access_ns", "ns", "lower"},
	{"shard.p4_tax_ns", "ns", "lower"},
	{"shard.p4_range_ns_per_row", "ns", "lower"},
	{"shard.p4_build_ms", "ms", "lower"},
	{"serve.handler_access_us", "us", "lower"},
	{"serve.handler_access_allocs", "count", "lower"},
	{"serve.handler_range_us", "us", "lower"},
	{"serve.tax_us", "us", "lower"},
	{"serve.handler_hot_access_us", "us", "lower"},
	{"serve.coalesce_hit_ratio", "ratio", "higher"},
	{"serve.server_p50_us", "us", "lower"},
	{"serve.server_p99_us", "us", "lower"},
	{"serve.shed_ratio", "ratio", "lower"},
	{"serve.cpu_us_per_op", "us", "lower"},
	{"client.loopback_access_us", "us", "lower"},
	{"client.loopback_range_us", "us", "lower"},
	{"client.tax_us", "us", "lower"},
	{"client.wire_tax_us", "us", "lower"},
	{"rpc.rank_call_us", "us", "lower"},
	{"rpc.range_call_us", "us", "lower"},
	{"rpc.rank_calls_per_access", "count", "lower"},
	{"rpc.client_p50_us", "us", "lower"},
	{"rpc.server_p50_us", "us", "lower"},
	{"rpc.errors", "count", "lower"},
	{"cluster.coord_access_us", "us", "lower"},
	{"cluster.coord_range_us", "us", "lower"},
	{"cluster.tax_us", "us", "lower"},
	{"cluster.rank_rounds_per_access", "count", "lower"},
	{"cluster.coord_cpu_us_per_op", "us", "lower"},
	{"cluster.node_cpu_us_per_op", "us", "lower"},
	{"loadgen.cpu_share", "ratio", "lower"},
	{"loadgen.late_p99_us", "us", "lower"},
	{"loadgen.host_pace", "ratio", "higher"},
	{"harness.trace_overhead_ratio", "ratio", "lower"},
}

func layerUnit(name string) string {
	for _, d := range layerDefs {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: layer metric " + name + " is not in layerDefs")
}
