package main

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares (metrics_test.go holds them equal).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the figures a user of heterod sees, measured with tracing
// off against a child heterod over loopback.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"units_per_s", "1/s", "higher"},
	{"cpu_us_per_req", "us", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// perLayer are the traced run's figures. A figure for a layer the
// workload does not reach reads 0.
var perLayer = []metricDef{
	{"http.self_us", "us", "lower"},
	{"api.middleware_self_us", "us", "lower"},
	{"api.measure_self_us", "us", "lower"},
	{"api.batch_self_us", "us", "lower"},
	{"api.plan_self_us", "us", "lower"},
	{"api.evals_per_miss", "ratio", "lower"},
	{"api.shed", "count", "lower"},
	{"api.deadline_exceeded", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.raw_hit_ratio", "ratio", "higher"},
	{"cache.evicted_per_kreq", "1/kreq", "lower"},
	{"cache.resident_mb", "MiB", "lower"},
	{"batch.dedupe_ratio", "ratio", "higher"},
	{"batch.canon_hit_ratio", "ratio", "higher"},
	{"batch.raw_hit_ratio", "ratio", "higher"},
	{"batch.streamed_ratio", "ratio", "higher"},
	{"incr.us_per_kunit", "us", "lower"},
	{"core.measure_us", "us", "lower"},
	{"core.speedup_us", "us", "lower"},
	{"kernel.share", "ratio", "higher"},
	{"spill.hit_ratio", "ratio", "higher"},
	{"spill.get_us", "us", "lower"},
	{"spill.writes_per_req", "1/req", "lower"},
	{"spill.dropped_writes", "count", "lower"},
	{"spill.failed_writes", "count", "lower"},
	{"spill.corrupt", "count", "lower"},
	{"spill.compactions", "count", "lower"},
	{"spill.compacted_mb", "MiB", "lower"},
	{"spill.open_s", "s", "lower"},
	{"schedule.build_fifo_us", "us", "lower"},
	{"sim.faulty_us", "us", "lower"},
	{"sim.elastic_us", "us", "lower"},
	{"sim.replan_decisions", "1/req", "lower"},
	{"catalog.optimize_us", "us", "lower"},
	{"runtime.alloc_kb_per_req", "KiB", "lower"},
	{"runtime.gc_per_kreq", "1/kreq", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}
