package main

// metricDef names one metric of the benchmark. BENCHMARK.json at the
// repo root lists the same names, units, directions and bounds;
// TestBenchmarkJSONMatches keeps the two from drifting.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndDefs are what a user of the system sees. Every workload
// emits every one of them from an untraced run. The bounds are at
// least three times the widest quartile spread seen over ten seeds on
// the reference box (README.md, "Baseline"), capped at 25 %.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"put_p50_ms", "ms", "lower", 0.15},
	{"put_p90_ms", "ms", "lower", 0.25},
	{"get_p50_ms", "ms", "lower", 0.25},
	{"get_p90_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"provider_usd_per_user_gb", "USD/GB", "lower", 0.12},
	{"stored_bytes_per_user_byte", "ratio", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayerDefs are the numbers of single layers, from a traced run.
// A metric that does not apply to a workload reads 0 there.
var perLayerDefs = []metricDef{
	// client: generator + scalia/client
	{name: "client.put_p99_ms", unit: "ms", better: "lower"},
	{name: "client.get_p99_ms", unit: "ms", better: "lower"},
	{name: "client.put_n", unit: "count", better: "higher"},
	{name: "client.get_n", unit: "count", better: "higher"},
	{name: "client.get_ttfb_ms", unit: "ms", better: "lower"},
	{name: "client.self_ms", unit: "ms", better: "lower"},
	{name: "client.degraded_get_p50_ms", unit: "ms", better: "lower"},
	// transport: loopback HTTP
	{name: "transport.put_ms", unit: "ms", better: "lower"},
	{name: "transport.get_ms", unit: "ms", better: "lower"},
	// gateway: engine/httpapi.go
	{name: "gateway.put_handle_ms", unit: "ms", better: "lower"},
	{name: "gateway.get_handle_ms", unit: "ms", better: "lower"},
	{name: "gateway.put_body_read_ms", unit: "ms", better: "lower"},
	{name: "gateway.get_resp_write_ms", unit: "ms", better: "lower"},
	{name: "gateway.put_overhead_ms", unit: "ms", better: "lower"},
	{name: "gateway.get_overhead_ms", unit: "ms", better: "lower"},
	{name: "gateway.requests", unit: "count", better: "higher"},
	{name: "gateway.status_4xx", unit: "count", better: "lower"},
	{name: "gateway.status_5xx", unit: "count", better: "lower"},
	// engine: PutReader / GetReader
	{name: "engine.put_direct_ms", unit: "ms", better: "lower"},
	{name: "engine.get_direct_ms", unit: "ms", better: "lower"},
	{name: "engine.put_self_ms", unit: "ms", better: "lower"},
	{name: "engine.get_self_ms", unit: "ms", better: "lower"},
	{name: "engine.stripes_written_per_put", unit: "count", better: "lower"},
	{name: "engine.stripes_fetched_per_get", unit: "count", better: "lower"},
	{name: "engine.stripes_cached_per_get", unit: "count", better: "higher"},
	{name: "engine.prefetched_share", unit: "ratio", better: "higher"},
	{name: "engine.fetch_fallbacks", unit: "count", better: "lower"},
	{name: "engine.read_buffered_peak", unit: "count", better: "lower"},
	{name: "engine.write_buffered_peak", unit: "count", better: "lower"},
	{name: "engine.stage.plan_ms", unit: "ms", better: "lower"},
	{name: "engine.stage.encode_ms", unit: "ms", better: "lower"},
	{name: "engine.stage.fanout_ms", unit: "ms", better: "lower"},
	{name: "engine.stage.commit_ms", unit: "ms", better: "lower"},
	{name: "engine.stage.fetch_ms", unit: "ms", better: "lower"},
	{name: "engine.stage.decode_ms", unit: "ms", better: "lower"},
	// erasure: Cached(m,n) coder, single caller
	{name: "erasure.encode_mbps", unit: "MB/s", better: "higher"},
	{name: "erasure.decode_mbps", unit: "MB/s", better: "higher"},
	{name: "erasure.reconstruct_mbps", unit: "MB/s", better: "higher"},
	{name: "erasure.encode_allocs_per_op", unit: "count", better: "lower"},
	{name: "erasure.decode_alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "erasure.m", unit: "count", better: "lower"},
	{name: "erasure.n", unit: "count", better: "lower"},
	// cloud: the backend wrapper, in situ
	{name: "cloud.put_ops_per_user_put", unit: "count", better: "lower"},
	{name: "cloud.get_ops_per_user_get", unit: "count", better: "lower"},
	{name: "cloud.delete_ops_per_user_put", unit: "count", better: "lower"},
	{name: "cloud.put_ms", unit: "ms", better: "lower"},
	{name: "cloud.get_ms", unit: "ms", better: "lower"},
	{name: "cloud.delete_ms", unit: "ms", better: "lower"},
	{name: "cloud.store_ms", unit: "ms", better: "lower"},
	{name: "cloud.busy_union_put_ms", unit: "ms", better: "lower"},
	{name: "cloud.busy_union_get_ms", unit: "ms", better: "lower"},
	{name: "cloud.parallelism_put", unit: "ratio", better: "higher"},
	{name: "cloud.parallelism_get", unit: "ratio", better: "higher"},
	{name: "cloud.max_inflight_put", unit: "count", better: "higher"},
	{name: "cloud.max_inflight_get", unit: "count", better: "higher"},
	{name: "cloud.bytes_in_per_user_byte", unit: "ratio", better: "lower"},
	{name: "cloud.bytes_out_per_user_byte", unit: "ratio", better: "lower"},
	{name: "cloud.errors", unit: "count", better: "lower"},
	// cache: stripe LRU
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.evictions_per_1k_gets", unit: "count", better: "lower"},
	{name: "cache.used_mb", unit: "MB", better: "lower"},
	{name: "cache.get_hit_us", unit: "us", better: "lower"},
	{name: "cache.put_evict_us", unit: "us", better: "lower"},
	// core: placement planner
	{name: "core.plan_us", unit: "us", better: "lower"},
	{name: "core.plan_cold_us", unit: "us", better: "lower"},
	{name: "core.planner_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.evaluated_per_optimize", unit: "count", better: "lower"},
	// metadata: MVCC cluster
	{name: "metadata.put_us", unit: "us", better: "lower"},
	{name: "metadata.get_us", unit: "us", better: "lower"},
	{name: "metadata.flush_us", unit: "us", better: "lower"},
	{name: "metadata.rows", unit: "count", better: "lower"},
	// stats / trend
	{name: "stats.apply_us", unit: "us", better: "lower"},
	{name: "stats.summary_us", unit: "us", better: "lower"},
	{name: "stats.provindex_objects_on_us", unit: "us", better: "lower"},
	{name: "trend.observe_ns", unit: "ns", better: "lower"},
	// repair / maint / optimizer (small-maint)
	{name: "repair.objs_per_s", unit: "1/s", better: "higher"},
	{name: "repair.pass_ms", unit: "ms", better: "lower"},
	{name: "repair.affected_per_pass", unit: "count", better: "lower"},
	{name: "repair.swapped_share", unit: "ratio", better: "higher"},
	{name: "repair.skipped_per_pass", unit: "count", better: "lower"},
	{name: "repair.bytes_written_per_repaired_byte", unit: "ratio", better: "lower"},
	{name: "repair.chunks_per_repaired", unit: "count", better: "lower"},
	{name: "maint.reopt_objs_per_s", unit: "1/s", better: "higher"},
	{name: "maint.drain_ms", unit: "ms", better: "lower"},
	{name: "maint.enqueued", unit: "count", better: "lower"},
	{name: "maint.dropped", unit: "count", better: "lower"},
	{name: "optimizer.objs_per_s", unit: "1/s", better: "higher"},
	{name: "optimizer.pass_ms", unit: "ms", better: "lower"},
	{name: "optimizer.scanned_per_pass", unit: "count", better: "lower"},
	{name: "optimizer.recomputed_per_pass", unit: "count", better: "lower"},
	{name: "optimizer.migrated_per_pass", unit: "count", better: "lower"},
	// process / machine / trace
	{name: "process.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "process.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "process.allocs_per_op", unit: "count", better: "lower"},
	{name: "process.gc_cpu_pct", unit: "%", better: "lower"},
	{name: "process.goroutines_peak", unit: "count", better: "lower"},
	{name: "machine.nproc", unit: "count", better: "higher"},
	{name: "machine.md5_mbps", unit: "MB/s", better: "higher"},
	{name: "machine.memcpy_mbps", unit: "MB/s", better: "higher"},
	{name: "machine.timer_overshoot_us", unit: "us", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.closure_put_pct", unit: "%", better: "higher"},
	{name: "trace.closure_get_pct", unit: "%", better: "higher"},
	{name: "trace.spans", unit: "count", better: "lower"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
