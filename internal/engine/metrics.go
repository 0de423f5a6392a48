package engine

import (
	"runtime"
	"time"

	"scalia/internal/obs"
)

// brokerMetrics is the broker's observability surface: the obs.Registry
// behind GET /metrics, the owned hot-path instruments (HTTP latency,
// stage timings, per-provider op latency, read-path counters), and
// func-backed collectors that read the counters other subsystems
// already keep — the planner cache, the stripe caches, the provider
// registry and meters, the optimizer and repair totals. /v1/stats and
// /metrics therefore report the very same bookkeeping.
type brokerMetrics struct {
	reg   *obs.Registry
	start time.Time

	// HTTP serving, observed by the gateway middleware.
	httpDur   *obs.HistogramVec // {method, route}
	httpReqs  *obs.CounterVec   // {method, route, code}
	httpBytes *obs.CounterVec   // {method, route}

	// Hot-stage timings: plan, hash, encode, fanout, commit, fetch,
	// verify, decode, repair, optimize.
	stageDur *obs.HistogramVec // {stage}

	// Per-provider backend calls, observed at the engine call sites
	// (wrapping cloud.Backend itself would break the failure-injection
	// type assertions tests rely on).
	providerDur  *obs.HistogramVec // {provider, op}
	providerErrs *obs.CounterVec   // {provider, op}
	// chunkSumFailures counts chunks a provider served whose bytes failed
	// their stored sum. Rot is not an outage: the call succeeded, so it
	// stays out of providerErrs, the series provider health is read from.
	chunkSumFailures *obs.CounterVec // {provider}

	// Read-path counters. These are the registry-owned source of truth;
	// Broker.ReadStats (and hence /v1/stats) reads them back out.
	readCached        *obs.Counter
	readFetched       *obs.Counter
	readReconstructed *obs.Counter
	readPrefetched    *obs.Counter
	readFallbacks     *obs.Counter

	// Write-path counters, Broker.WriteStats's source of truth.
	writeStripes *obs.Counter

	// repairIndexed counts candidate objects enumerated through the
	// provider→objects index by Repair passes — compare against
	// scalia_objects to see the O(affected) win over a full scan.
	repairIndexed *obs.Counter
}

// Metric family names, shared by the encoder output, the health
// endpoint and the bench harness.
const (
	metricHTTPDuration = "scalia_http_request_duration_seconds"
	metricProviderOp   = "scalia_provider_op_duration_seconds"
	metricStage        = "scalia_stage_duration_seconds"
)

// newBrokerMetrics builds the broker's registry. It must run after the
// broker's registry/caches/planner/engines are in place, because the
// func collectors capture b and read them at scrape time.
func newBrokerMetrics(b *Broker) *brokerMetrics {
	reg := obs.NewRegistry()
	m := &brokerMetrics{
		reg:   reg,
		start: time.Now(),

		httpDur: reg.HistogramVec(metricHTTPDuration,
			"Gateway request latency by method and route.", "method", "route"),
		httpReqs: reg.CounterVec("scalia_http_requests_total",
			"Gateway requests by method, route and status code.",
			"method", "route", "code"),
		httpBytes: reg.CounterVec("scalia_http_response_bytes_total",
			"Response body bytes written by method and route.",
			"method", "route"),

		stageDur: reg.HistogramVec(metricStage,
			"Latency of serving-path stages (plan, hash, encode, fanout, commit, fetch, verify, decode, repair, optimize, maint).", "stage"),

		providerDur: reg.HistogramVec(metricProviderOp,
			"Backend call latency by provider and operation (get, put, delete).", "provider", "op"),
		providerErrs: reg.CounterVec("scalia_provider_op_errors_total",
			"Failed backend calls by provider and operation.",
			"provider", "op"),
		chunkSumFailures: reg.CounterVec("scalia_chunk_checksum_failures_total",
			"Chunks read from a provider whose bytes failed their stored CRC-32C; the read took a spare.",
			"provider"),

		readCached: reg.Counter("scalia_read_stripes_cached_total",
			"Stripes served from the stripe cache."),
		readFetched: reg.Counter("scalia_read_stripes_fetched_total",
			"Stripes fetched from providers via chunk fan-out."),
		readReconstructed: reg.Counter("scalia_read_stripes_reconstructed_total",
			"Stripes fetched short of a data chunk and rebuilt in GF(2^8); a healthy read adds none."),
		readPrefetched: reg.Counter("scalia_read_stripes_prefetched_total",
			"Stripes delivered by the background prefetcher."),
		readFallbacks: reg.Counter("scalia_read_fallbacks_total",
			"Chunk fetches that failed and fell back to a spare provider."),

		writeStripes: reg.Counter("scalia_write_stripes_total",
			"Stripes fanned out to providers by completed writes."),

		repairIndexed: reg.Counter("scalia_repair_objects_indexed_total",
			"Candidate objects repair passes enumerated through the provider index."),
	}

	// Planner cache (source: core.Planner's own counters).
	reg.CounterFunc("scalia_planner_cache_hits_total",
		"Placement-planner cache hits.",
		func() float64 { return float64(b.planner.Stats().Hits) })
	reg.CounterFunc("scalia_planner_cache_misses_total",
		"Placement-planner cache misses.",
		func() float64 { return float64(b.planner.Stats().Misses) })

	// Stripe caches, one series per datacenter (source: cache.Cluster).
	registerCacheFamily(reg, b, "scalia_cache_hits_total", obs.KindCounter,
		"Stripe-cache hits by datacenter.", func(hits, misses, ev, entries, used int64) int64 { return hits })
	registerCacheFamily(reg, b, "scalia_cache_misses_total", obs.KindCounter,
		"Stripe-cache misses by datacenter.", func(hits, misses, ev, entries, used int64) int64 { return misses })
	registerCacheFamily(reg, b, "scalia_cache_evictions_total", obs.KindCounter,
		"Stripe-cache evictions by datacenter.", func(hits, misses, ev, entries, used int64) int64 { return ev })
	registerCacheFamily(reg, b, "scalia_cache_entries", obs.KindGauge,
		"Cached stripes by datacenter.", func(hits, misses, ev, entries, used int64) int64 { return entries })
	registerCacheFamily(reg, b, "scalia_cache_used_bytes", obs.KindGauge,
		"Cached byte volume by datacenter.", func(hits, misses, ev, entries, used int64) int64 { return used })

	// Provider health and footprint (source: cloud.Registry).
	reg.CollectFunc("scalia_provider_up",
		"Provider reachability (1 = available).",
		obs.KindGauge, []string{"provider"}, func() []obs.Sample {
			var out []obs.Sample
			for _, s := range b.registry.Snapshot() {
				v := 0.0
				if s.Available() {
					v = 1
				}
				out = append(out, obs.Sample{LabelValues: []string{s.Spec().Name}, Value: v})
			}
			return out
		})
	reg.CollectFunc("scalia_provider_used_bytes",
		"Bytes stored per provider.",
		obs.KindGauge, []string{"provider"}, func() []obs.Sample {
			var out []obs.Sample
			for _, s := range b.registry.Snapshot() {
				out = append(out, obs.Sample{LabelValues: []string{s.Spec().Name}, Value: float64(s.UsedBytes())})
			}
			return out
		})

	// Billable usage and cost (source: per-backend cloud.Meters).
	reg.CounterFunc("scalia_usage_ops_total",
		"Billable provider operations.",
		func() float64 { return float64(b.registry.TotalUsage().Ops) })
	reg.CounterFunc("scalia_usage_bandwidth_in_gb",
		"Cumulative inbound bandwidth, GB.",
		func() float64 { return b.registry.TotalUsage().BandwidthInGB })
	reg.CounterFunc("scalia_usage_bandwidth_out_gb",
		"Cumulative outbound bandwidth, GB.",
		func() float64 { return b.registry.TotalUsage().BandwidthOutGB })
	reg.CounterFunc("scalia_usage_storage_gb_hours",
		"Accrued storage, GB-hours.",
		func() float64 { return b.registry.TotalUsage().StorageGBHours })
	reg.CounterFunc("scalia_cost_usd_total",
		"Accrued provider cost, USD.",
		func() float64 { return b.registry.TotalCost() })

	// Optimizer lifetime totals (source: Broker.totals).
	reg.CounterFunc("scalia_optimize_rounds_total",
		"Optimization rounds run.",
		func() float64 { return float64(b.OptimizeTotals().Rounds) })
	reg.CounterFunc("scalia_optimize_migrated_total",
		"Objects migrated by the optimizer.",
		func() float64 { return float64(b.OptimizeTotals().Migrated) })
	reg.CounterFunc("scalia_optimize_migration_usd_total",
		"Migration cost paid by the optimizer, USD.",
		func() float64 { return b.OptimizeTotals().MigrationUSD })

	// Repair lifetime totals (source: Broker.repairTotals).
	reg.CounterFunc("scalia_repair_passes_total",
		"Repair passes run.",
		func() float64 { return float64(b.RepairTotals().Passes) })
	reg.CounterFunc("scalia_repair_repaired_total",
		"Objects repaired.",
		func() float64 { return float64(b.RepairTotals().Repaired) })
	reg.CounterFunc("scalia_repair_swapped_total",
		"Objects repaired via chunk swap.",
		func() float64 { return float64(b.RepairTotals().Swapped) })
	reg.CounterFunc("scalia_repair_restriped_total",
		"Objects repaired via full re-placement.",
		func() float64 { return float64(b.RepairTotals().Restriped) })
	reg.CounterFunc("scalia_repair_chunks_written_total",
		"Chunks written by repair.",
		func() float64 { return float64(b.RepairTotals().ChunksWritten) })
	reg.CounterFunc("scalia_repair_bytes_written_total",
		"Bytes written by repair.",
		func() float64 { return float64(b.RepairTotals().BytesWritten) })

	// Event-driven maintenance queue (source: maintQueue counters).
	reg.GaugeFunc("scalia_maint_queue_depth",
		"Invalidated objects waiting in the reoptimization queue.",
		func() float64 { return float64(b.MaintStats().QueueDepth) })
	reg.GaugeFunc("scalia_maint_workers",
		"Configured background maintenance drain (Config.ReoptWorkers; 0 = manual drain).",
		func() float64 { return float64(b.MaintStats().Workers) })
	reg.CounterFunc("scalia_maint_enqueued_total",
		"Objects whose cached placement a market event invalidated.",
		func() float64 { return float64(b.MaintStats().Enqueued) })
	reg.CounterFunc("scalia_maint_drained_total",
		"Invalidated objects re-planned by the maintenance queue.",
		func() float64 { return float64(b.MaintStats().Drained) })
	reg.CounterFunc("scalia_maint_dropped_total",
		"Invalidations discarded because the queue was full.",
		func() float64 { return float64(b.MaintStats().Dropped) })
	reg.CounterFunc("scalia_maint_migrated_total",
		"Queue-drained objects that actually moved.",
		func() float64 { return float64(b.MaintStats().Migrated) })
	reg.CounterFunc("scalia_maint_events_total",
		"Market events received by the maintenance subscriber.",
		func() float64 { return float64(b.MaintStats().Events) })

	// Deployment shape and transient state.
	reg.GaugeFunc("scalia_pending_deletes",
		"Chunk deletions postponed behind unreachable providers.",
		func() float64 { return float64(b.PendingDeletes()) })
	reg.GaugeFunc("scalia_retired_versions",
		"Superseded versions whose chunks the reaper has not deleted yet.",
		func() float64 { return float64(b.Retired().Versions) })
	reg.GaugeFunc("scalia_retired_bytes",
		"Stored bytes of the retired versions still at their providers (reclaim lag).",
		func() float64 { return float64(b.Retired().Bytes) })
	reg.GaugeFunc("scalia_pinned_objects",
		"Objects open read streams pin: their retired chunks wait for the streams.",
		func() float64 { return float64(b.Retired().Pinned) })
	reg.GaugeFunc("scalia_engines",
		"Stateless engines in the deployment.",
		func() float64 { return float64(len(b.engines)) })
	reg.GaugeFunc("scalia_providers",
		"Providers in the storage registry.",
		func() float64 { return float64(len(b.registry.Snapshot())) })
	reg.GaugeFunc("scalia_read_buffered_stripes",
		"Stripe buffers currently held by reads under the shared budget.",
		func() float64 { return float64(b.readBuf.inUse.Load()) })
	reg.GaugeFunc("scalia_read_buffered_stripes_peak",
		"High-water mark of stripe buffers held by reads under the shared budget.",
		func() float64 { return float64(b.readBuf.peak.Load()) })
	reg.GaugeFunc("scalia_write_pipeline_depth",
		"Configured streaming-PUT encode-ahead depth (0 = one stripe at a time).",
		func() float64 { return float64(b.cfg.WritePipelineDepth) })
	reg.GaugeFunc("scalia_write_buffered_stripes",
		"Stripe buffers currently held by writes under the shared budget.",
		func() float64 { return float64(b.writeBuf.inUse.Load()) })
	reg.GaugeFunc("scalia_write_buffered_stripes_peak",
		"High-water mark of stripe buffers held by writes under the shared budget.",
		func() float64 { return float64(b.writeBuf.peak.Load()) })
	reg.GaugeFunc("scalia_multipart_uploads_active",
		"Open multipart upload sessions.",
		func() float64 { return float64(b.activeUploads()) })

	// Process vitals.
	reg.GaugeFunc("scalia_uptime_seconds",
		"Seconds since the broker was built.",
		func() float64 { return time.Since(m.start).Seconds() })
	reg.GaugeFunc("go_goroutines",
		"Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("go_heap_alloc_bytes",
		"Heap bytes allocated and in use.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})

	return m
}

// registerCacheFamily registers one per-datacenter series family backed
// by cache.Cluster.StatsByDC.
func registerCacheFamily(reg *obs.Registry, b *Broker, name string, kind obs.Kind, help string,
	pick func(hits, misses, evictions, entries, usedBytes int64) int64) {
	reg.CollectFunc(name, help, kind, []string{"dc"}, func() []obs.Sample {
		by := b.caches.StatsByDC()
		out := make([]obs.Sample, 0, len(by))
		for dc, s := range by {
			out = append(out, obs.Sample{
				LabelValues: []string{dc},
				Value:       float64(pick(s.Hits, s.Misses, s.Evictions, s.Entries, s.UsedBytes)),
			})
		}
		return out
	})
}

// Metrics exposes the broker's metric registry (the gateway's /metrics
// endpoint, the bench harness and embedded deployments scrape it).
func (b *Broker) Metrics() *obs.Registry { return b.metrics.reg }

// observeProviderOp records one backend call's latency (and failure)
// under the per-provider series.
func (b *Broker) observeProviderOp(provider, op string, start time.Time, err error) {
	b.metrics.providerDur.With(provider, op).ObserveSince(start)
	if err != nil {
		b.metrics.providerErrs.With(provider, op).Inc()
	}
}

// observeStage records one serving-path stage that ran from start until
// now.
func (b *Broker) observeStage(tr *obs.Trace, stage string, start time.Time) {
	b.observeStageFor(tr, stage, time.Since(start))
}

// observeStageFor records one occurrence of a serving-path stage that
// took d: into the broker-wide stage histogram and, when the request
// carries a trace, into its per-request span aggregation.
func (b *Broker) observeStageFor(tr *obs.Trace, stage string, d time.Duration) {
	b.metrics.stageDur.With(stage).Observe(d.Seconds())
	tr.AddSpan(stage, d)
}
