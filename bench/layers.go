package main

import (
	"fmt"
	"sort"
	"time"
)

// reqBreakdown is one traced request split by layer, in ms. The five
// exclusive parts — clientOut, transport, gwWait, busyUnion, self — add
// up to the op's latency exactly.
type reqBreakdown struct {
	op        float64 // client: whole op, as the end-to-end percentiles see it
	clientOut float64 // client: op time outside the round trip (stamp, CRC, client library)
	transport float64 // round trip outside the gateway handler
	handle    float64 // gateway: handler entry -> return
	bodyRead  float64 // blocked in Request.Body.Read
	respWrite float64 // blocked in ResponseWriter.Write
	busyUnion float64 // wall time with >= 1 provider op in flight
	provSum   float64 // sum of provider op durations
	// gwWait is body/response wait not already covered by a provider op.
	gwWait      float64
	self        float64 // handle time nothing below the engine covers
	maxInflight int
	provOps     int              // provider ops of the request
	ops         map[string]int   // ... by kind
	provBytes   map[string]int64 // provider payload bytes by kind
	// misplaced counts spans that lie outside their parent: a provider
	// op outside the handler, the handler outside the round trip.
	misplaced int
}

const nsPerMs = 1e6

// nestSlackNs tolerates clock reads taken a moment apart on the two
// sides of a span boundary.
const nestSlackNs = 200_000

func within(child, parent interval) bool {
	return child.start >= parent.start-nestSlackNs && child.end <= parent.end+nestSlackNs
}

func breakdown(rt *reqTrace) reqBreakdown {
	roundTrip := interval{rt.rtStart, rt.rtEnd}
	b := reqBreakdown{
		op:        float64(rt.opEnd-rt.opStart) / nsPerMs,
		clientOut: float64((rt.opEnd-rt.opStart)-roundTrip.len()) / nsPerMs,
		transport: float64(roundTrip.len()-rt.handle.len()) / nsPerMs,
		handle:    float64(rt.handle.len()) / nsPerMs,
		bodyRead:  float64(sumLen(rt.bodyRead)) / nsPerMs,
		respWrite: float64(sumLen(rt.respWrite)) / nsPerMs,
		ops:       map[string]int{},
		provBytes: map[string]int64{},
	}
	if !within(rt.handle, roundTrip) {
		b.misplaced++
	}
	prov := make([]interval, 0, len(rt.provider))
	for _, sp := range rt.provider {
		iv := interval{sp.start, sp.end}
		if !within(iv, rt.handle) {
			b.misplaced++
		}
		prov = append(prov, iv)
		b.provOps++
		b.provSum += float64(iv.len()) / nsPerMs
		b.ops[sp.class()]++
		b.provBytes[sp.class()] += sp.bytes
	}
	b.maxInflight = maxOverlap(prov)
	all := append(append(append([]interval(nil), prov...), rt.bodyRead...), rt.respWrite...)
	b.self = float64(selfTime(rt.handle, all)) / nsPerMs
	b.busyUnion = float64(rt.handle.len()-selfTime(rt.handle, prov)) / nsPerMs
	b.gwWait = b.handle - b.self - b.busyUnion
	return b
}

// medianBand returns the requests between the 40th and the 60th
// percentile of op latency: the requests the client's p50 is made of.
// Layer times are reported as means over this band, so they add up to
// the p50 instead of each being the median of a different request.
func medianBand(bs []reqBreakdown) []reqBreakdown {
	sort.Slice(bs, func(i, j int) bool { return bs[i].op < bs[j].op })
	lo, hi := len(bs)*2/5, (len(bs)*3+4)/5
	if hi <= lo {
		hi = lo + 1
	}
	return bs[lo:hi]
}

// meanOf is the mean of f over bs (0 when empty).
func meanOf(bs []reqBreakdown, f func(*reqBreakdown) float64) float64 {
	if len(bs) == 0 {
		return 0
	}
	var sum float64
	for i := range bs {
		sum += f(&bs[i])
	}
	return sum / float64(len(bs))
}

// layerMetrics fills every per-layer metric. A metric that does not
// apply to the workload (repair.* outside small-maint, cache counters
// with the cache off) reads 0.
func (r *run) layerMetrics() {
	m := r.res.Metrics
	for _, def := range perLayerDefs {
		m[def.name] = 0
	}
	r.clientLayer(m)
	nPut, nGet := r.requestLayers(m)
	r.counterLayers(m, nPut, nGet)
	r.cloudMeans(m)
	r.maintLayers(m)
	r.processLayer(m, nPut+nGet)
	r.probeLayers(m)
}

func (r *run) clientLayer(m map[string]float64) {
	put, get := r.okSamples(isKind(opPut)), r.okSamples(isKind(opGet))
	m["client.put_p99_ms"] = zeroNaN(percentile(put, 0.99))
	m["client.get_p99_ms"] = zeroNaN(percentile(get, 0.99))
	m["client.put_n"] = float64(len(put))
	m["client.get_n"] = float64(len(get))
	m["client.degraded_get_p50_ms"] = zeroNaN(percentile(r.okSamples(func(s *sample) bool { return s.degraded }), 0.5))
	var ttfb []float64
	for _, w := range r.d.workers {
		for i := range w.samples {
			if s := &w.samples[i]; s.ok && s.kind == opGet {
				ttfb = append(ttfb, s.ttfbMs)
			}
		}
	}
	m["client.get_ttfb_ms"] = zeroNaN(median(ttfb))
	r.noteTails(put, get)
	m["trace.overhead_pct"] = 100 * (r.untracedPS - r.opsPerSec()) / r.untracedPS
}

// noteTails reports, for humans, the highest percentile each sample
// supports with ten samples beyond it, and the sample count.
func (r *run) noteTails(put, get []float64) {
	for _, t := range []struct {
		kind opKind
		ms   []float64
	}{{opPut, put}, {opGet, get}} {
		q := highestSupported(len(t.ms))
		r.res.Notes = append(r.res.Notes, fmt.Sprintf("%s tail: p%g = %.3f ms (n=%d)", t.kind, q*100, percentile(t.ms, q), len(t.ms)))
	}
}

// requestLayers derives the transport, gateway, engine-self and
// per-request cloud metrics from the traced requests, and checks the
// trace itself: spans must nest in their parents, and the layers of
// the median requests must add up to the p50 the client measured.
func (r *run) requestLayers(m map[string]float64) (nPut, nGet int) {
	by := map[opKind][]reqBreakdown{}
	r.tr.mu.Lock()
	for _, rt := range r.tr.order {
		if rt.ok && rt.handle.end != 0 && rt.rtEnd != 0 {
			by[rt.kind] = append(by[rt.kind], breakdown(rt))
		}
	}
	r.tr.mu.Unlock()
	m["gateway.requests"] = float64(r.tr.requests.Load())
	m["gateway.status_4xx"] = float64(r.tr.status4xx.Load())
	m["gateway.status_5xx"] = float64(r.tr.status5xx.Load())

	var clientOut float64
	var misplaced, spans int
	for _, k := range []opKind{opPut, opGet} {
		all, n := by[k], k.String()
		if len(all) == 0 {
			continue
		}

		band := medianBand(all)
		part := func(f func(*reqBreakdown) float64) float64 { return meanOf(band, f) }
		self := part(func(b *reqBreakdown) float64 { return b.clientOut })
		transport := part(func(b *reqBreakdown) float64 { return b.transport })
		handle := part(func(b *reqBreakdown) float64 { return b.handle })
		busy := part(func(b *reqBreakdown) float64 { return b.busyUnion })
		engineSelf := part(func(b *reqBreakdown) float64 { return b.self })
		gwWait := part(func(b *reqBreakdown) float64 { return b.gwWait })
		m["transport."+n+"_ms"] = transport
		m["gateway."+n+"_handle_ms"] = handle
		m["cloud.busy_union_"+n+"_ms"] = busy
		m["engine."+n+"_self_ms"] = engineSelf
		m["cloud.max_inflight_"+n] = part(func(b *reqBreakdown) float64 { return float64(b.maxInflight) })

		// Ratios over every request of the kind, not only the band.
		ops := map[string]int{}
		bytes := map[string]int64{}
		for i := range all {
			clientOut += all[i].clientOut
			misplaced += all[i].misplaced
			spans += 1 + all[i].provOps
			for op, c := range all[i].ops {
				ops[op] += c
				bytes[op] += all[i].provBytes[op]
			}
		}
		count, userBytes := float64(len(all)), float64(len(all))*float64(r.w.objectBytes)
		if busySum := meanOf(all, func(b *reqBreakdown) float64 { return b.busyUnion }); busySum > 0 {
			m["cloud.parallelism_"+n] = meanOf(all, func(b *reqBreakdown) float64 { return b.provSum }) / busySum
		}
		var wait float64
		if k == opPut {
			wait = part(func(b *reqBreakdown) float64 { return b.bodyRead })
			m["gateway.put_body_read_ms"] = wait
			m["cloud.put_ops_per_user_put"] = float64(ops["put"]) / count
			m["cloud.delete_ops_per_user_put"] = float64(ops["delete"]) / count
			m["cloud.bytes_in_per_user_byte"] = float64(bytes["put"]) / userBytes
		} else {
			wait = part(func(b *reqBreakdown) float64 { return b.respWrite })
			m["gateway.get_resp_write_ms"] = wait
			m["cloud.get_ops_per_user_get"] = float64(ops["get"]) / count
			m["cloud.bytes_out_per_user_byte"] = float64(bytes["get"]) / userBytes
		}
		if d := r.direct[k]; len(d) > 0 {
			direct := median(d)
			m["engine."+n+"_direct_ms"] = direct
			m["gateway."+n+"_overhead_ms"] = handle - wait - direct
		}

		clientP50 := percentile(r.okSamples(isKind(k)), 0.5)
		closure := 100 * (self + transport + gwWait + busy + engineSelf) / clientP50
		m["trace.closure_"+n+"_pct"] = closure
		r.res.Notes = append(r.res.Notes, fmt.Sprintf(
			"%s p50 %.3f ms = client %.3f + transport %.3f + gateway wait %.3f + cloud busy %.3f + engine self %.3f (%.1f%%, median band of %d of %d requests)",
			n, clientP50, self, transport, gwWait, busy, engineSelf, closure, len(band), len(all)))
		if closure < 90 || closure > 110 {
			r.fail(fmt.Sprintf("%s layers add up to %.1f%% of the client p50, outside 90-110%%", n, closure))
		}
	}
	if total := float64(len(by[opPut]) + len(by[opGet])); total > 0 {
		m["client.self_ms"] = clientOut / total
	}
	// A span outside its parent was attached to the wrong request.
	if misplaced*50 > spans {
		r.fail(fmt.Sprintf("%d of %d spans lie outside their parent span", misplaced, spans))
	}
	return len(by[opPut]), len(by[opGet])
}

// counterLayers turns the window's counter deltas into per-op ratios.
func (r *run) counterLayers(m map[string]float64, nPut, nGet int) {
	a, b := r.after, r.before
	if nPut > 0 {
		m["engine.stripes_written_per_put"] = float64(a.write.StripesWritten-b.write.StripesWritten) / float64(nPut)
	}
	fetched := float64(a.read.StripesFetched - b.read.StripesFetched)
	cached := float64(a.read.StripesFromCache - b.read.StripesFromCache)
	if nGet > 0 {
		m["engine.stripes_fetched_per_get"] = fetched / float64(nGet)
		m["engine.stripes_cached_per_get"] = cached / float64(nGet)
		m["cache.evictions_per_1k_gets"] = 1000 * float64(a.cache.Evictions-b.cache.Evictions) / float64(nGet)
	}
	if fetched+cached > 0 {
		m["engine.prefetched_share"] = float64(a.read.PrefetchedStripes-b.read.PrefetchedStripes) / (fetched + cached)
	}
	m["engine.fetch_fallbacks"] = float64(a.read.FetchFallbacks - b.read.FetchFallbacks)
	m["engine.read_buffered_peak"] = float64(a.read.BufferedStripesPeak)
	m["engine.write_buffered_peak"] = float64(a.write.BufferedStripesPeak)
	for _, stage := range []string{"plan", "encode", "fanout", "commit", "fetch", "decode"} {
		if n := a.stageCnt[stage] - b.stageCnt[stage]; n > 0 {
			m["engine.stage."+stage+"_ms"] = 1000 * (a.stageSum[stage] - b.stageSum[stage]) / float64(n)
		}
	}
	hits, misses := a.cache.Hits-b.cache.Hits, a.cache.Misses-b.cache.Misses
	if hits+misses > 0 {
		m["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["cache.used_mb"] = float64(a.cache.UsedBytes) / 1e6
	planHits, planMisses := a.planner.Hits-b.planner.Hits, a.planner.Misses-b.planner.Misses
	if planHits+planMisses > 0 {
		m["core.planner_hit_ratio"] = float64(planHits) / float64(planHits+planMisses)
	}
	m["maint.enqueued"] = float64(a.maint.Enqueued - b.maint.Enqueued)
	m["maint.dropped"] = float64(a.maint.Dropped - b.maint.Dropped)
}

// cloudMeans averages every provider op of the traced window,
// whichever request (or none) caused it.
func (r *run) cloudMeans(m map[string]float64) {
	dur := map[string][]float64{}
	var store []float64
	errors := 0
	add := func(sp provSpan) {
		dur[sp.class()] = append(dur[sp.class()], float64(sp.end-sp.start)/nsPerMs)
		store = append(store, float64(sp.storeNs)/nsPerMs)
		if sp.failed {
			errors++
		}
	}
	r.tr.mu.Lock()
	for _, rt := range r.tr.order {
		for _, sp := range rt.provider {
			add(sp)
		}
	}
	for _, sp := range r.tr.background {
		add(sp)
	}
	r.tr.mu.Unlock()
	m["cloud.put_ms"] = zeroNaN(mean(dur["put"]))
	m["cloud.get_ms"] = zeroNaN(mean(dur["get"]))
	m["cloud.delete_ms"] = zeroNaN(mean(dur["delete"]))
	m["cloud.store_ms"] = zeroNaN(mean(store))
	m["cloud.errors"] = float64(errors)
}

// maintLayers reports the control plane of small-maint from the
// reports its calls returned.
func (r *run) maintLayers(m map[string]float64) {
	t := r.maint
	if t.cycles == 0 {
		return
	}
	c := float64(t.cycles)
	rep := t.repair
	m["repair.pass_ms"] = 1000 * t.repairSec / c
	m["repair.objs_per_s"] = float64(rep.Repaired) / t.repairSec
	m["repair.affected_per_pass"] = float64(rep.Affected) / c
	m["repair.skipped_per_pass"] = float64(rep.Skipped) / c
	if rep.Repaired > 0 {
		m["repair.swapped_share"] = float64(rep.Swapped) / float64(rep.Repaired)
		m["repair.bytes_written_per_repaired_byte"] = float64(rep.BytesWritten) / float64(int64(rep.Repaired)*r.w.objectBytes)
		m["repair.chunks_per_repaired"] = float64(rep.ChunksWritten) / float64(rep.Repaired)
	}
	m["maint.drain_ms"] = 1000 * t.drainSec / (2 * c) // two drains per cycle
	m["maint.reopt_objs_per_s"] = float64(t.drained) / t.drainSec
	m["optimizer.pass_ms"] = 1000 * t.optSec / c
	m["optimizer.objs_per_s"] = float64(t.scanned) / t.optSec
	m["optimizer.scanned_per_pass"] = float64(t.scanned) / c
	m["optimizer.recomputed_per_pass"] = float64(t.recomputed) / c
	m["optimizer.migrated_per_pass"] = float64(t.migrated) / c
	m["core.evaluated_per_optimize"] = float64(t.evaluated) / c
}

func (r *run) processLayer(m map[string]float64, ops int) {
	a, b := r.after.proc, r.before.proc
	if ops > 0 {
		m["process.cpu_ms_per_op"] = 1000 * (a.cpuSec - b.cpuSec) / float64(ops)
		m["process.alloc_bytes_per_op"] = float64(a.allocBytes-b.allocBytes) / float64(ops)
		m["process.allocs_per_op"] = float64(a.mallocs-b.mallocs) / float64(ops)
	}
	if cpu := a.cpuSec - b.cpuSec; cpu > 0 {
		m["process.gc_cpu_pct"] = 100 * (a.gcCPUSec - b.gcCPUSec) / cpu
	}
	m["process.goroutines_peak"] = float64(r.samp.peakGoroutines)
}

// directBudget bounds the in-process probe per op kind.
const directBudget = 400 * time.Millisecond

// probeDirect times the workload's own op shapes called straight into
// an engine — one caller, no HTTP — after the window, under the same
// provider latency. gateway.*_overhead_ms is what HTTP adds on top.
func (r *run) probeDirect() {
	w := r.d.workers[0]
	saved := w.api
	w.api = &directAPI{r.d.broker}
	defer func() { w.api = saved }()
	r.direct = map[opKind][]float64{}
	kinds := []opKind{opGet}
	if r.w.putShare > 0 {
		kinds = append(kinds, opPut)
	}
	for _, k := range kinds {
		failedBefore := w.failed
		start := time.Now()
		for n := 0; n < 200 && (n < 5 || time.Since(start) < directBudget); n++ {
			rt := w.do(w.gen.nextOf(k == opPut), phaseUntimed)
			r.direct[k] = append(r.direct[k], float64(rt)/nsPerMs)
		}
		if w.failed != failedBefore {
			r.direct[k] = nil
		}
	}
}

func zeroNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
