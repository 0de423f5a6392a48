package main

import (
	"context"
	"crypto/md5"
	"fmt"
	"runtime"
	"time"

	"scalia/internal/cache"
	"scalia/internal/core"
	"scalia/internal/engine"
	"scalia/internal/erasure"
	"scalia/internal/metadata"
	"scalia/internal/stats"
	"scalia/internal/trend"
)

// probeBudget bounds each timed probe loop; with some twenty loops the
// probes add about two seconds to a traced run.
const probeBudget = 80 * time.Millisecond

// timeLoop calls fn until the budget is spent (at least three times)
// and returns the mean seconds per call and the call count.
func timeLoop(fn func()) (secPerCall float64, calls int) {
	start := time.Now()
	for calls < 3 || time.Since(start) < probeBudget {
		fn()
		calls++
	}
	return time.Since(start).Seconds() / float64(calls), calls
}

// allocsOf runs fn n times and returns mallocs and bytes per call.
func allocsOf(n int, fn func()) (mallocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// probeLayers times the public functions of the layers below the
// engine on the workload's own shapes: its (m, n), stripe size, rule,
// object count. One caller, no load beside it.
func (r *run) probeLayers(m map[string]float64) {
	meta, err := r.d.broker.Engine(0).Head(context.Background(), r.w.containerOf(0), keyName(0))
	if err != nil {
		r.fail(fmt.Sprintf("probe: head of key 0: %v", err))
		return
	}
	stripe := r.w.objectBytes
	if stripe > r.w.stripeBytes {
		stripe = r.w.stripeBytes
	}
	var objects int
	for _, w := range r.d.workers {
		objects += int(w.liveBytes() / r.w.objectBytes)
	}
	r.probeErasure(m, meta.M, len(meta.Chunks), int(stripe))
	r.probeCache(m, int(stripe))
	r.probeCore(m)
	probeMetadata(m, objects)
	probeStats(m, objects, len(meta.Chunks))
	r.probeMachine(m)
}

func mbps(bytes int, secPerCall float64) float64 { return float64(bytes) / 1e6 / secPerCall }

func (r *run) probeErasure(m map[string]float64, mm, n, stripe int) {
	m["erasure.m"], m["erasure.n"] = float64(mm), float64(n)
	coder, err := erasure.Cached(mm, n)
	if err != nil {
		r.fail(fmt.Sprintf("probe: erasure.Cached(%d,%d): %v", mm, n, err))
		return
	}
	data := r.d.payloads.base[:stripe]
	encode := func() {
		chunks, err := coder.EncodePooled(data)
		if err == nil {
			erasure.ReleaseChunks(chunks)
		}
	}
	sec, _ := timeLoop(encode)
	m["erasure.encode_mbps"] = mbps(stripe, sec)
	m["erasure.encode_allocs_per_op"], _ = allocsOf(10, encode)

	full, err := coder.Encode(data)
	if err != nil {
		r.fail(fmt.Sprintf("probe: encode: %v", err))
		return
	}
	work := make([][]byte, len(full))
	decode := func(lose int) func() {
		return func() {
			copy(work, full)
			if lose >= 0 {
				work[lose] = nil
			}
			coder.Decode(work, stripe) //nolint:errcheck // shapes are fixed; throughput only
		}
	}
	sec, _ = timeLoop(decode(-1))
	m["erasure.decode_mbps"] = mbps(stripe, sec)
	_, m["erasure.decode_alloc_bytes_per_op"] = allocsOf(10, decode(-1))
	if n > mm { // a lost data chunk is recoverable only with parity
		sec, _ = timeLoop(decode(0))
		m["erasure.reconstruct_mbps"] = mbps(stripe, sec)
	}
}

func (r *run) probeCache(m map[string]float64, stripe int) {
	capacity := r.w.cacheBytes
	if capacity == 0 {
		capacity = 64 << 20 // cache-off workloads still time the LRU at a common size
	}
	lru := cache.NewLRU(capacity)
	data := r.d.payloads.base[:stripe]
	entries := int(capacity / int64(stripe))
	for i := 0; i < entries; i++ {
		lru.PutStripe(keyName(i), 0, data)
	}
	i := 0
	sec, _ := timeLoop(func() {
		lru.GetStripe(keyName(i%entries), 0)
		i++
	})
	m["cache.get_hit_us"] = sec * 1e6
	next := entries
	sec, _ = timeLoop(func() {
		lru.PutStripe(keyName(next), 0, data) // full cache: every put evicts
		next++
	})
	m["cache.put_evict_us"] = sec * 1e6
}

func (r *run) probeCore(m map[string]float64) {
	rule := engine.DefaultRule
	if c := r.w.containers[0]; c.rule != nil {
		rule = *c.rule
	}
	epoch, specs, free := r.d.broker.Registry().Market()
	load := stats.Summary{
		Periods: 1, Reads: 4, Writes: 1,
		BytesOut: 4 * float64(r.w.objectBytes), BytesIn: float64(r.w.objectBytes),
		StorageBytes: float64(r.w.objectBytes),
	}
	planner := core.NewPlanner(1, false)
	plan := func() { planner.Best(epoch, specs, rule, load, r.w.objectBytes, free) } //nolint:errcheck // timing only
	plan()
	sec, _ := timeLoop(plan)
	m["core.plan_us"] = sec * 1e6
	sec, _ = timeLoop(func() {
		epoch++ // a new market epoch drops the prepared search
		plan()
	})
	m["core.plan_cold_us"] = sec * 1e6
}

func probeMetadata(m map[string]float64, objects int) {
	cl := metadata.NewCluster(metadata.NewStore("dc1"), metadata.NewStore("dc2"))
	// Two rows per object, as the engine writes: the object row and its
	// listing-index row.
	rows := 2 * objects
	version := func(i int) metadata.Version {
		return metadata.Version{
			UUID: fmt.Sprintf("u%08d", i), Timestamp: int64(i + 1),
			Columns: map[string]string{"meta": metaColumn},
		}
	}
	for i := 0; i < rows; i++ {
		cl.Put("dc1", fmt.Sprintf("row%07d", i), version(i)) //nolint:errcheck // both nodes are up
	}
	cl.Flush()
	m["metadata.rows"] = float64(rows)

	i := rows
	var putSec, flushSec float64
	calls := 0
	for start := time.Now(); calls < 3 || time.Since(start) < 2*probeBudget; calls++ {
		t0 := time.Now()
		cl.Put("dc1", fmt.Sprintf("row%07d", i%rows), version(i)) //nolint:errcheck // both nodes are up
		t1 := time.Now()
		cl.Flush()
		putSec += t1.Sub(t0).Seconds()
		flushSec += time.Since(t1).Seconds()
		i++
	}
	m["metadata.put_us"] = putSec / float64(calls) * 1e6
	m["metadata.flush_us"] = flushSec / float64(calls) * 1e6
	node := cl.Store("dc2")
	sec, _ := timeLoop(func() {
		node.Get(fmt.Sprintf("row%07d", i%rows)) //nolint:errcheck // timing only
		i++
	})
	m["metadata.get_us"] = sec * 1e6
}

// metaColumn stands in for an encoded ObjectMeta (about 600 bytes).
var metaColumn = fmt.Sprintf("%0600d", 0)

func probeStats(m map[string]float64, objects, n int) {
	db := stats.NewDB(1)
	names := make([]string, objects)
	for i := range names {
		names[i] = "c/" + keyName(i)
	}
	i := 0
	apply := func() {
		db.Apply(stats.Event{
			Object: names[i%objects], Class: "application/octet-stream|131072",
			Kind: stats.EventKind(i % 2), Bytes: 1 << 17, StorageBytes: 1 << 17, Period: int64(i / objects),
		})
		i++
	}
	for range names {
		apply()
	}
	sec, _ := timeLoop(apply)
	m["stats.apply_us"] = sec * 1e6
	h := db.History(names[0])
	sec, _ = timeLoop(func() { h.Summary(int64(i/objects), core.DefaultDecisionPeriod) })
	m["stats.summary_us"] = sec * 1e6

	provs := []string{"S3(h)", "S3(l)", "RS", "Azu", "Ggl"}
	ix := stats.NewProviderIndex()
	for j, name := range names {
		on := make([]string, 0, n)
		for k := 0; k < n && k < len(provs); k++ {
			on = append(on, provs[(j+k)%len(provs)])
		}
		ix.Set(name, on)
	}
	victim := provs[:1]
	sec, _ = timeLoop(func() { ix.ObjectsOn(victim) })
	m["stats.provindex_objects_on_us"] = sec * 1e6

	det := trend.NewDetector(trend.DefaultWindow, trend.DefaultLimit)
	const batch = 1000
	sec, _ = timeLoop(func() {
		for k := 0; k < batch; k++ {
			det.Observe(float64(k % 7))
		}
	})
	m["trend.observe_ns"] = sec / batch * 1e9
}

// probeMachine calibrates the box, so numbers can be read across
// machines: the two primitives the data path is made of, and how late
// the latency timer fires.
func (r *run) probeMachine(m map[string]float64) {
	m["machine.nproc"] = float64(runtime.NumCPU())
	buf := make([]byte, 4<<20) // one size on every workload: this is calibration
	sec, _ := timeLoop(func() { md5.Sum(buf) })
	m["machine.md5_mbps"] = mbps(len(buf), sec)
	dst := make([]byte, len(buf))
	sec, _ = timeLoop(func() { copy(dst, buf) })
	m["machine.memcpy_mbps"] = mbps(len(buf), sec)

	var over, sleeps int64
	for _, b := range r.d.backends {
		over += b.overshootNs.Load()
		sleeps += b.sleeps.Load()
	}
	if sleeps == 0 { // zero-latency workload: time the same timer directly
		const d = 2 * time.Millisecond
		for ; sleeps < 20; sleeps++ {
			t0 := time.Now()
			<-time.NewTimer(d).C
			over += int64(time.Since(t0) - d)
		}
	}
	m["machine.timer_overshoot_us"] = float64(over) / float64(sleeps) / 1e3
}
