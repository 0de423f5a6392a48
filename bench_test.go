package scalia

// One benchmark per table/figure of the paper's evaluation (the
// regenerators behind EXPERIMENTS.md's experiment index), plus the
// ablation benches for the design choices its "Benchmarks" section
// names. Figure benches report the headline reproduction metric
// (over-cost %) via b.ReportMetric, so `go test -bench .` doubles as the
// reproduction harness summary.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/engine"
	"scalia/internal/erasure"
	"scalia/internal/sim"
	"scalia/internal/stats"
	"scalia/internal/trend"
	"scalia/internal/workload"
)

var bgctx = context.Background()

// --- Figure/table regenerators ---

func BenchmarkFig02Rules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range core.PaperRules() {
			if err := r.Validate(); err != nil {
				b.Fatal(err)
			}
			_ = r.MinProviders()
		}
	}
}

func BenchmarkFig03Providers(b *testing.B) {
	load := stats.Summary{Periods: 1, Reads: 10, BytesOut: 1e7, StorageBytes: 1e6}
	for i := 0; i < b.N; i++ {
		specs := cloud.PaperProviders()
		p := core.Placement{Providers: specs, M: 4}
		_ = core.PeriodCost(p, load, 1)
	}
}

func BenchmarkFig05Lifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := stats.NewLifetimeDist(0)
		for j := 0; j < 20; j++ {
			d.Observe(6 * float64(j) / 19)
		}
		for age := 0.0; age <= 6; age += 0.5 {
			d.ExpectedTTL(age)
		}
	}
}

func BenchmarkFig08TrendHourly(b *testing.B) {
	series := workload.NewWebsite().HourlySeries(7 * 24)
	b.ResetTimer()
	var changes int
	for i := 0; i < b.N; i++ {
		changes = len(trend.Detect(series, 3, 0.1))
	}
	b.ReportMetric(float64(changes), "detections")
}

func BenchmarkFig09TrendDaily(b *testing.B) {
	series := workload.NewWebsite().DailySeries(90)
	b.ResetTimer()
	var changes int
	for i := 0; i < b.N; i++ {
		changes = len(trend.Detect(series, 3, 0.1))
	}
	b.ReportMetric(float64(changes), "detections")
}

func BenchmarkFig12SlashdotResources(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		res, err := sim.SlashdotExperiment()
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range res.Resources {
			if pt.BwOutGB > peak {
				peak = pt.BwOutGB
			}
		}
	}
	b.ReportMetric(peak, "peak-bwout-GB")
}

func BenchmarkFig13Sets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := len(sim.StaticSets()); got != 26 {
			b.Fatalf("sets = %d", got)
		}
	}
}

func BenchmarkFig14SlashdotOverCost(b *testing.B) {
	var over float64
	for i := 0; i < b.N; i++ {
		res, err := sim.SlashdotExperiment()
		if err != nil {
			b.Fatal(err)
		}
		over = res.ScaliaOverPct
	}
	b.ReportMetric(over, "scalia-over-%")
}

func BenchmarkFig15GalleryResources(b *testing.B) {
	var storage float64
	for i := 0; i < b.N; i++ {
		res, err := sim.GalleryExperiment()
		if err != nil {
			b.Fatal(err)
		}
		storage = res.Resources[len(res.Resources)-1].StorageGB
	}
	b.ReportMetric(storage, "final-storage-GB")
}

func BenchmarkFig16GalleryOverCost(b *testing.B) {
	var over float64
	for i := 0; i < b.N; i++ {
		res, err := sim.GalleryExperiment()
		if err != nil {
			b.Fatal(err)
		}
		over = res.ScaliaOverPct
	}
	b.ReportMetric(over, "scalia-over-%")
}

func BenchmarkFig17AddProvider(b *testing.B) {
	var over float64
	for i := 0; i < b.N; i++ {
		res, err := sim.AddProviderExperiment()
		if err != nil {
			b.Fatal(err)
		}
		over = res.ScaliaOverPct
	}
	b.ReportMetric(over, "scalia-over-%")
}

func BenchmarkFig18ActiveRepair(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, static, err := sim.RepairExperiment()
		if err != nil {
			b.Fatal(err)
		}
		gap = static[len(static)-1] - res.CumulativeScalia[len(res.CumulativeScalia)-1]
	}
	b.ReportMetric(gap, "scalia-saving-USD")
}

// --- Ablations (EXPERIMENTS.md "Benchmarks") ---

func BenchmarkPlacementExact(b *testing.B) {
	load := stats.Summary{Periods: 1, Reads: 25, BytesOut: 25e6, StorageBytes: 1e6}
	rule := core.Rule{Durability: 0.99999, Availability: 0.9999, LockIn: 1}
	specs := cloud.PaperProviders()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BestPlacement(specs, rule, load, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlacementPrepared(b *testing.B) {
	load := stats.Summary{Periods: 1, Reads: 25, BytesOut: 25e6, StorageBytes: 1e6}
	rule := core.Rule{Durability: 0.99999, Availability: 0.9999, LockIn: 1}
	search, err := core.NewSearch(cloud.PaperProviders(), rule, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := search.Best(load, 0, nil); !r.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkPlannerReuse contrasts per-object placement from scratch
// (core.BestPlacement re-runs feasibility filtering for every object)
// against the shared planner's epoch-cached prepared searches, across
// 1k objects with mixed rules — the hot-path win of the planner layer.
// ns/op is per 1000 placements.
func BenchmarkPlannerReuse(b *testing.B) {
	specs := cloud.PaperProviders()
	rules := core.PaperRules()
	const objects = 1000
	loads := make([]stats.Summary, objects)
	for i := range loads {
		loads[i] = stats.Summary{
			Periods: 1, Reads: float64(i % 50), Writes: 1,
			BytesOut: float64(i%50) * 1e6, BytesIn: 1e6,
			StorageBytes: float64(1+i%40) * 1e6,
		}
	}
	b.Run("per-object-bestplacement", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < objects; j++ {
				if _, err := core.BestPlacement(specs, rules[j%len(rules)], loads[j], core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("planner-cached", func(b *testing.B) {
		b.ReportAllocs()
		planner := core.NewPlanner(1)
		for i := 0; i < b.N; i++ {
			for j := 0; j < objects; j++ {
				if _, err := planner.Best(1, specs, rules[j%len(rules)], loads[j], 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func newBenchBroker(b *testing.B, objects int) (*engine.Broker, *engine.SimClock) {
	b.Helper()
	clock := engine.NewSimClock()
	br := engine.NewBroker(engine.Config{Clock: clock})
	b.Cleanup(br.Close)
	e := br.Engine(0)
	for i := 0; i < objects; i++ {
		if _, err := e.Put(bgctx, "c", fmt.Sprintf("k%d", i), make([]byte, 4096), engine.PutOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	return br, clock
}

func BenchmarkOptimizeTrendGated(b *testing.B) {
	br, clock := newBenchBroker(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(1)
		if _, err := br.Optimize(bgctx); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRead(b *testing.B, cacheBytes int64) {
	br := engine.NewBroker(engine.Config{CacheBytes: cacheBytes})
	b.Cleanup(br.Close)
	e := br.Engine(0)
	if _, err := e.Put(bgctx, "c", "k", make([]byte, 256<<10), engine.PutOptions{}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(256 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Get(bgctx, "c", "k"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCached(b *testing.B)   { benchRead(b, 64<<20) }
func BenchmarkReadUncached(b *testing.B) { benchRead(b, 0) }

// BenchmarkGatewayCachedGet is the zipf-cached hit path by itself: a GET
// of a fully cached 256 KiB object through the gateway over loopback
// HTTP, keep-alive, the client discarding the body. The 400 keys (100 MiB)
// keep the stripes out of the CPU caches, as a real working set does, so
// a copy costs what it costs in production; B/op is both ends of the
// connection.
func BenchmarkGatewayCachedGet(b *testing.B) {
	const keys, size = 400, 256 << 10
	br := engine.NewBroker(engine.Config{CacheBytes: 256 << 20, Datacenters: []string{"dc1"}}) // one cache to fill
	b.Cleanup(br.Close)
	ts := httptest.NewServer(engine.NewGateway(br))
	b.Cleanup(ts.Close)
	get := func(i int) {
		resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/objects/c/k%d", ts.URL, i%keys))
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || n != size || resp.StatusCode != http.StatusOK {
			b.Fatalf("GET k%d: %d, %d bytes, %v", i%keys, resp.StatusCode, n, err)
		}
	}
	payload := make([]byte, size)
	for i := 0; i < keys; i++ {
		payload[0] = byte(i)
		if _, err := br.Engine(0).Put(bgctx, "c", fmt.Sprintf("k%d", i), payload, engine.PutOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ { // fill the cache
		get(i)
	}
	fetched := br.ReadStats().StripesFetched
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(i)
	}
	b.StopTimer()
	if n := br.ReadStats().StripesFetched - fetched; n != 0 {
		b.Fatalf("%d stripes fetched from the providers: not the hit path", n)
	}
}

func BenchmarkDecisionCoupling(b *testing.B) {
	h := stats.NewHistory(0)
	for p := int64(0); p < 200; p++ {
		h.Record(stats.Sample{Period: p, Reads: p % 24, BytesOut: (p % 24) * 1e6, StorageBytes: 1e6})
	}
	rule := core.Rule{Durability: 0.99999, Availability: 0.9999, LockIn: 1}
	search, err := core.NewSearch(cloud.PaperProviders(), rule, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	market := core.Market{Now: 199}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := core.Object{History: h, Ctl: core.NewDecisionController(24, 0), Size: 1e6}
		for round := 0; round < 16; round++ {
			core.Couple(obj, market, search)
		}
	}
}

func benchErasure(b *testing.B, m, n, size int) {
	coder, err := erasure.New(m, n)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coder.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkErasureEncode_m1n2_1MB(b *testing.B)  { benchErasure(b, 1, 2, 1<<20) }
func BenchmarkErasureEncode_m3n5_1MB(b *testing.B)  { benchErasure(b, 3, 5, 1<<20) }
func BenchmarkErasureEncode_m4n5_1MB(b *testing.B)  { benchErasure(b, 4, 5, 1<<20) }
func BenchmarkErasureEncode_m4n5_40MB(b *testing.B) { benchErasure(b, 4, 5, 40<<20) }

// BenchmarkEncode is the bench-gate guard for the table-driven encode
// kernels: the acceptance geometry (m=4, n=8) at a 4 MiB stripe on the
// pooled path, which must stay at 0 allocs/op. MB/s here is what the
// write and repair paths see per stripe.
func BenchmarkEncode(b *testing.B) {
	coder, err := erasure.Cached(4, 8)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i * 13)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunks, err := coder.EncodePooled(data)
		if err != nil {
			b.Fatal(err)
		}
		erasure.ReleaseChunks(chunks)
	}
}

// BenchmarkDecode is the bench-gate guard for the reconstruct kernels:
// the same geometry with one data and one parity chunk lost, so every
// iteration pays the decode-matrix inversion plus the kernel work of
// regenerating both chunks and reassembling the stripe.
func BenchmarkDecode(b *testing.B) {
	coder, err := erasure.Cached(4, 8)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	chunks, err := coder.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	damaged := make([][]byte, len(chunks))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(damaged, chunks)
		damaged[1], damaged[6] = nil, nil
		got, err := coder.Decode(damaged, len(data))
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(data) {
			b.Fatal("short decode")
		}
	}
}

// BenchmarkEncodeSingleParity and BenchmarkDecodeOneLost gate the
// geometry the broker actually places on the paper's providers — (4, 5),
// one chunk of redundancy — on the paths it actually runs: the pooled
// encode of a 4 MiB stripe, which must not allocate, and the decode of
// that stripe with one data chunk lost and the parity in its place (a
// degraded GET, a swap repair's rebuild; the broker keeps the rebuilt
// chunk as it is, this joins the stripe into a reused buffer besides).
// Both are one XOR pass: generator row m is all ones.
func BenchmarkEncodeSingleParity(b *testing.B) {
	coder, err := erasure.Cached(4, 5)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i * 13)
	}
	encode := func() {
		chunks, err := coder.EncodePooled(data)
		if err != nil {
			b.Fatal(err)
		}
		erasure.ReleaseChunks(chunks)
	}
	encode() // fill the pools
	if a := testing.AllocsPerRun(5, encode); a != 0 {
		b.Fatalf("pooled (4,5) encode: %v allocs/op, want 0", a)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode()
	}
}

// BenchmarkEncodeFill gates the write path's encode: a 4 MiB (4, 5)
// stripe read off a body straight into its pooled data chunks
// (erasure.EncodeFill with io.ReadFull), then the parity. It must not
// allocate.
func BenchmarkEncodeFill(b *testing.B) {
	coder, err := erasure.Cached(4, 5)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i * 13)
	}
	body := bytes.NewReader(data)
	encode := func() {
		body.Reset(data)
		chunks, err := coder.EncodeFill(len(data), func(d []byte) error {
			_, err := io.ReadFull(body, d)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		erasure.ReleaseChunks(chunks)
	}
	encode() // fill the pools
	if a := testing.AllocsPerRun(5, encode); a != 0 {
		b.Fatalf("pooled (4,5) fill encode: %v allocs/op, want 0", a)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode()
	}
}

func BenchmarkDecodeOneLost(b *testing.B) {
	coder, err := erasure.Cached(4, 5)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	chunks, err := coder.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	damaged := make([][]byte, len(chunks))
	dst := make([]byte, len(data))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(damaged, chunks)
		damaged[i%4] = nil
		got, err := coder.DecodeInto(dst, damaged, len(data))
		if err != nil || len(got) != len(data) {
			b.Fatalf("decode: %d bytes, %v", len(got), err)
		}
	}
}

func BenchmarkErasureDecodeWithLoss(b *testing.B) {
	coder, _ := erasure.New(3, 5)
	data := make([]byte, 1<<20)
	chunks, _ := coder.Encode(data)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		damaged := make([][]byte, len(chunks))
		copy(damaged, chunks)
		damaged[0], damaged[3] = nil, nil
		if _, err := coder.Decode(damaged, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// slowBackend delays chunk fetches by a fixed latency, standing in for
// the provider round-trip that dominates real GET latency. Writes pay it
// too only when writes is set, for benchmarks whose hot path is write
// traffic; otherwise they stay fast so benchmark setup is cheap.
type slowBackend struct {
	*cloud.BlobStore
	delay  time.Duration
	writes bool
}

func (s *slowBackend) wait(ctx context.Context) error {
	select {
	case <-time.After(s.delay):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *slowBackend) Get(ctx context.Context, key string) ([]byte, error) {
	if err := s.wait(ctx); err != nil {
		return nil, err
	}
	return s.BlobStore.Get(ctx, key)
}

func (s *slowBackend) Put(ctx context.Context, key string, data []byte) error {
	if s.writes {
		if err := s.wait(ctx); err != nil {
			return err
		}
	}
	return s.BlobStore.Put(ctx, key, data)
}

// slowRegistry is the paper's market behind slowBackends.
func slowRegistry(delay time.Duration, writes bool) *cloud.Registry {
	reg := cloud.NewRegistry()
	for _, spec := range cloud.PaperProviders() {
		reg.Register(&slowBackend{BlobStore: cloud.NewBlobStore(spec), delay: delay, writes: writes})
	}
	return reg
}

// BenchmarkGetLargeObject measures the streaming GET of an 8-stripe,
// m=4 object against providers with a simulated per-fetch round-trip:
// the sequential seed path (one chunk at a time, no read-ahead) vs the
// parallel chunk fan-out with stripe prefetch, vs a stripe-cache hit —
// and, with the round-trip taken away, what the broker's own CPU makes
// of a large GET (cpu-bound). The acceptance bar for the read-path
// rebuild is parallel-prefetch >= 2x faster than sequential; the
// bench-gate CI job watches all four for regressions.
func BenchmarkGetLargeObject(b *testing.B) {
	const (
		stripeBytes  = 256 << 10
		stripes      = 8
		chunkLatency = 300 * time.Microsecond
	)
	payload := make([]byte, stripes*stripeBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	rule := core.Rule{Name: "bench", Durability: 0.99999, Availability: 0.9999, LockIn: 1}

	run := func(b *testing.B, cfg engine.Config, warmCache bool) {
		b.Helper()
		cfg.Registry = slowRegistry(chunkLatency, false)
		cfg.StripeBytes = stripeBytes
		br := engine.NewBroker(cfg)
		b.Cleanup(br.Close)
		e := br.Engine(0)
		meta, err := e.Put(bgctx, "big", "blob", payload, engine.PutOptions{Rule: &rule})
		if err != nil {
			b.Fatal(err)
		}
		if meta.M != 4 || meta.StripeCount() != stripes {
			b.Fatalf("placement m=%d stripes=%d, want m=4 stripes=%d", meta.M, meta.StripeCount(), stripes)
		}
		if warmCache {
			if _, _, err := e.Get(bgctx, "big", "blob"); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, _, err := e.Get(bgctx, "big", "blob")
			if err != nil || len(got) != len(payload) {
				b.Fatalf("get: %v (%d bytes)", err, len(got))
			}
		}
	}

	b.Run("sequential", func(b *testing.B) {
		run(b, engine.Config{ReadParallelism: -1, PrefetchStripes: -1}, false)
	})
	b.Run("parallel-prefetch", func(b *testing.B) {
		run(b, engine.Config{}, false)
	})
	b.Run("stripe-cached", func(b *testing.B) {
		run(b, engine.Config{CacheBytes: 64 << 20}, true)
	})
	// The other end of the same path: no provider latency to hide behind,
	// so what is left of a GET is checksums and copies — the bench/
	// large-local shape (8 MiB, paper Rule 3, two default stripes,
	// streamed, not buffered). A healthy read rebuilds and joins nothing:
	// the data chunks sit on the m providers the read asks and go out as
	// they lie, so B/op stays far below one chunk (1 MiB). degraded is the
	// same read with data slot 0's provider down: every stripe rebuilds
	// that chunk from the others.
	cpuBound := func(b *testing.B, degraded bool) {
		br := engine.NewBroker(engine.Config{}) // the paper's five providers, no latency
		b.Cleanup(br.Close)
		e := br.Engine(0)
		big := make([]byte, 8<<20)
		for i := range big {
			big[i] = byte(i)
		}
		meta, err := e.Put(bgctx, "big", "blob", big, engine.PutOptions{Rule: &core.PaperRules()[2]})
		if err != nil {
			b.Fatal(err)
		}
		if degraded {
			store, _ := br.Registry().Store(meta.Chunks[0])
			store.(cloud.AvailabilitySetter).SetAvailable(false)
		}
		get := func() {
			rc, _, err := e.GetReader(bgctx, "big", "blob")
			if err != nil {
				b.Fatal(err)
			}
			n, err := io.Copy(io.Discard, rc)
			rc.Close()
			if err != nil || n != int64(len(big)) {
				b.Fatalf("get: %v (%d bytes)", err, n)
			}
		}
		get() // untimed: warms the erasure scratch pools a rebuild draws on
		b.SetBytes(int64(len(big)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get()
		}
		st := br.ReadStats()
		var want int64 // healthy: none
		if degraded {
			want = st.StripesFetched
		}
		if st.StripesReconstructed != want {
			b.Fatalf("%d of %d fetched stripes were reconstructed, want %d", st.StripesReconstructed, st.StripesFetched, want)
		}
	}
	b.Run("cpu-bound", func(b *testing.B) { cpuBound(b, false) })
	b.Run("degraded", func(b *testing.B) { cpuBound(b, true) })
}

// BenchmarkPutLargeObject measures the streaming PUT of an 8-stripe,
// m=4 object against providers with a simulated per-op round-trip: the
// sequential seed path (encode stripe s, fan it out, wait, touch
// stripe s+1) vs the write pipeline (stripe s+1 erasure-codes while
// stripe s's chunks are in flight) vs the pipeline squeezed through a
// two-slot shared buffer budget. The acceptance bar for the write-path
// rebuild is pipelined >= 2x faster than sequential; the bench-gate CI
// job watches all three for regressions.
func BenchmarkPutLargeObject(b *testing.B) {
	const (
		stripeBytes  = 256 << 10
		stripes      = 8
		chunkLatency = 5 * time.Millisecond
	)
	payload := make([]byte, stripes*stripeBytes)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	rule := core.Rule{Name: "bench", Durability: 0.99999, Availability: 0.9999, LockIn: 1}

	run := func(b *testing.B, cfg engine.Config) {
		b.Helper()
		cfg.Registry = slowRegistry(chunkLatency, true)
		cfg.StripeBytes = stripeBytes
		br := engine.NewBroker(cfg)
		b.Cleanup(br.Close)
		e := br.Engine(0)
		meta, err := e.PutReader(bgctx, "big", "blob", bytes.NewReader(payload), int64(len(payload)), engine.PutOptions{Rule: &rule})
		if err != nil {
			b.Fatal(err)
		}
		if meta.M != 4 || meta.StripeCount() != stripes {
			b.Fatalf("placement m=%d stripes=%d, want m=4 stripes=%d", meta.M, meta.StripeCount(), stripes)
		}
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.PutReader(bgctx, "big", "blob", bytes.NewReader(payload), int64(len(payload)), engine.PutOptions{Rule: &rule}); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("sequential", func(b *testing.B) {
		run(b, engine.Config{WritePipelineDepth: -1})
	})
	b.Run("pipelined", func(b *testing.B) {
		run(b, engine.Config{})
	})
	b.Run("pipelined-budget-contended", func(b *testing.B) {
		// Two budget slots for eight stripes: the pipeline stalls on the
		// shared read/write buffer budget, not on the providers. Still
		// faster than sequential (two stripes overlap), but bounded.
		run(b, engine.Config{MaxBufferBytes: 2 * stripeBytes})
	})
}

func BenchmarkBrokerPut(b *testing.B) {
	br := engine.NewBroker(engine.Config{})
	b.Cleanup(br.Close)
	e := br.Engine(0)
	payload := make([]byte, 64<<10)
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Put(bgctx, "c", fmt.Sprintf("k%d", i), payload, engine.PutOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkList measures one page of a container listing in a store of
// 20 000 one-byte objects spread over 10 containers: the listing reads
// every object row of the engine's datacenter node and keeps the
// container's, so its cost follows the store, not the page.
func BenchmarkList(b *testing.B) {
	const objects, containers = 20000, 10
	br := engine.NewBroker(engine.Config{})
	b.Cleanup(br.Close)
	e := br.Engine(0)
	for i := 0; i < objects; i++ {
		if _, err := e.Put(bgctx, fmt.Sprintf("c%d", i%containers), fmt.Sprintf("k%06d", i), []byte{1}, engine.PutOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.List(bgctx, "c3", engine.ListOptions{})
		if err != nil || len(res.Keys) != engine.MaxListLimit || !res.Truncated {
			b.Fatalf("List = %d keys (truncated %v), %v", len(res.Keys), res.Truncated, err)
		}
	}
}

// BenchmarkRepairSwap measures one active repair of an 8-stripe (m=2,
// n=3) object after a single provider failure, against providers with a
// simulated per-op round-trip: the same-(m,n) chunk-swap path (write
// only the missing chunk of every stripe, update metadata in place) vs
// the full re-stripe (read, re-encode and rewrite everything) that the
// planner falls back to on a market with no spare provider.
// The paper's §IV-E claim is the acceptance bar: the swap must write
// strictly fewer bytes — reported as bytes-written/op and chunks/op —
// and take less wall time per repair. The bench-gate CI job watches
// both for regressions.
func BenchmarkRepairSwap(b *testing.B) {
	const (
		stripeBytes = 128 << 10
		stripes     = 8
		opLatency   = 300 * time.Microsecond
	)
	payload := make([]byte, stripes*stripeBytes)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	// run repairs a (2, 3) object on {A, B, C}. With the spare D on the
	// market the plan is a swap; without it no same-(m, n) set exists and
	// the rule's looser lock-in lets the planner re-stripe the object as
	// (1, 2) on the two survivors.
	run := func(b *testing.B, spare bool) {
		b.Helper()
		reg := cloud.NewRegistry()
		rule := core.Rule{Name: "wide", Durability: 0.9999, Availability: 0.99, LockIn: 0.5}
		names := []string{"A", "B", "C"}
		if spare {
			rule.LockIn = 1.0 / 3
			names = append(names, "D")
		}
		// D is priced so the optimizer never includes it up front: it
		// exists purely as the repair spare.
		prices := []cloud.Pricing{
			{StorageGBMonth: 0.10, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
			{StorageGBMonth: 0.11, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
			{StorageGBMonth: 0.12, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
			{StorageGBMonth: 0.50, BandwidthInGB: 0.5, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
		}
		for i, name := range names {
			reg.Register(&slowBackend{BlobStore: cloud.NewBlobStore(cloud.Spec{
				Name: name, Durability: 0.9999, Availability: 0.999,
				Zones:   []cloud.Zone{cloud.ZoneUS},
				Pricing: prices[i],
			}), delay: opLatency, writes: true})
		}
		br := engine.NewBroker(engine.Config{Registry: reg, StripeBytes: stripeBytes})
		b.Cleanup(br.Close)
		br.Rules().SetContainerRule("bk", rule)
		e := br.Engine(0)
		var bytesWritten, chunksWritten int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Every repair starts from a fresh (2, 3) placement.
			meta, err := e.Put(bgctx, "bk", "obj", payload, engine.PutOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if meta.M != 2 || len(meta.Chunks) != 3 {
				b.Fatalf("placement m=%d n=%d, want (2, 3)", meta.M, len(meta.Chunks))
			}
			victim := meta.Chunks[0]
			if _, err := br.Registry().UpdateAvailability(victim, false); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			rep, err := br.Repair(bgctx, engine.RepairActive)
			b.StopTimer()
			if err != nil || rep.Repaired != 1 {
				b.Fatalf("repair: %v (%+v)", err, rep)
			}
			if spare && rep.Swapped != 1 || !spare && rep.Restriped != 1 {
				b.Fatalf("wrong repair mechanism: %+v (spare=%v)", rep, spare)
			}
			bytesWritten += rep.BytesWritten
			chunksWritten += int64(rep.ChunksWritten)
			br.Registry().UpdateAvailability(victim, true)
			br.ProcessPendingDeletes(bgctx)
			b.StartTimer()
		}
		b.ReportMetric(float64(bytesWritten)/float64(b.N), "bytes-written/op")
		b.ReportMetric(float64(chunksWritten)/float64(b.N), "chunks/op")
	}

	b.Run("swap", func(b *testing.B) { run(b, true) })
	b.Run("restripe", func(b *testing.B) { run(b, false) })
}

// BenchmarkMaintenanceCycle is bench/'s small-maint cycle without HTTP:
// 1 500 objects of 128 KiB spread over the default rule, Rule 1 and
// Rule 3 on the paper's five providers, and per op one provider outage
// (the victim rotates) -> drain -> degraded GETs -> Repair -> recovery
// -> drain -> healthy PUTs and GETs -> Optimize. It gates the control
// plane — row decoding, re-planning, swap repair's rebuild — that the
// per-request benchmarks never enter; repair-ms/op and drain-ms/op say
// where a change sits, swapped/op and skipped/op that the passes still
// do the same work (Rule 3's (4,5) spans all five providers, so it has
// no spare to swap onto and is skipped).
func BenchmarkMaintenanceCycle(b *testing.B) {
	const objects, objectBytes, foreground = 1500, 128 << 10, 200
	clock := engine.NewSimClock()
	br := engine.NewBroker(engine.Config{
		Datacenters: []string{"dc1", "dc2"}, EnginesPerDC: 2, PeriodHours: 1,
		Registry: cloud.NewPaperRegistry(), StripeBytes: 4 << 20, Clock: clock,
	})
	b.Cleanup(br.Close)
	br.Rules().SetContainerRule("r1", core.PaperRules()[0])
	br.Rules().SetContainerRule("r3", core.PaperRules()[2])
	containers := []string{"def", "r1", "r3"}
	payload := make([]byte, objectBytes)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	name := func(k int) (container, key string) { return containers[k%3], fmt.Sprintf("k%07d", k) }
	put := func(k int) {
		payload[0]++ // every version differs
		c, key := name(k)
		if _, err := br.NextEngine().Put(bgctx, c, key, payload, engine.PutOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	get := func(k int) {
		c, key := name(k)
		if got, _, err := br.NextEngine().Get(bgctx, c, key); err != nil || len(got) != objectBytes {
			b.Fatalf("get %s/%s: %d bytes, %v", c, key, len(got), err)
		}
	}
	for k := 0; k < objects; k++ {
		put(k)
	}
	br.Metadata().Flush()
	providers := cloud.PaperProviders()
	var repair, drain time.Duration
	var swapped, skipped, next int
	setVictim := func(name string, up bool) {
		if _, err := br.Registry().UpdateAvailability(name, up); err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		br.DrainMaintenance(bgctx)
		drain += time.Since(t0)
		br.Metadata().Flush()
	}
	cycle := func(c int) {
		victim := providers[c%len(providers)].Name
		setVictim(victim, false)
		for i := 0; i < foreground; i++ {
			get(next % objects)
			next += 7
		}
		t0 := time.Now()
		rep, err := br.Repair(bgctx, engine.RepairActive)
		br.Metadata().Flush()
		repair += time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		swapped += rep.Swapped
		skipped += rep.Skipped
		setVictim(victim, true)
		br.ProcessPendingDeletes(bgctx)
		for i := 0; i < foreground; i++ {
			if i%2 == 0 {
				put(next % objects)
			} else {
				get(next % objects)
			}
			next += 7
		}
		clock.Advance(1)
		if _, err := br.Optimize(bgctx); err != nil {
			b.Fatal(err)
		}
		br.Metadata().Flush()
	}
	for c := 0; c < len(providers); c++ {
		cycle(c) // one warm-up cycle per victim, as bench/ does
	}
	repair, drain, swapped, skipped = 0, 0, 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(len(providers) + i)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(b.N) }
	b.ReportMetric(ms(repair), "repair-ms/op")
	b.ReportMetric(ms(drain), "drain-ms/op")
	b.ReportMetric(float64(swapped)/float64(b.N), "swapped/op")
	b.ReportMetric(float64(skipped)/float64(b.N), "skipped/op")
}

// BenchmarkRepairAffected measures one repair pass after a
// single-provider outage affecting ~1% of a multi-thousand-object
// store: the provider→objects inverted index enumerates only the
// affected objects. objects-checked/op is the headline metric — it
// stays at the affected count however large the store.
func BenchmarkRepairAffected(b *testing.B) {
	const total, affectedPct = 3000, 100 // 1 in 100 objects lands on the victim
	b.Run("indexed", func(b *testing.B) {
		reg := cloud.NewRegistry()
		for _, name := range []string{"A", "B", "C"} {
			reg.Register(cloud.NewBlobStore(cloud.Spec{
				Name: name, Durability: 0.99999, Availability: 0.999,
				Zones:   []cloud.Zone{cloud.ZoneUS},
				Pricing: cloud.Pricing{StorageGBMonth: 0.10, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
			}))
		}
		// The victim serves a zone of its own so only the "vic"
		// container's rule ever places chunks there.
		reg.Register(cloud.NewBlobStore(cloud.Spec{
			Name: "V", Durability: 0.99999, Availability: 0.999,
			Zones:   []cloud.Zone{cloud.ZoneAPAC},
			Pricing: cloud.Pricing{StorageGBMonth: 0.10, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
		}))
		br := engine.NewBroker(engine.Config{Registry: reg, Clock: engine.NewSimClock()})
		b.Cleanup(br.Close)
		br.Rules().SetContainerRule("hot", core.Rule{
			Durability: 0.9999, Availability: 0.99, Zones: []cloud.Zone{cloud.ZoneUS}, LockIn: 1.0 / 3,
		})
		br.Rules().SetContainerRule("vic", core.Rule{
			Durability: 0.999, Availability: 0.99, Zones: []cloud.Zone{cloud.ZoneAPAC}, LockIn: 1,
		})
		e := br.Engine(0)
		payload := make([]byte, 512)
		for i := 0; i < total; i++ {
			container := "hot"
			if i%affectedPct == 0 {
				container = "vic"
			}
			if _, err := e.Put(bgctx, container, fmt.Sprintf("k%d", i), payload, engine.PutOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		var checked, affected int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			br.Registry().UpdateAvailability("V", false)
			rep, err := br.Repair(bgctx, engine.RepairWait)
			if err != nil || rep.Affected != total/affectedPct {
				b.Fatalf("repair: %v (%+v)", err, rep)
			}
			br.Registry().UpdateAvailability("V", true)
			checked += int64(rep.Checked)
			affected += int64(rep.Affected)
		}
		b.ReportMetric(float64(checked)/float64(b.N), "objects-checked/op")
		b.ReportMetric(float64(affected)/float64(b.N), "objects-affected/op")
	})
}

// BenchmarkReoptimizeEvent measures reacting to one market event (a
// pricing change on a provider carrying data), two ways. event-drain is
// the event-driven path: it re-plans exactly the invalidated objects off
// the maintenance queue (objects-replanned/op — here all 512, every
// object holds a chunk on the victim). full-pass is the only other
// answer the broker has, the periodic Optimize: with every object read
// since the last round it scans all 512 (objects-scanned/op) and
// re-plans the ones its trend gate admits, so what it costs per event
// is a walk of the accessed set, and what it leaves on the stale price
// sheet is scanned minus re-planned. The two pricing sheets differ by a
// hair so the re-plan keeps every placement put — isolating invalidation
// + re-plan cost from migration traffic.
func BenchmarkReoptimizeEvent(b *testing.B) {
	sheets := []cloud.Pricing{
		{StorageGBMonth: 0.100, BandwidthInGB: 0.10, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
		{StorageGBMonth: 0.101, BandwidthInGB: 0.10, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
	}
	b.Run("event-drain", func(b *testing.B) {
		br, _ := newBenchBroker(b, 512)
		victim := br.ProviderIndex().ProviderNames()[0]
		var drained int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := br.Registry().UpdatePricing(victim, sheets[i%2]); err != nil {
				b.Fatal(err)
			}
			drained += int64(br.DrainMaintenance(bgctx))
		}
		b.ReportMetric(float64(drained)/float64(b.N), "objects-replanned/op")
	})
	b.Run("full-pass", func(b *testing.B) {
		const objects = 512
		br, clock := newBenchBroker(b, objects)
		victim := br.ProviderIndex().ProviderNames()[0]
		var scanned, replanned int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Optimize lists the objects accessed since its last round:
			// give it all of them, off the clock.
			b.StopTimer()
			clock.Advance(1)
			for k := 0; k < objects; k++ {
				if _, _, err := br.Engine(0).Get(bgctx, "c", fmt.Sprintf("k%d", k)); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			if _, err := br.Registry().UpdatePricing(victim, sheets[i%2]); err != nil {
				b.Fatal(err)
			}
			rep, err := br.Optimize(bgctx)
			if err != nil || rep.Scanned != objects {
				b.Fatalf("optimize: %v (%+v)", err, rep)
			}
			scanned += int64(rep.Scanned)
			replanned += int64(rep.Recomputed)
		}
		b.ReportMetric(float64(scanned)/float64(b.N), "objects-scanned/op")
		b.ReportMetric(float64(replanned)/float64(b.N), "objects-replanned/op")
	})
}
