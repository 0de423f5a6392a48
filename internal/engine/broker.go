package engine

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scalia/internal/cache"
	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/metadata"
	"scalia/internal/stats"
)

// DefaultStripeBytes is the default streaming stripe size: objects
// larger than this are erasure-coded stripe by stripe so the serving
// path never buffers a whole object.
const DefaultStripeBytes = 4 << 20

// DefaultReadParallelism is the default bound on concurrent chunk
// fetches per stripe read: the m cheapest chunks of a stripe are
// fetched together instead of one after another, so stripe latency
// approaches one provider round-trip instead of m.
const DefaultReadParallelism = 4

// DefaultPrefetchStripes is the default read-ahead depth of the
// streaming GET pipeline: while stripe s drains to the client, up to
// this many following stripes are fetched and decoded in the
// background.
const DefaultPrefetchStripes = 2

// DefaultMaxBufferBytes is the default broker-wide budget for stripe
// buffers held by the streaming serving paths: across every in-flight
// GET and PUT, at most this many bytes of stripe buffers are held at
// once (reads beyond the budget wait for earlier stripes to drain to
// their clients; writes wait for earlier stripes to finish fanning out
// to providers).
const DefaultMaxBufferBytes = 256 << 20

// DefaultWritePipelineDepth is the default encode-ahead depth of the
// streaming PUT pipeline: while stripe s's chunks fan out to providers,
// up to this many following stripes may be read, erasure-coded and
// fanned out concurrently.
const DefaultWritePipelineDepth = 4

// Config configures a Broker deployment.
type Config struct {
	// Datacenters lists datacenter names; default {"dc1", "dc2"} (the
	// paper's Fig. 4 setup).
	Datacenters []string
	// EnginesPerDC is the number of stateless engines per datacenter
	// (default 2).
	EnginesPerDC int
	// CacheBytes is each datacenter's cache capacity; 0 disables caching.
	CacheBytes int64
	// PeriodHours is the sampling-period length (default 1).
	PeriodHours float64
	// Clock drives periods; default a SimClock.
	Clock Clock
	// Registry provides the provider set; default NewPaperRegistry.
	Registry *cloud.Registry
	// DefaultRule applies when no finer rule matches.
	DefaultRule core.Rule
	// DecisionPeriod is the initial D_obj in sampling periods (default 24).
	DecisionPeriod int
	// MigrationHorizon is the minimum number of sampling periods over
	// which migration savings are amortized against migration cost. The
	// horizon defaults to max(D_obj, expected TTL); raising it makes the
	// broker migrate for slow-payback savings, which is how the paper's
	// provider-arrival experiment behaves (§IV-D migrates for a storage
	// price delta that pays back over months).
	MigrationHorizon int
	// StripeBytes bounds the per-stripe payload of streaming reads and
	// writes (default DefaultStripeBytes). Smaller stripes lower the
	// serving path's memory ceiling at the cost of more provider ops.
	StripeBytes int64
	// ReadParallelism bounds concurrent chunk fetches per stripe read,
	// and concurrent stripes per swap repair or verification (default
	// DefaultReadParallelism). Negative means 1 — one chunk at a time,
	// cheapest provider first.
	ReadParallelism int
	// PrefetchStripes is the streaming GET read-ahead depth: how many
	// stripes beyond the one draining to the client are fetched and
	// decoded in the background (default DefaultPrefetchStripes).
	// Negative means none: a read pipe of depth 1.
	PrefetchStripes int
	// WritePipelineDepth is the streaming PUT encode-ahead depth: up to
	// this many stripes may be in flight — encoded and fanning their
	// chunks out to providers — concurrently per write (default
	// DefaultWritePipelineDepth). Negative means a write pipe of depth
	// 1: encode stripe s, fan it out, wait, then touch stripe s+1.
	WritePipelineDepth int
	// MaxBufferBytes bounds the stripe buffers all streaming reads AND
	// writes of the broker hold concurrently (default
	// DefaultMaxBufferBytes; negative removes the bound). One budget
	// governs both directions so worst-case serving-path memory has a
	// single knob. It is enforced as a semaphore of
	// MaxBufferBytes/StripeBytes (floor, minimum 1) stripe slots;
	// cached stripes do not consume the budget (the cache has its own
	// capacity).
	MaxBufferBytes int64
	// ReoptWorkers above 0 turns on the background drain of the
	// event-driven reoptimization queue (objects whose cached placement a
	// market event invalidated): whenever something is enqueued, one pass
	// over every engine re-plans the queue. 0 — the default —
	// enqueues but does not drain automatically: callers drain explicitly
	// with DrainMaintenance (deterministic for embedded deployments and
	// tests). scalia-server enables background draining with
	// -reopt-workers.
	ReoptWorkers int
}

// DefaultReoptQueueDepth bounds the event-driven reoptimization queue;
// when it is full, further invalidations are dropped and counted — the
// periodic trend-gated Optimize pass is the backstop that eventually
// revisits them.
const DefaultReoptQueueDepth = 1 << 16

func (c *Config) fill() {
	if len(c.Datacenters) == 0 {
		c.Datacenters = []string{"dc1", "dc2"}
	}
	if c.EnginesPerDC <= 0 {
		c.EnginesPerDC = 2
	}
	if c.PeriodHours <= 0 {
		c.PeriodHours = 1
	}
	if c.Clock == nil {
		c.Clock = NewSimClock()
	}
	if c.Registry == nil {
		c.Registry = cloud.NewPaperRegistry()
	}
	if c.DecisionPeriod <= 0 {
		c.DecisionPeriod = core.DefaultDecisionPeriod
	}
	if c.StripeBytes <= 0 {
		c.StripeBytes = DefaultStripeBytes
	}
	switch {
	case c.ReadParallelism == 0:
		c.ReadParallelism = DefaultReadParallelism
	case c.ReadParallelism < 0:
		c.ReadParallelism = 1
	}
	switch {
	case c.PrefetchStripes == 0:
		c.PrefetchStripes = DefaultPrefetchStripes
	case c.PrefetchStripes < 0:
		c.PrefetchStripes = 0
	}
	switch {
	case c.WritePipelineDepth == 0:
		c.WritePipelineDepth = DefaultWritePipelineDepth
	case c.WritePipelineDepth < 0:
		c.WritePipelineDepth = 0
	}
	switch {
	case c.MaxBufferBytes == 0:
		c.MaxBufferBytes = DefaultMaxBufferBytes
	case c.MaxBufferBytes < 0:
		c.MaxBufferBytes = 0 // unbounded
	}
}

// Broker is a full Scalia deployment: shared storage registry, metadata
// cluster, cache cluster, statistics database and a set of stateless
// engines across datacenters.
type Broker struct {
	cfg      Config
	registry *cloud.Registry
	meta     *metadata.Cluster
	caches   *cache.Cluster
	statsDB  *stats.DB
	rules    *RuleStore
	clock    Clock
	engines  []*Engine
	// planner is the shared placement-planning layer: prepared searches
	// cached per (market epoch, rule fingerprint), used by every engine
	// for Put and, through decider — the per-object decision step of
	// Optimize, Repair and the event queue — for every re-plan.
	planner *core.Planner
	decider core.Decider
	// metrics is the broker's observability surface (see metrics.go):
	// the registry behind GET /metrics plus the registry-owned hot-path
	// counters — including the read-path counters (stripes served from
	// cache vs fetched, prefetched stripes, ranked fallbacks) that
	// ReadStats reports, so /v1/stats and /metrics share one
	// bookkeeping path.
	metrics *brokerMetrics
	// next drives NextEngine's round-robin. The facade and the HTTP
	// gateway share this one counter, so mixed embedded/remote traffic
	// still spreads evenly across all engines of all datacenters. Every
	// request writes it, so it keeps a cache line to itself (lone).
	next lone
	// bufSem is the broker-wide stripe-buffer budget shared by the
	// streaming read and write paths: one token per stripe slot of
	// Config.MaxBufferBytes. nil = unbounded. The gauges track current
	// and peak slots in use per direction (see acquireBuf).
	bufSem            chan struct{}
	readBuf, writeBuf bufGauge

	// now is the wall-clock source for multipart-session idle tracking.
	// Production brokers use time.Now; the TTL-sweep tests substitute a
	// fake clock.
	now func() time.Time

	// uploads holds the in-progress multipart upload sessions, keyed by
	// upload ID. Sessions are broker-level state: the gateway round-
	// robins parts across engines, and any engine must resolve any
	// upload.
	uploadsMu sync.Mutex
	uploads   map[string]*uploadSession
	// rowLocks serialize the precondition-check-and-commit step of
	// conditional writes per metadata row (striped to bound memory), so
	// two concurrent If-Match / create-only operations cannot both pass
	// the check and clobber each other. The scope is one process; cross-
	// datacenter concurrency remains last-write-wins MVCC (§III-D3).
	rowLocks [rowLockStripes]sync.Mutex

	// repairMu serializes repair passes: two at once would plan the same
	// swaps from the same rows and rebuild every lost chunk twice, for one
	// of each pair to lose its commit and be rolled back.
	repairMu sync.Mutex

	// provIndex is the provider→objects inverted index behind
	// O(affected) maintenance: Engine.publish updates it with every row
	// it commits, under the row lock, and repair/reoptimization enumerate
	// affected objects through it instead of scanning the whole store.
	provIndex *stats.ProviderIndex
	// maint is the event-driven reoptimization queue: a registry
	// subscriber enqueues the objects a market event invalidated; a pass
	// — the background drain's, or an explicit one — re-plans them.
	maint *maintQueue
	// jobs tracks asynchronous maintenance passes started through the
	// jobs API (POST /v1/repair|optimize without ?wait=true).
	jobs *jobRegistry

	// reaper deletes retired chunks in the background — it is the one
	// place garbage is kept — and counts the readers that pin them
	// (reaper.go).
	reaper *reaper
	// gen is the source of chunk generations (ObjectMeta.Gens). It never
	// repeats: two attempts at one part or one swap never share a key.
	gen atomic.Uint64
	// providers holds what the broker learns about each provider from
	// its traffic: its op series and its smoothed Get latency, the
	// tie-break of slotNames among equally cheap providers (providers.go).
	providers providerRecords

	// ctx is the broker's lifetime, cancelled by Close; wg counts what
	// goBackground runs under it: the drain, the reaper, every async job.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	lastOpt   int64
	decisions map[string]*core.DecisionController
	// rot is the bounded set of chunk slots that failed their sum on a
	// read, by object, waiting for the maintenance step to rewrite them
	// (noteRot, Engine.healRot).
	rot map[string]*rotEntry
	// optimized, repaired and drained are the lifetime sums behind
	// OptimizeTotals, RepairTotals and MaintStats.
	optimized, repaired, drained passTotals
}

// lone is a counter alone on its 64-byte cache line: with 56 bytes empty
// on either side, no other field of the struct it is in shares the line,
// wherever the struct lies in memory.
type lone struct {
	_ [56]byte
	atomic.Uint64
	_ [56]byte
}

// OptimizeTotals accumulates optimization activity over the broker's
// lifetime; the gateway surfaces it on GET /v1/stats.
type OptimizeTotals struct {
	Rounds       int     `json:"rounds"`
	Scanned      int     `json:"scanned"`
	TrendChanged int     `json:"trendChanged"`
	Recomputed   int     `json:"recomputed"`
	Migrated     int     `json:"migrated"`
	MigrationUSD float64 `json:"migrationUSD"`
	Evaluated    int     `json:"evaluated"`
}

// ReadPathStats is the operational counter snapshot of the streaming
// read path, served on GET /v1/stats.
type ReadPathStats struct {
	// StripesFromCache and StripesFetched split served stripes by
	// source: the stripe cache vs a provider chunk fan-out.
	StripesFromCache int64 `json:"stripesFromCache"`
	StripesFetched   int64 `json:"stripesFetched"`
	// StripesReconstructed counts the fetched stripes that came back
	// short of a data chunk, so one was rebuilt from the others rather
	// than served as it lies: degraded reads, and layouts whose data slots
	// a swap or a price change moved off the cheapest-to-read providers.
	// A healthy read adds 0.
	StripesReconstructed int64 `json:"stripesReconstructed"`
	// PrefetchedStripes counts stripes delivered by the background
	// prefetcher rather than fetched on demand by a client Read.
	PrefetchedStripes int64 `json:"prefetchedStripes"`
	// FetchFallbacks counts chunk fetches that failed and fell back to
	// a spare provider in the ranked order.
	FetchFallbacks int64 `json:"fetchFallbacks"`
	// CorruptChunks counts chunks that were served but failed their
	// stored sum; the read took a spare for each, like a fallback, but
	// the provider's op series saw a success.
	CorruptChunks int64 `json:"corruptChunks"`
	// BufferedStripesPeak is the high-water mark of stripe buffers reads
	// held concurrently under the shared MaxBufferBytes budget.
	BufferedStripesPeak int64 `json:"bufferedStripesPeak"`
	// BufferedStripes is the stripe buffers reads hold right now under
	// the shared budget. After every streaming GET has drained or been
	// torn down — including mid-stream provider flips — it must return
	// to 0: a non-zero resting value is a leaked budget slot (the
	// loadgen chaos suite asserts this invariant).
	BufferedStripes int64 `json:"bufferedStripes"`
}

// ReadStats returns the cumulative read-path counters. The values are
// read from the metric registry — /v1/stats is a view over the same
// counters /metrics serves.
func (b *Broker) ReadStats() ReadPathStats {
	return ReadPathStats{
		StripesFromCache:     b.metrics.readCached.Value(),
		StripesFetched:       b.metrics.readFetched.Value(),
		StripesReconstructed: b.metrics.readReconstructed.Value(),
		PrefetchedStripes:    b.metrics.readPrefetched.Value(),
		FetchFallbacks:       b.metrics.readFallbacks.Value(),
		CorruptChunks:        b.metrics.chunkSumFailures.Total(),
		BufferedStripesPeak:  b.readBuf.peak.Load(),
		BufferedStripes:      b.readBuf.inUse.Load(),
	}
}

// WritePathStats is the operational counter snapshot of the streaming
// write path, served on GET /v1/stats — the PR 5 read-path counters'
// mirror image.
type WritePathStats struct {
	// PipelineDepth is the configured encode-ahead depth (0 = one
	// stripe at a time).
	PipelineDepth int `json:"pipelineDepth"`
	// StripesWritten counts stripes fanned out to providers by
	// completed writes (regular PUTs and staged multipart parts).
	StripesWritten int64 `json:"stripesWritten"`
	// StripesInFlight is the number of stripe buffers writes hold right
	// now — read, encoded or fanning out.
	StripesInFlight int64 `json:"stripesInFlight"`
	// BufferedStripesPeak is the high-water mark of stripe buffers held
	// concurrently by writes under the shared MaxBufferBytes budget.
	BufferedStripesPeak int64 `json:"bufferedStripesPeak"`
	// ActiveUploads is the number of open multipart upload sessions.
	ActiveUploads int `json:"activeUploads"`
}

// WriteStats returns the cumulative write-path counters.
func (b *Broker) WriteStats() WritePathStats {
	return WritePathStats{
		PipelineDepth:       b.cfg.WritePipelineDepth,
		StripesWritten:      b.metrics.writeStripes.Value(),
		StripesInFlight:     b.writeBuf.inUse.Load(),
		BufferedStripesPeak: b.writeBuf.peak.Load(),
		ActiveUploads:       b.activeUploads(),
	}
}

// bumpPeak raises a peak gauge to n if it is behind.
func bumpPeak(peak *atomic.Int64, n int64) {
	for {
		p := peak.Load()
		if n <= p || peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// rowLockStripes sizes the striped row-lock table.
const rowLockStripes = 64

// rowLock returns the stripe lock guarding a metadata row's
// check-and-commit step.
func (b *Broker) rowLock(row string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(row)) //nolint:errcheck
	return &b.rowLocks[h.Sum32()%rowLockStripes]
}

// NewBroker builds a deployment from cfg.
func NewBroker(cfg Config) *Broker {
	cfg.fill()
	nodes := make([]*metadata.Store, len(cfg.Datacenters))
	caches := cache.NewCluster()
	for i, dc := range cfg.Datacenters {
		nodes[i] = metadata.NewStore(dc)
		caches.AddDatacenter(dc, cfg.CacheBytes)
	}
	b := &Broker{
		cfg:       cfg,
		registry:  cfg.Registry,
		meta:      metadata.NewCluster(nodes...),
		caches:    caches,
		statsDB:   stats.NewDB(cfg.PeriodHours),
		rules:     NewRuleStore(cfg.DefaultRule),
		clock:     cfg.Clock,
		now:       time.Now,
		decisions: make(map[string]*core.DecisionController),
		rot:       make(map[string]*rotEntry),
		uploads:   make(map[string]*uploadSession),
		planner:   core.NewPlanner(cfg.PeriodHours),
		provIndex: stats.NewProviderIndex(),
		jobs:      newJobRegistry(),
	}
	b.ctx, b.cancel = context.WithCancel(context.Background())
	b.providers.by.Store(&map[string]*providerRecord{})
	if cfg.MaxBufferBytes > 0 {
		slots := cfg.MaxBufferBytes / cfg.StripeBytes
		if slots < 1 {
			slots = 1 // a deployment can always buffer one stripe
		}
		b.bufSem = make(chan struct{}, slots)
	}
	b.decider = core.Decider{
		Planner:          b.planner,
		MigrationHorizon: cfg.MigrationHorizon,
		MigrationCost:    core.MigrationCost,
	}
	id := 0
	for _, dc := range cfg.Datacenters {
		for i := 0; i < cfg.EnginesPerDC; i++ {
			b.engines = append(b.engines, &Engine{
				id: fmt.Sprintf("engine%d", id),
				dc: dc,
				b:  b,
			})
			id++
		}
	}
	// The maintenance queue subscribes to named market events before the
	// metric collectors are built, so its gauges are readable at scrape
	// time.
	b.maint = newMaintQueue(b, DefaultReoptQueueDepth)
	b.registry.Subscribe(b.maint.onMarketEvent)
	b.reaper = newReaper(b)
	b.registry.Subscribe(b.reaper.onMarketEvent)
	// The metric collectors read the fields built above.
	b.metrics = newBrokerMetrics(b)
	b.goBackground(b.reaper.loop)
	if cfg.ReoptWorkers > 0 {
		b.goBackground(b.maint.background)
	}
	return b
}

// goBackground runs f on a goroutine of its own under the broker's
// lifetime: Close cancels f's ctx and waits for f to return. Once Close
// has begun, f runs on the caller's goroutine with the ended ctx instead,
// so Close never waits for a goroutine it did not count.
func (b *Broker) goBackground(f func(ctx context.Context)) {
	b.mu.Lock()
	if b.ctx.Err() != nil {
		b.mu.Unlock()
		f(b.ctx)
		return
	}
	b.wg.Add(1)
	b.mu.Unlock()
	go func() { defer b.wg.Done(); f(b.ctx) }()
}

// Close ends the broker's lifetime: it cancels what runs in the
// background, waits for all of it, then reaps what it retired, so a broker
// shut down in good order leaves no garbage at reachable providers.
func (b *Broker) Close() {
	b.mu.Lock()
	b.cancel() // under mu: goBackground counts nothing after this
	b.mu.Unlock()
	b.wg.Wait()
	b.reaper.reap(false)
}

// ProviderIndex exposes the provider→objects inverted index (tests and
// integrations; the serving path maintains it automatically).
func (b *Broker) ProviderIndex() *stats.ProviderIndex { return b.provIndex }

// DrainMaintenance synchronously re-plans the queued invalidations in one
// pass over every engine and returns how many it re-planned; what a
// pass cut short by ctx did not get through stays queued. Without a
// background drain (ReoptWorkers == 0), tests, tick loops and jobs call it.
func (b *Broker) DrainMaintenance(ctx context.Context) int {
	return b.maint.drain(ctx)
}

// Engines returns all engines.
func (b *Broker) Engines() []*Engine { return b.engines }

// Engine returns engine i (requests are routed to engines indifferently;
// callers may pick any).
func (b *Broker) Engine(i int) *Engine { return b.engines[i%len(b.engines)] }

// NextEngine returns the next engine round-robin across all engines of
// all datacenters, matching the paper's "requests are routed to all
// datacenters indifferently". The counter is atomic: requests may race
// from many goroutines, and the modulo happens on the uint64 so the
// index never goes negative.
func (b *Broker) NextEngine() *Engine {
	n := b.next.Add(1) - 1
	return b.engines[n%uint64(len(b.engines))]
}

// OptimizeTotals returns the cumulative optimization counters.
func (b *Broker) OptimizeTotals() OptimizeTotals {
	b.mu.Lock()
	t := b.optimized
	b.mu.Unlock()
	return OptimizeTotals{
		Rounds: t.passes, Scanned: t.objects, TrendChanged: t.trendChanged,
		Recomputed: t.recomputed, Migrated: t.migrated,
		MigrationUSD: t.migrationUSD, Evaluated: t.evaluated,
	}
}

// Registry exposes the provider registry.
func (b *Broker) Registry() *cloud.Registry { return b.registry }

// Planner exposes the shared placement planner (cache statistics,
// direct planning for integrations).
func (b *Broker) Planner() *core.Planner { return b.planner }

// Rules exposes the rule store.
func (b *Broker) Rules() *RuleStore { return b.rules }

// Stats exposes the statistics database.
func (b *Broker) Stats() *stats.DB { return b.statsDB }

// Metadata exposes the metadata cluster.
func (b *Broker) Metadata() *metadata.Cluster { return b.meta }

// Caches exposes the cache cluster.
func (b *Broker) Caches() *cache.Cluster { return b.caches }

// Clock exposes the deployment clock.
func (b *Broker) Clock() Clock { return b.clock }

// CurrentPlacement returns where an object's chunks are, read from its
// live metadata row, its providers described by their current specs.
func (b *Broker) CurrentPlacement(object string) (core.Placement, bool) {
	container, key, _ := splitObjectName(object) // a malformed name is no object's
	meta, err := b.engines[0].Head(context.TODO(), container, key)
	if err != nil {
		return core.Placement{}, false
	}
	return b.livePlacement(meta.M, meta.Chunks), true
}

// livePlacement builds the slot-ordered placement of chunks stored at
// the named providers, each with its current spec from the registry:
// index i is the provider holding chunk i, the alignment the swap
// planner and executor need, and the price sheets are the live ones,
// which is what "what does staying put cost now" must be priced with.
// Providers that left the registry are represented by name alone; the
// market does not list them, so the planner replaces them.
func (b *Broker) livePlacement(m int, names []string) core.Placement {
	p := core.Placement{M: m, Providers: make([]cloud.Spec, len(names))}
	for i, name := range names {
		if s, ok := b.registry.Store(name); ok {
			p.Providers[i] = s.Spec()
		} else {
			p.Providers[i] = cloud.Spec{Name: name}
		}
	}
	return p
}

// slotNames assigns a placement's providers to chunk slots (chunk i of
// every stripe goes to the i-th name): cheapest to read first by the
// readCost of a stripeLen-byte stripe, then, among exactly equal costs,
// fastest first by the smoothed Get latency of their records
// (providers.go). Slots 0..m-1 are the identity rows of the systematic
// code, so the data chunks land on exactly the m providers rank will ask,
// the fastest it may ask at that cost, and the parity on the ones it
// leaves out: a healthy read serves the data chunks as they lie.
// Latencies the record cannot tell apart keep the planner's order; a
// provider no Get has reached yet counts as below the floor, so it goes
// ahead of any measured slower and earns a first sample. A stored object
// is never re-slotted, and rank does not re-order by latency (a healthy
// read would then decode): when a swap or a price change moves rank off
// its data slots it still reads correctly
// (ReadPathStats.StripesReconstructed counts those stripes).
func (b *Broker) slotNames(p core.Placement, stripeLen int64) []string {
	type slot struct {
		name  string
		cost  float64
		level int
	}
	slots := make([]slot, len(p.Providers))
	for i, spec := range p.Providers {
		slots[i] = slot{spec.Name, readCost(spec.Pricing, stripeLen, p.M), b.providers.record(spec.Name).level()}
	}
	slices.SortStableFunc(slots, func(x, y slot) int {
		return cmp.Or(cmp.Compare(x.cost, y.cost), cmp.Compare(x.level, y.level))
	})
	names := make([]string, len(slots))
	for i, s := range slots {
		names[i] = s.name
	}
	return names
}

// marketView is the market a decision at period now is taken on: the
// registry's epoch-cached available providers (shared slice — do not
// mutate) and the free capacities of the capacity-bounded ones (nil when
// none).
func (b *Broker) marketView(now int64) core.Market {
	epoch, specs, free := b.registry.Market()
	return core.Market{Now: now, Epoch: epoch, Specs: specs, Free: free}
}
