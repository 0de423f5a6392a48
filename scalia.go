// Package scalia is an adaptive multi-cloud storage broker, a full
// reproduction of "Scalia: An Adaptive Scheme for Efficient Multi-Cloud
// Storage" (Papaioannou, Bonvin, Aberer — SC 2012).
//
// Scalia stores every object as n erasure-coded chunks spread over a
// dynamically chosen set of storage providers, such that any m chunks
// reconstruct the object. The provider set is picked per object to
// minimize expected cost subject to customer rules (durability,
// availability, geographic zones, vendor lock-in), and is continuously
// re-optimized from the object's observed access pattern: placement is
// recomputed only when a momentum detector sees the access trend change,
// and chunks migrate only when the projected savings cover the migration
// cost.
//
// The package wraps a complete deployment: simulated (or private,
// HTTP-backed) storage providers, a multi-datacenter MVCC metadata
// store, per-datacenter caches, a statistics pipeline, and stateless
// broker engines with the periodic optimization procedure.
//
// # The v1 API
//
// Every I/O method takes a context.Context; cancelling it aborts the
// in-flight chunk fan-out against the providers. Large objects stream:
// PutReader and GetReader split the body into erasure-coded stripes so
// the serving path never buffers a whole object, while Put and Get
// remain as byte-slice conveniences. The same surface is served over
// HTTP by the v1 gateway (engine.NewGateway / cmd/scalia-server) and
// consumed remotely by the typed scalia/client package — embedded and
// remote callers share one method set.
//
// Quick start:
//
//	client, err := scalia.New(scalia.Options{})
//	if err != nil { ... }
//	defer client.Close()
//	ctx := context.Background()
//	client.Put(ctx, "pictures", "cat.gif", data, scalia.WithMIME("image/gif"))
//	blob, _, err := client.Get(ctx, "pictures", "cat.gif")
package scalia

import (
	"context"
	"io"

	"scalia/internal/cache"
	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/engine"
	"scalia/internal/privstore"
)

// Re-exported domain types. These are aliases so values flow freely
// between the facade and the internal packages.
type (
	// Rule is a per-object/-container placement rule: minimum durability
	// and availability, acceptable zones, and the lock-in factor 1/N.
	Rule = core.Rule
	// Placement is a chosen provider set with its erasure threshold m.
	Placement = core.Placement
	// Provider describes a storage provider: SLA and price sheet.
	Provider = cloud.Spec
	// Pricing is a provider price sheet (USD/GB and USD/1000 ops).
	Pricing = cloud.Pricing
	// Zone is a geographic region.
	Zone = cloud.Zone
	// ObjectMeta is the stored per-object metadata (Fig. 11).
	ObjectMeta = engine.ObjectMeta
	// Usage aggregates billed resources.
	Usage = cloud.Usage
	// OptimizeReport summarizes one optimization round.
	OptimizeReport = engine.OptimizeReport
	// RepairReport summarizes a repair pass.
	RepairReport = engine.RepairReport
	// OptimizeTotals accumulates optimization rounds over a deployment's
	// lifetime (served on GET /v1/stats).
	OptimizeTotals = engine.OptimizeTotals
	// RepairTotals accumulates repair passes over a deployment's
	// lifetime: chunk swaps vs full re-stripes, and the replacement
	// chunks/bytes written (served on GET /v1/stats).
	RepairTotals = engine.RepairTotals
	// Stats is the operational counter snapshot of GET /v1/stats.
	Stats = engine.Stats
	// ListResult is the paginated container listing of the v1 protocol.
	ListResult = engine.ListResult
	// CacheStats is the stripe-cache counter snapshot (GET /v1/stats).
	CacheStats = cache.Stats
	// ReadPathStats is the streaming-read counter snapshot: stripes from
	// cache vs fetched, prefetch deliveries, fan-out fallbacks.
	ReadPathStats = engine.ReadPathStats
	// WritePathStats is the streaming-write counter snapshot: pipeline
	// depth, stripes fanned out, write buffers in flight against the
	// shared budget, open multipart uploads.
	WritePathStats = engine.WritePathStats
	// UploadInfo identifies an open multipart upload session.
	UploadInfo = engine.UploadInfo
	// PartInfo describes one staged part of a multipart upload.
	PartInfo = engine.PartInfo
	// CompletedPart names one part in a CompleteUpload request.
	CompletedPart = engine.CompletedPart
	// ProviderStatus is one market participant on GET /v1/providers.
	ProviderStatus = engine.ProviderStatus
	// RepairPolicy selects how repair treats chunks at failed providers.
	RepairPolicy = engine.RepairPolicy
	// Job is an asynchronous maintenance job resource (POST /v1/repair
	// and /v1/optimize dispatch one; GET /v1/jobs/{id} polls it).
	Job = engine.JobView
	// JobList is the paginated job listing of GET /v1/jobs.
	JobList = engine.JobList
	// MaintStats is the event-driven reoptimization queue's counter
	// snapshot (GET /v1/stats).
	MaintStats = engine.MaintStats
	// ProviderMutation is the epoch-echoing response of the admin
	// provider-mutation routes.
	ProviderMutation = engine.ProviderMutation
)

// Job states and kinds of the asynchronous maintenance jobs API.
const (
	JobRunning  = engine.JobRunning
	JobDone     = engine.JobDone
	JobFailed   = engine.JobFailed
	JobRepair   = engine.JobRepair
	JobOptimize = engine.JobOptimize
)

// Zones.
const (
	ZoneEU   = cloud.ZoneEU
	ZoneUS   = cloud.ZoneUS
	ZoneAPAC = cloud.ZoneAPAC
)

// Repair policies.
const (
	RepairWait   = engine.RepairWait
	RepairActive = engine.RepairActive
)

// Sentinel errors, re-exported so callers can errors.Is against the
// facade without importing internal packages. The typed remote client
// maps v1 wire errors back onto the same values.
var (
	ErrObjectNotFound       = engine.ErrObjectNotFound
	ErrPreconditionFailed   = engine.ErrPreconditionFailed
	ErrInvalidArgument      = engine.ErrInvalidArgument
	ErrNotEnoughChunks      = engine.ErrNotEnoughChunks
	ErrRangeNotSatisfiable  = engine.ErrRangeNotSatisfiable
	ErrUploadNotFound       = engine.ErrUploadNotFound
	ErrInfeasiblePlacement  = core.ErrNoProviders
	ErrProviderUnavailable  = cloud.ErrUnavailable
	ErrProviderOverCapacity = cloud.ErrOverCapacity
	ErrObjectTooLarge       = cloud.ErrTooLarge
	ErrUnknownProvider      = cloud.ErrUnknownProvider
	ErrUnsupportedMutation  = cloud.ErrUnsupportedMutation
)

// PaperProviders returns the five provider profiles of the paper's
// Fig. 3 (Amazon S3 high/low durability, Rackspace, Azure, Google).
func PaperProviders() []Provider { return cloud.PaperProviders() }

// PaperRules returns the example rules of the paper's Fig. 2.
func PaperRules() []Rule { return core.PaperRules() }

// Options configures a broker deployment.
type Options struct {
	// Datacenters names the deployment's datacenters (default dc1, dc2).
	Datacenters []string
	// EnginesPerDC sets the stateless engine count per datacenter.
	EnginesPerDC int
	// CacheBytes enables the per-datacenter read cache when > 0.
	CacheBytes int64
	// Providers overrides the provider market (default: PaperProviders,
	// as in-memory simulated stores).
	Providers []Provider
	// DefaultRule applies when no finer-grained rule matches.
	DefaultRule Rule
	// PeriodHours is the statistics sampling period (default 1 hour).
	PeriodHours float64
	// DecisionPeriod is the initial per-object decision period D, in
	// sampling periods (default 24).
	DecisionPeriod int
	// MigrationHorizon stretches the migration payback horizon (periods).
	MigrationHorizon int
	// Pruned selects the polynomial placement heuristic instead of the
	// exact subset enumeration.
	Pruned bool
	// StripeBytes bounds the per-stripe payload of streaming reads and
	// writes (default engine.DefaultStripeBytes, 4 MiB).
	StripeBytes int64
	// ReadParallelism bounds concurrent chunk fetches per stripe read
	// (default engine.DefaultReadParallelism). Negative forces the
	// sequential ranked scan.
	ReadParallelism int
	// PrefetchStripes is the streaming GET read-ahead depth: stripes
	// decoded in the background while the previous one drains to the
	// caller (default engine.DefaultPrefetchStripes). Negative disables
	// prefetching.
	PrefetchStripes int
	// WritePipelineDepth bounds how many stripes a streaming write keeps
	// in flight at once: stripe s+1 erasure-codes while stripe s's chunks
	// fan out to the providers (default engine.DefaultWritePipelineDepth).
	// Negative forces the sequential encode-then-fan-out loop.
	WritePipelineDepth int
	// MaxBufferBytes bounds the stripe buffers ALL streaming reads and
	// writes of the deployment hold concurrently — one shared budget, so
	// any mix of concurrent large GETs and PUTs cannot blow up broker
	// memory (default engine.DefaultMaxBufferBytes; negative removes the
	// bound).
	MaxBufferBytes int64
	// ReoptWorkers sets the background worker pool that drains the
	// event-driven reoptimization queue (market events → affected
	// objects). 0 (the default) enqueues only; drain explicitly with
	// DrainMaintenance. scalia-server enables workers via -reopt-workers.
	ReoptWorkers int
	// ReoptQueueDepth bounds the reoptimization queue (default
	// engine.DefaultReoptQueueDepth). Overflow invalidations are dropped
	// and counted; the periodic Optimize pass is their backstop.
	ReoptQueueDepth int
	// Clock overrides time (tests and simulations use a manual clock).
	Clock engine.Clock
}

// Client is a Scalia deployment handle. It is safe for concurrent use.
type Client struct {
	broker *engine.Broker
}

// New builds a broker deployment.
func New(opts Options) (*Client, error) {
	cfg := engine.Config{
		Datacenters:        opts.Datacenters,
		EnginesPerDC:       opts.EnginesPerDC,
		CacheBytes:         opts.CacheBytes,
		PeriodHours:        opts.PeriodHours,
		DefaultRule:        opts.DefaultRule,
		DecisionPeriod:     opts.DecisionPeriod,
		MigrationHorizon:   opts.MigrationHorizon,
		Pruned:             opts.Pruned,
		StripeBytes:        opts.StripeBytes,
		ReadParallelism:    opts.ReadParallelism,
		PrefetchStripes:    opts.PrefetchStripes,
		WritePipelineDepth: opts.WritePipelineDepth,
		MaxBufferBytes:     opts.MaxBufferBytes,
		ReoptWorkers:       opts.ReoptWorkers,
		ReoptQueueDepth:    opts.ReoptQueueDepth,
		Clock:              opts.Clock,
	}
	if len(opts.Providers) > 0 {
		reg := cloud.NewRegistry()
		for _, spec := range opts.Providers {
			reg.Register(cloud.NewBlobStore(spec))
		}
		cfg.Registry = reg
	}
	if opts.DefaultRule.LockIn != 0 {
		if err := opts.DefaultRule.Validate(); err != nil {
			return nil, err
		}
	}
	return &Client{broker: engine.NewBroker(cfg)}, nil
}

// Close releases the deployment's background pipelines.
func (c *Client) Close() { c.broker.Close() }

// engine returns the next engine round-robin, matching the paper's
// "requests are routed to all datacenters indifferently". The counter
// lives on the broker and is shared with the HTTP gateway, so mixed
// embedded/remote traffic spreads evenly.
func (c *Client) engine() *engine.Engine { return c.broker.NextEngine() }

// PutOption customizes a write.
type PutOption func(*engine.PutOptions)

// WithMIME sets the object's MIME type (classification input).
func WithMIME(mime string) PutOption {
	return func(o *engine.PutOptions) { o.MIME = mime }
}

// WithTTL hints the object's expected lifetime in hours.
func WithTTL(hours float64) PutOption {
	return func(o *engine.PutOptions) { o.TTLHours = hours }
}

// WithRule pins a placement rule for this object.
func WithRule(r Rule) PutOption {
	return func(o *engine.PutOptions) { o.Rule = &r }
}

// WithIfMatch makes the write conditional on the stored version's ETag
// ("*" = any existing version); a mismatch fails with
// ErrPreconditionFailed.
func WithIfMatch(etag string) PutOption {
	return func(o *engine.PutOptions) { o.IfMatch = etag }
}

// WithIfAbsent makes the write create-only: it fails with
// ErrPreconditionFailed when the object already exists (the facade
// counterpart of the wire's If-None-Match: *).
func WithIfAbsent() PutOption {
	return func(o *engine.PutOptions) { o.IfAbsent = true }
}

// Put stores or updates an object from an in-memory payload.
func (c *Client) Put(ctx context.Context, container, key string, data []byte, opts ...PutOption) (ObjectMeta, error) {
	var po engine.PutOptions
	for _, opt := range opts {
		opt(&po)
	}
	meta, err := c.engine().Put(ctx, container, key, data, po)
	if err != nil {
		return meta, err
	}
	// Synchronously drain inter-DC metadata replication so the facade
	// offers read-your-writes across datacenters (the underlying store is
	// eventually consistent, §III-D3).
	c.broker.Metadata().Flush()
	return meta, nil
}

// PutReader stores or updates an object streamed from r. size must be
// the exact body length; at most one stripe is buffered at a time, so
// arbitrarily large objects upload in constant memory. Cancelling ctx
// aborts the in-flight chunk fan-out and rolls back written chunks.
func (c *Client) PutReader(ctx context.Context, container, key string, r io.Reader, size int64, opts ...PutOption) (ObjectMeta, error) {
	var po engine.PutOptions
	for _, opt := range opts {
		opt(&po)
	}
	meta, err := c.engine().PutReader(ctx, container, key, r, size, po)
	if err != nil {
		return meta, err
	}
	c.broker.Metadata().Flush()
	return meta, nil
}

// CreateUpload opens a resumable multipart upload for an object. The
// placement — provider set and erasure threshold — is planned once,
// using sizeHint (0 = unknown) as the cost-model input, and every part
// inherits it. Stream the parts with UploadPart (each except the final
// one a whole multiple of the stripe size), then CompleteUpload with
// the part list; a dropped connection costs only the part it
// interrupted (ListParts reports what survived).
func (c *Client) CreateUpload(ctx context.Context, container, key string, sizeHint int64, opts ...PutOption) (UploadInfo, error) {
	var po engine.PutOptions
	for _, opt := range opts {
		opt(&po)
	}
	return c.engine().CreateUpload(ctx, container, key, sizeHint, po)
}

// UploadPart streams one part of an open upload through the write
// pipeline. size must be the exact part length; re-sending a part
// number replaces the earlier attempt.
func (c *Client) UploadPart(ctx context.Context, uploadID string, partNumber int, r io.Reader, size int64) (PartInfo, error) {
	return c.engine().UploadPart(ctx, uploadID, partNumber, r, size)
}

// ListParts reports an open upload's staged parts, sorted by number.
func (c *Client) ListParts(ctx context.Context, uploadID string) (UploadInfo, []PartInfo, error) {
	return c.engine().ListParts(ctx, uploadID)
}

// CompleteUpload assembles the staged parts into the live object
// version in one batched metadata commit — no chunk data moves. parts
// must name every part, consecutively from 1; a mismatch fails with
// ErrInvalidArgument and leaves the upload open for a retry.
func (c *Client) CompleteUpload(ctx context.Context, uploadID string, parts []CompletedPart) (ObjectMeta, error) {
	meta, err := c.engine().CompleteUpload(ctx, uploadID, parts)
	if err != nil {
		return meta, err
	}
	c.broker.Metadata().Flush()
	return meta, nil
}

// AbortUpload tears an upload session down and garbage-collects every
// staged part's chunks.
func (c *Client) AbortUpload(ctx context.Context, uploadID string) error {
	return c.engine().AbortUpload(ctx, uploadID)
}

// Get fetches an object fully buffered, with its metadata.
func (c *Client) Get(ctx context.Context, container, key string) ([]byte, ObjectMeta, error) {
	return c.engine().Get(ctx, container, key)
}

// GetReader fetches an object as a stream: each stripe is served from
// the stripe cache or reconstructed from the m cheapest reachable
// providers with a bounded parallel chunk fan-out, while the next
// stripes prefetch in the background. The caller must Close the reader.
func (c *Client) GetReader(ctx context.Context, container, key string) (io.ReadCloser, ObjectMeta, error) {
	return c.engine().GetReader(ctx, container, key)
}

// GetRange fetches the byte range [offset, offset+length) of an object
// as a stream. The range maps onto whole stripes, so only the stripes
// it overlaps are consulted in the cache or fetched. length is clamped
// to the object end and -1 means "to the end" (as in the remote
// client's GetRange); a range starting at or past the end fails with
// ErrRangeNotSatisfiable. The caller must Close the reader.
func (c *Client) GetRange(ctx context.Context, container, key string, offset, length int64) (io.ReadCloser, ObjectMeta, error) {
	return c.engine().GetRangeReader(ctx, container, key, offset, length)
}

// Head fetches an object's metadata only.
func (c *Client) Head(ctx context.Context, container, key string) (ObjectMeta, error) {
	return c.engine().Head(ctx, container, key)
}

// Delete removes an object.
func (c *Client) Delete(ctx context.Context, container, key string) error {
	if err := c.engine().Delete(ctx, container, key); err != nil {
		return err
	}
	c.broker.Metadata().Flush()
	return nil
}

// DeleteIf removes an object only if its stored ETag matches ifMatch
// ("*" = any existing version).
func (c *Client) DeleteIf(ctx context.Context, container, key, ifMatch string) error {
	if err := c.engine().DeleteIf(ctx, container, key, ifMatch); err != nil {
		return err
	}
	c.broker.Metadata().Flush()
	return nil
}

// List returns the keys of a container, sorted.
func (c *Client) List(ctx context.Context, container string) ([]string, error) {
	return c.engine().List(ctx, container)
}

// SetDefaultRule replaces the default placement rule.
func (c *Client) SetDefaultRule(r Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	c.broker.Rules().SetDefault(r)
	return nil
}

// SetContainerRule pins a rule to a container.
func (c *Client) SetContainerRule(container string, r Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	c.broker.Rules().SetContainerRule(container, r)
	return nil
}

// AddProvider registers a storage provider at runtime (the paper's
// CheapStor scenario); existing objects migrate when the optimizer finds
// the new market cheaper.
func (c *Client) AddProvider(spec Provider) {
	c.broker.Registry().Register(cloud.NewBlobStore(spec))
}

// AddPrivateResource registers a corporate private storage resource
// served by a privstore web service (§III-E). The spec carries the
// resource's capacity and prices; requests are HMAC-signed with token.
func (c *Client) AddPrivateResource(baseURL string, token []byte, spec Provider) {
	client := privstore.NewClient(baseURL, token)
	c.broker.Registry().Register(privstore.NewBackend(client, spec))
}

// NewPrivateStoreServer creates the standalone web service that exposes
// a local directory as an authenticated private storage resource; serve
// it with net/http and register it via AddPrivateResource.
func NewPrivateStoreServer(dir string, token []byte, capacityBytes int64) (*privstore.Server, error) {
	return privstore.NewServer(dir, token, capacityBytes)
}

// RemoveProvider deregisters a provider (market exit).
func (c *Client) RemoveProvider(name string) bool {
	_, ok := c.broker.Registry().Deregister(name)
	return ok
}

// SetProviderAvailable injects or clears a transient provider outage on
// backends that support failure injection (simulated providers do). The
// change goes through the registry, so it bumps the market epoch and
// invalidates the broker's cached placement searches immediately.
func (c *Client) SetProviderAvailable(name string, up bool) bool {
	return c.broker.Registry().SetAvailable(name, up)
}

// UpdateProviderAvailability is SetProviderAvailable with the unified
// admin contract: it returns the market epoch the mutation advanced the
// registry to, ErrUnknownProvider for absent providers, and
// ErrUnsupportedMutation for backends without failure injection.
func (c *Client) UpdateProviderAvailability(name string, up bool) (uint64, error) {
	return c.broker.Registry().UpdateAvailability(name, up)
}

// SetProviderPricing replaces a provider's price sheet at runtime — the
// paper's market price event. The market epoch bumps so cached
// placement searches re-plan against the new prices; false means the
// provider is unknown or its backend has immutable pricing.
func (c *Client) SetProviderPricing(name string, p Pricing) bool {
	return c.broker.Registry().SetPricing(name, p)
}

// UpdateProviderPricing is SetProviderPricing with the unified admin
// contract: new market epoch on success, ErrUnknownProvider /
// ErrUnsupportedMutation on failure.
func (c *Client) UpdateProviderPricing(name string, p Pricing) (uint64, error) {
	return c.broker.Registry().UpdatePricing(name, p)
}

// Optimize runs one periodic optimization procedure (leader election,
// trend-gated recomputation, cost-justified migration). Cancelling ctx
// stops the shard scans early.
func (c *Client) Optimize(ctx context.Context) (OptimizeReport, error) {
	rep, err := c.broker.Optimize(ctx)
	c.broker.Metadata().Flush()
	return rep, err
}

// Repair scans for objects with chunks at unreachable providers and
// applies the policy. The candidate set comes from the provider→objects
// index, so the pass costs O(affected), not O(store).
func (c *Client) Repair(ctx context.Context, policy engine.RepairPolicy) (RepairReport, error) {
	rep, err := c.broker.Repair(ctx, policy)
	c.broker.Metadata().Flush()
	return rep, err
}

// StartOptimize dispatches an asynchronous optimization round and
// returns its job resource immediately; poll with Job.
func (c *Client) StartOptimize() Job { return c.broker.StartOptimize() }

// StartRepair dispatches an asynchronous repair pass and returns its
// job resource immediately; poll with Job.
func (c *Client) StartRepair(policy RepairPolicy) Job { return c.broker.StartRepair(policy) }

// Job returns one maintenance job by ID.
func (c *Client) Job(id string) (Job, bool) { return c.broker.Job(id) }

// Jobs lists maintenance jobs with the object-listing pagination shape
// (prefix/after/limit; limit <= 0 means no cap).
func (c *Client) Jobs(prefix, after string, limit int) JobList {
	return c.broker.Jobs(prefix, after, limit)
}

// DrainMaintenance synchronously re-plans the objects queued by market
// events until the queue is empty or ctx is cancelled, returning how
// many it processed. Deployments with Options.ReoptWorkers > 0 drain in
// the background and rarely need this; tests and worker-less embedders
// call it for deterministic draining.
func (c *Client) DrainMaintenance(ctx context.Context) int {
	return c.broker.DrainMaintenance(ctx)
}

// MaintStats snapshots the event-driven reoptimization queue counters.
func (c *Client) MaintStats() MaintStats { return c.broker.MaintStats() }

// ProcessPendingDeletes retries chunk deletions postponed during
// provider outages.
func (c *Client) ProcessPendingDeletes(ctx context.Context) int {
	return c.broker.ProcessPendingDeletes(ctx)
}

// CurrentPlacement reports an object's provider set and threshold.
func (c *Client) CurrentPlacement(container, key string) (Placement, bool) {
	return c.broker.CurrentPlacement(container + "/" + key)
}

// TotalCost prices all provider usage so far (USD).
func (c *Client) TotalCost() float64 { return c.broker.Registry().TotalCost() }

// TotalUsage aggregates billed resources across providers.
func (c *Client) TotalUsage() Usage { return c.broker.Registry().TotalUsage() }

// AccrueStorage advances storage billing by the given hours (simulated
// deployments call this at period boundaries).
func (c *Client) AccrueStorage(hours float64) { c.broker.Registry().AccrueStorage(hours) }

// Flush drains the statistics pipeline and metadata replication;
// deterministic tests call it before reading statistics.
func (c *Client) Flush() { c.broker.FlushStats() }

// Broker exposes the underlying deployment for advanced integration
// (HTTP serving via engine.NewGateway, direct registry access, the
// Broker().Metrics() observability registry backing /metrics and
// /v1/stats).
func (c *Client) Broker() *engine.Broker { return c.broker }

// NewGateway wraps the deployment in the versioned v1 HTTP interface:
// object routes under /v1/objects (streaming bodies, conditional
// requests, paginated listing), the admin surface (/v1/providers,
// /v1/rules, /v1/optimize, /v1/repair, /v1/stats) and the
// observability endpoints (/metrics in Prometheus text format,
// /v1/healthz; optional pprof via Gateway.EnablePprof, structured
// access logs via Gateway.Logger). Requests round-robin across all
// engines of all datacenters and carry an X-Request-ID echoed on the
// response. Serve it with net/http; the scalia/client package speaks
// the matching wire protocol.
func (c *Client) NewGateway() *engine.Gateway { return engine.NewGateway(c.broker) }
