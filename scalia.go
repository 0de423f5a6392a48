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
// The API interface is the v1 contract, written down once: every
// operation that has a v1 route. *Client (this package, in-process) and
// *client.Client (package scalia/client, over HTTP against
// engine.NewGateway / cmd/scalia-server) both implement it, so embedded
// and remote callers are interchangeable; Helpers adds the byte-slice
// and loop conveniences (Put, Get, Delete, ListAll, WaitForJob) to both.
// Every method takes a context.Context; cancelling it aborts the
// in-flight chunk fan-out against the providers. Large objects stream:
// PutReader and GetReader split the body into erasure-coded stripes so
// the serving path never buffers a whole object.
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
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

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
	// ListResult is one page of a container listing.
	ListResult = engine.ListResult
	// ListOptions parameterize one page of a listing: prefix filter,
	// cursor (ListResult.Next / JobList.Next) and page size (0 = the
	// deployment's default and maximum, 1000).
	ListOptions = engine.ListOptions
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
	// RetiredStats is the background reaper's backlog (GET /v1/stats):
	// superseded versions whose chunks are not deleted yet, their stored
	// bytes, and the versions open reads pin.
	RetiredStats = engine.RetiredStats
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
	ErrObjectNotFound     = engine.ErrObjectNotFound
	ErrPreconditionFailed = engine.ErrPreconditionFailed
	ErrInvalidArgument    = engine.ErrInvalidArgument
	// ErrJobNotFound (an ErrObjectNotFound), ErrProviderExists (an
	// ErrPreconditionFailed) and ErrInvalidRule (an ErrInvalidArgument)
	// refine the sentinel they wrap.
	ErrJobNotFound          = engine.ErrJobNotFound
	ErrProviderExists       = engine.ErrProviderExists
	ErrInvalidRule          = engine.ErrInvalidRule
	ErrNotEnoughChunks      = engine.ErrNotEnoughChunks
	ErrChecksum             = engine.ErrChecksum
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

// Options configures a broker deployment. It is the engine's own
// configuration: a custom provider market is Options.Registry.
type Options = engine.Config

// API is the v1 contract: every operation that has a v1 route, with one
// shape — ctx first, error last, wire types in and out. The broker owns
// what each operation means; *Client is the Go-call codec of this
// interface, engine.Gateway the HTTP codec and *client.Client its
// inverse. One conformance suite (internal/apitest) runs against all of
// them. Failures wrap the sentinel errors of this package, identically
// on every transport.
//
// An ETag names the write, not the bytes: every PUT, completed upload and
// part attempt gets a new one, even for identical bytes, and repair and
// migration keep it, so If-Match and If-None-Match hold across
// maintenance. The body's digest is its CRC-32C (ObjectMeta.CRC32C; on the
// wire X-Checksum-CRC32C, which a PUT may send to have its bytes checked).
//
// A container name is non-empty and holds no '|' or '/'; keys keep every
// character. Every operation that names a container — PutReader,
// GetReader, GetRange, Head, DeleteIf, List, CreateUpload and
// SetContainerRule — fails with ErrInvalidArgument for any other name.
type API interface {
	// PutReader stores or updates an object streamed from r. size must be
	// the exact body length; at most the write pipeline's depth of stripes
	// is buffered at a time, so arbitrarily large objects upload in bounded
	// memory. Cancelling ctx aborts the in-flight chunk fan-out and rolls
	// back written chunks.
	PutReader(ctx context.Context, container, key string, r io.Reader, size int64, opts ...PutOption) (ObjectMeta, error)
	// GetReader fetches an object as a stream: each stripe is served from
	// the stripe cache or reconstructed from the m cheapest reachable
	// providers, while the next stripes prefetch in the background. The
	// caller must Close the reader.
	GetReader(ctx context.Context, container, key string) (io.ReadCloser, ObjectMeta, error)
	// GetRange fetches the byte range [offset, offset+length) as a stream.
	// The range maps onto whole stripes, so only the stripes it overlaps
	// are consulted in the cache or fetched. length is clamped to the
	// object end and -1 means "to the end"; length 0 or a negative offset
	// fails with ErrInvalidArgument, a range starting at or past the end
	// with ErrRangeNotSatisfiable. The caller must Close the reader.
	GetRange(ctx context.Context, container, key string, offset, length int64) (io.ReadCloser, ObjectMeta, error)
	// Head fetches an object's metadata only.
	Head(ctx context.Context, container, key string) (ObjectMeta, error)
	// DeleteIf removes an object, if ifMatch is non-empty only when its
	// stored ETag matches ("*" = any existing version).
	DeleteIf(ctx context.Context, container, key, ifMatch string) error
	// List returns one page of a container's keys, sorted. It reads the
	// rows Head reads, resolved as Head resolves them: a listed key is one
	// Head finds.
	List(ctx context.Context, container string, opts ListOptions) (ListResult, error)

	// CreateUpload opens a resumable multipart upload. The placement —
	// provider set and erasure threshold — is planned once, using sizeHint
	// (0 = unknown) as the cost-model input, and every part inherits it.
	// Stream the parts with UploadPart (each except the final one a whole
	// multiple of Stats.StripeBytes), then CompleteUpload with the part
	// list; a dropped connection costs only the part it interrupted.
	CreateUpload(ctx context.Context, container, key string, sizeHint int64, opts ...PutOption) (UploadInfo, error)
	// UploadPart streams one part of an open upload through the write
	// pipeline. size must be the exact part length; re-sending a part
	// number replaces the earlier attempt.
	UploadPart(ctx context.Context, up UploadInfo, partNumber int, r io.Reader, size int64) (PartInfo, error)
	// ListParts reports an open upload's staged parts, sorted by number —
	// what survived a dropped connection.
	ListParts(ctx context.Context, up UploadInfo) ([]PartInfo, error)
	// CompleteUpload assembles the staged parts into the live object
	// version in one metadata commit — no chunk data moves. parts must
	// name every part, consecutively from 1; a mismatch fails with
	// ErrInvalidArgument and leaves the upload open for a retry.
	CompleteUpload(ctx context.Context, up UploadInfo, parts []CompletedPart) (ObjectMeta, error)
	// AbortUpload tears an upload down and garbage-collects every staged
	// part's chunks.
	AbortUpload(ctx context.Context, up UploadInfo) error

	// Providers lists the provider market with availability and usage.
	Providers(ctx context.Context) ([]ProviderStatus, error)
	// AddProvider registers a simulated provider at runtime (the paper's
	// CheapStor scenario); existing objects migrate when the optimizer
	// finds the new market cheaper. It never replaces a live backend: a
	// name already in the market fails with ErrProviderExists.
	AddProvider(ctx context.Context, spec Provider) error
	// RemoveProvider deregisters a provider (market exit); an unknown name
	// fails with ErrObjectNotFound.
	RemoveProvider(ctx context.Context, name string) error
	// SetProviderAvailable injects or clears a transient provider outage
	// and reports the market epoch the mutation advanced the deployment
	// to. Unknown providers fail with ErrUnknownProvider, backends without
	// failure injection with ErrUnsupportedMutation.
	SetProviderAvailable(ctx context.Context, name string, up bool) (ProviderMutation, error)
	// SetProviderPricing replaces a provider's price sheet — the paper's
	// market price event: later placements plan against the new prices and
	// the objects placed on the provider are re-planned. Error contract as
	// SetProviderAvailable.
	SetProviderPricing(ctx context.Context, name string, p Pricing) (ProviderMutation, error)
	// SetContainerRule pins a placement rule to a container; a malformed
	// rule fails with ErrInvalidRule.
	SetContainerRule(ctx context.Context, container string, r Rule) error

	// Optimize runs one optimization round (leader election, trend-gated
	// recomputation, cost-justified migration) and returns its report.
	// Large deployments should prefer StartOptimize and WaitForJob.
	Optimize(ctx context.Context) (OptimizeReport, error)
	// Repair scans for objects with chunks at unreachable providers and
	// applies the policy; the pass costs O(affected), not O(store).
	Repair(ctx context.Context, policy RepairPolicy) (RepairReport, error)
	// StartOptimize dispatches an asynchronous optimization round and
	// returns its job resource immediately; poll with Job.
	StartOptimize(ctx context.Context) (Job, error)
	// StartRepair dispatches an asynchronous repair pass.
	StartRepair(ctx context.Context, policy RepairPolicy) (Job, error)
	// Job returns one maintenance job: state, live progress, and the
	// final report once the pass finishes; an unknown ID fails with
	// ErrJobNotFound.
	Job(ctx context.Context, id string) (Job, error)
	// Jobs returns one page of the deployment's maintenance jobs, in
	// creation order.
	Jobs(ctx context.Context, opts ListOptions) (JobList, error)
	// Stats returns the deployment's operational counters.
	Stats(ctx context.Context) (Stats, error)
}

var _ API = (*Client)(nil)

// Helpers is the derived part of the v1 surface: conveniences that are
// loops or wrappers over API methods, written once and embedded by both
// *Client and *client.Client.
type Helpers struct{ API API }

// Put stores or updates an object from an in-memory payload.
func (h Helpers) Put(ctx context.Context, container, key string, data []byte, opts ...PutOption) (ObjectMeta, error) {
	return h.API.PutReader(ctx, container, key, bytes.NewReader(data), int64(len(data)), opts...)
}

// Get fetches an object fully buffered, with its metadata.
func (h Helpers) Get(ctx context.Context, container, key string) ([]byte, ObjectMeta, error) {
	rc, meta, err := h.API.GetReader(ctx, container, key)
	if err != nil {
		return nil, ObjectMeta{}, err
	}
	defer rc.Close()
	data, err := engine.ReadSized(rc, meta.Size)
	if err != nil {
		return nil, ObjectMeta{}, err
	}
	return data, meta, nil
}

// Delete removes an object.
func (h Helpers) Delete(ctx context.Context, container, key string) error {
	return h.API.DeleteIf(ctx, container, key, "")
}

// ListAll walks every page and returns the container's full key set.
func (h Helpers) ListAll(ctx context.Context, container, prefix string) ([]string, error) {
	var keys []string
	opts := ListOptions{Prefix: prefix}
	for {
		page, err := h.API.List(ctx, container, opts)
		if err != nil {
			return nil, err
		}
		keys = append(keys, page.Keys...)
		if !page.Truncated {
			return keys, nil
		}
		opts.After = page.Next
	}
}

// ErrJobFailed wraps the message of a maintenance job that finished in
// the failed state (WaitForJob).
var ErrJobFailed = errors.New("scalia: maintenance job failed")

// WaitForJob polls a job every interval (default 50ms when <= 0) until
// it leaves the running state or ctx is cancelled. A job that finishes
// in the failed state is returned with an error wrapping ErrJobFailed.
func (h Helpers) WaitForJob(ctx context.Context, id string, interval time.Duration) (Job, error) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	for {
		job, err := h.API.Job(ctx, id)
		if err != nil {
			return job, err
		}
		switch job.State {
		case JobDone:
			return job, nil
		case JobFailed:
			return job, fmt.Errorf("%w: job %s: %s", ErrJobFailed, id, job.Error)
		}
		select {
		case <-ctx.Done():
			return job, ctx.Err()
		case <-time.After(interval):
		}
	}
}

// Client is an embedded Scalia deployment: the Go-call codec of API over
// a broker it owns, plus the embedded-only controls below the contract
// methods. It is safe for concurrent use.
type Client struct {
	Helpers
	broker *engine.Broker
}

// New builds a broker deployment.
func New(opts Options) (*Client, error) {
	if opts.DefaultRule.LockIn != 0 {
		if err := opts.DefaultRule.Validate(); err != nil {
			return nil, err
		}
	}
	c := &Client{broker: engine.NewBroker(opts)}
	c.Helpers = Helpers{API: c}
	return c, nil
}

// ServerOptions is the deployment cmd/scalia-server runs when no flag
// says otherwise — and therefore the one scalia-loadgen -spawn boots, so
// an in-process load test measures the configuration a server would run.
func ServerOptions() Options {
	return Options{
		EnginesPerDC: 2,
		CacheBytes:   256 << 20,
		PeriodHours:  1,
		StripeBytes:  engine.DefaultStripeBytes,
		ReoptWorkers: 2,
		Clock:        engine.NewWallClock(1),
	}
}

// Close stops the deployment's background work, async jobs included,
// and waits for it. It deregisters the private resources, which ends
// their health loops.
func (c *Client) Close() {
	c.broker.Close()
	reg := c.broker.Registry()
	for _, s := range reg.Snapshot() {
		if _, private := s.(*privstore.Backend); private {
			reg.Deregister(s.Spec().Name)
		}
	}
}

// engine returns the next engine round-robin, matching the paper's
// "requests are routed to all datacenters indifferently". The counter
// lives on the broker and is shared with the HTTP gateway, so mixed
// embedded/remote traffic spreads evenly.
func (c *Client) engine() *engine.Engine { return c.broker.NextEngine() }

// PutOption customizes a write (PutReader, Put, CreateUpload), on either
// transport.
type PutOption func(*engine.PutOptions)

// PutOptionsOf folds write options into the value the engine — or the
// remote client's header encoder — takes.
func PutOptionsOf(opts []PutOption) engine.PutOptions {
	var po engine.PutOptions
	for _, opt := range opts {
		opt(&po)
	}
	return po
}

// WithMIME sets the object's MIME type (classification input).
func WithMIME(mime string) PutOption {
	return func(o *engine.PutOptions) { o.MIME = mime }
}

// WithTTL hints the object's expected lifetime in hours; it must be
// finite and non-negative.
func WithTTL(hours float64) PutOption {
	return func(o *engine.PutOptions) { o.TTLHours = hours }
}

// WithRule pins a placement rule for this object. The version keeps it:
// optimize, repair and the event drain honour it, and an overwrite without
// it follows the container's rule. It has no wire form: the remote client
// refuses it with ErrInvalidArgument.
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
// ErrPreconditionFailed when the object already exists (the wire's
// If-None-Match: *).
func WithIfAbsent() PutOption {
	return func(o *engine.PutOptions) { o.IfAbsent = true }
}

// --- the contract, as Go calls (documented on API) ---

func (c *Client) PutReader(ctx context.Context, container, key string, r io.Reader, size int64, opts ...PutOption) (ObjectMeta, error) {
	return c.engine().PutReader(ctx, container, key, r, size, PutOptionsOf(opts))
}

func (c *Client) GetReader(ctx context.Context, container, key string) (io.ReadCloser, ObjectMeta, error) {
	return c.engine().GetReader(ctx, container, key)
}

func (c *Client) GetRange(ctx context.Context, container, key string, offset, length int64) (io.ReadCloser, ObjectMeta, error) {
	return c.engine().GetRangeReader(ctx, container, key, offset, length)
}

func (c *Client) Head(ctx context.Context, container, key string) (ObjectMeta, error) {
	return c.engine().Head(ctx, container, key)
}

func (c *Client) DeleteIf(ctx context.Context, container, key, ifMatch string) error {
	return c.engine().DeleteIf(ctx, container, key, ifMatch)
}

func (c *Client) List(ctx context.Context, container string, opts ListOptions) (ListResult, error) {
	return c.engine().List(ctx, container, opts)
}

func (c *Client) CreateUpload(ctx context.Context, container, key string, sizeHint int64, opts ...PutOption) (UploadInfo, error) {
	return c.engine().CreateUpload(ctx, container, key, sizeHint, PutOptionsOf(opts))
}

func (c *Client) UploadPart(ctx context.Context, up UploadInfo, partNumber int, r io.Reader, size int64) (PartInfo, error) {
	return c.engine().UploadPart(ctx, up.UploadID, partNumber, r, size)
}

func (c *Client) ListParts(ctx context.Context, up UploadInfo) ([]PartInfo, error) {
	_, parts, err := c.engine().ListParts(ctx, up.UploadID)
	return parts, err
}

func (c *Client) CompleteUpload(ctx context.Context, up UploadInfo, parts []CompletedPart) (ObjectMeta, error) {
	return c.engine().CompleteUpload(ctx, up.UploadID, parts)
}

func (c *Client) AbortUpload(ctx context.Context, up UploadInfo) error {
	return c.engine().AbortUpload(ctx, up.UploadID)
}

func (c *Client) Providers(ctx context.Context) ([]ProviderStatus, error) {
	return c.broker.Providers(), nil
}

func (c *Client) AddProvider(ctx context.Context, spec Provider) error {
	return c.broker.AddProvider(spec)
}

func (c *Client) RemoveProvider(ctx context.Context, name string) error {
	return c.broker.RemoveProvider(name)
}

func (c *Client) SetProviderAvailable(ctx context.Context, name string, up bool) (ProviderMutation, error) {
	return c.broker.SetProviderAvailable(name, up)
}

func (c *Client) SetProviderPricing(ctx context.Context, name string, p Pricing) (ProviderMutation, error) {
	return c.broker.SetProviderPricing(name, p)
}

func (c *Client) SetContainerRule(ctx context.Context, container string, r Rule) error {
	return c.broker.SetContainerRule(container, r)
}

func (c *Client) Optimize(ctx context.Context) (OptimizeReport, error) {
	return c.broker.Optimize(ctx)
}

func (c *Client) Repair(ctx context.Context, policy RepairPolicy) (RepairReport, error) {
	return c.broker.Repair(ctx, policy)
}

func (c *Client) StartOptimize(ctx context.Context) (Job, error) {
	return c.broker.StartOptimize(), nil
}

func (c *Client) StartRepair(ctx context.Context, policy RepairPolicy) (Job, error) {
	return c.broker.StartRepair(policy), nil
}

func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	return c.broker.Job(id)
}

func (c *Client) Jobs(ctx context.Context, opts ListOptions) (JobList, error) {
	return c.broker.Jobs(opts), nil
}

func (c *Client) Stats(ctx context.Context) (Stats, error) {
	return c.broker.DeploymentStats(), nil
}

// --- embedded-only control ---

// SetDefaultRule replaces the default placement rule.
func (c *Client) SetDefaultRule(r Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	c.broker.Rules().SetDefault(r)
	return nil
}

// AddPrivateResource registers a corporate private storage resource
// served by a privstore web service (§III-E). The spec carries the
// resource's capacity and prices; requests are HMAC-signed with token.
// A spec the planner cannot plan with (cloud.Spec.Validate) registers
// nothing and fails with ErrInvalidArgument.
func (c *Client) AddPrivateResource(baseURL string, token []byte, spec Provider) error {
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidArgument, err)
	}
	client := privstore.NewClient(baseURL, token)
	c.broker.Registry().Register(privstore.NewBackend(client, spec))
	return nil
}

// NewPrivateStoreServer creates the standalone web service that exposes
// a local directory as an authenticated private storage resource; serve
// it with net/http and register it via AddPrivateResource.
func NewPrivateStoreServer(dir string, token []byte, capacityBytes int64) (*privstore.Server, error) {
	return privstore.NewServer(dir, token, capacityBytes)
}

// DrainMaintenance synchronously re-plans the objects queued by market
// events in one pass over every engine and returns how many; what
// a pass cut short by ctx did not get through stays queued. Deployments with
// Options.ReoptWorkers > 0 drain in the background and rarely need this.
func (c *Client) DrainMaintenance(ctx context.Context) int {
	return c.broker.DrainMaintenance(ctx)
}

// ProcessPendingDeletes is the settle point of deletion. An overwrite or
// delete returns once its metadata has replicated; the superseded
// version's chunks are deleted in the background, after the last open
// read of it is closed. This call returns when every such version no
// read holds is gone from the reachable providers and the deletions
// postponed during provider outages have been retried, and reports how
// many of the latter completed since the previous call.
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

// Broker exposes the underlying deployment for advanced integration
// (direct registry access, the Broker().Metrics() observability registry
// backing /metrics and /v1/stats).
func (c *Client) Broker() *engine.Broker { return c.broker }

// NewGateway wraps the deployment in the v1 HTTP interface (see
// engine.Gateway for the route table). Serve it with net/http; the
// scalia/client package speaks the matching wire protocol.
func (c *Client) NewGateway() *engine.Gateway { return engine.NewGateway(c.broker) }
