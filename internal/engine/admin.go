package engine

import (
	"fmt"

	"scalia/internal/cache"
	"scalia/internal/cloud"
	"scalia/internal/core"
)

// This file is the broker's side of the v1 admin operations: what each
// one means. The embedded facade and the HTTP gateway both call these
// methods and add nothing of their own.

// ProviderStatus describes one market participant (GET /v1/providers).
type ProviderStatus struct {
	cloud.Spec
	Available bool  `json:"available"`
	UsedBytes int64 `json:"usedBytes"`
}

// Providers lists the provider market, sorted by name.
func (b *Broker) Providers() []ProviderStatus {
	stores := b.registry.Snapshot()
	out := make([]ProviderStatus, 0, len(stores))
	for _, s := range stores {
		out = append(out, ProviderStatus{
			Spec: s.Spec(), Available: s.Available(), UsedBytes: s.UsedBytes(),
		})
	}
	return out
}

// ErrProviderExists is returned by AddProvider for a name already in the
// market. It wraps ErrPreconditionFailed.
var ErrProviderExists = fmt.Errorf("%w: provider is already registered", ErrPreconditionFailed)

// AddProvider registers a simulated storage provider at runtime (the
// paper's CheapStor scenario). It only ever adds: replacing a live
// backend would orphan every chunk stored at it, so a name already in
// the market fails with ErrProviderExists.
func (b *Broker) AddProvider(spec cloud.Spec) error {
	if spec.Name == "" {
		return fmt.Errorf("%w: provider name is required", ErrInvalidArgument)
	}
	if !b.registry.RegisterIfAbsent(cloud.NewBlobStore(spec)) {
		return fmt.Errorf("%w: %s", ErrProviderExists, spec.Name)
	}
	return nil
}

// RemoveProvider deregisters a provider (market exit). An unknown name
// fails with ErrObjectNotFound.
func (b *Broker) RemoveProvider(name string) error {
	if _, ok := b.registry.Deregister(name); !ok {
		return fmt.Errorf("%w: unknown provider %s", ErrObjectNotFound, name)
	}
	return nil
}

// ProviderMutation is the reply of both provider-mutation operations
// (PUT /v1/providers/{name}/availability and .../pricing): the provider
// acted on, which field changed, its new value, and the market epoch the
// mutation advanced the registry to — so a caller can correlate the
// event with subsequent placement decisions and stats.
type ProviderMutation struct {
	Provider string `json:"provider"`
	// Epoch is the market epoch after the mutation; every cached
	// placement search from before it is now invalid.
	Epoch uint64 `json:"epoch"`
	// Field names the mutated attribute: "availability" or "pricing".
	Field     string         `json:"field"`
	Available *bool          `json:"available,omitempty"`
	Pricing   *cloud.Pricing `json:"pricing,omitempty"`
}

// SetProviderAvailable injects or clears a transient outage on a
// provider that supports failure injection — scripted chaos. The flip
// goes through the registry, so the market epoch bumps, cached placement
// searches are invalidated and the maintenance queue sees the event.
// Unknown providers fail with cloud.ErrUnknownProvider, backends without
// failure injection (remote private resources) with
// cloud.ErrUnsupportedMutation.
func (b *Broker) SetProviderAvailable(name string, up bool) (ProviderMutation, error) {
	epoch, err := b.registry.UpdateAvailability(name, up)
	if err != nil {
		return ProviderMutation{}, err
	}
	return ProviderMutation{Provider: name, Epoch: epoch, Field: "availability", Available: &up}, nil
}

// SetProviderPricing replaces a provider's price sheet at runtime — the
// paper's provider "suddenly increasing its pricing policy". The market
// epoch bumps, so later placements plan against the new prices and the
// maintenance queue re-plans the objects placed on the provider. Error
// contract as SetProviderAvailable.
func (b *Broker) SetProviderPricing(name string, p cloud.Pricing) (ProviderMutation, error) {
	epoch, err := b.registry.UpdatePricing(name, p)
	if err != nil {
		return ProviderMutation{}, err
	}
	return ProviderMutation{Provider: name, Epoch: epoch, Field: "pricing", Pricing: &p}, nil
}

// ErrInvalidRule marks a malformed placement rule arriving through the
// API. It wraps ErrInvalidArgument; errors carrying it also wrap the
// core validation error that says what is wrong.
var ErrInvalidRule = fmt.Errorf("%w: invalid rule", ErrInvalidArgument)

// validRule validates a caller-supplied rule.
func validRule(r core.Rule) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidRule, err)
	}
	return nil
}

// SetContainerRule pins a valid placement rule to a validly named container.
func (b *Broker) SetContainerRule(container string, r core.Rule) error {
	if err := validContainer(container); err != nil {
		return err
	}
	if err := validRule(r); err != nil {
		return err
	}
	b.rules.SetContainerRule(container, r)
	return nil
}

// Stats is the operational counter snapshot served on GET /v1/stats.
type Stats struct {
	// Planner reports the shared placement planner's prepared-search
	// cache hits and misses (process lifetime).
	Planner core.PlannerStats `json:"planner"`
	// Optimizer accumulates the periodic optimization rounds.
	Optimizer OptimizeTotals `json:"optimizer"`
	// Repair accumulates the repair passes: how many objects were fixed
	// by a same-(m,n) chunk swap versus a full re-stripe, how many were
	// skipped, and the replacement chunks/bytes written.
	Repair RepairTotals `json:"repair"`
	// Usage and CostUSD aggregate billed resources across providers.
	Usage   cloud.Usage `json:"usage"`
	CostUSD float64     `json:"costUSD"`
	// StripeCache aggregates the stripe-granular read cache across all
	// datacenters: hits, misses, evictions and the current footprint.
	StripeCache cache.Stats `json:"stripeCache"`
	// ReadPath reports the streaming read path: stripes served from
	// cache vs fetched, prefetch pipeline deliveries, and parallel-fetch
	// fallbacks onto spare providers.
	ReadPath ReadPathStats `json:"readPath"`
	// WritePath reports the streaming write path: configured pipeline
	// depth, stripes fanned out, write buffers in flight against the
	// shared budget (current and peak), and open multipart uploads.
	WritePath WritePathStats `json:"writePath"`
	// Maint reports the event-driven reoptimization queue: depth, worker
	// pool size, and the enqueue/drain/drop counters.
	Maint MaintStats `json:"maint"`

	Engines        int `json:"engines"`
	Providers      int `json:"providers"`
	PendingDeletes int `json:"pendingDeletes"`
	// Retired is the reaper's backlog: superseded versions whose chunks
	// are still at their providers, and the objects open reads pin.
	Retired RetiredStats `json:"retired"`
	// StripeBytes is the deployment's stripe size. Multipart callers
	// need it to build stripe-aligned non-final parts.
	StripeBytes int64 `json:"stripeBytes"`
}

// DeploymentStats assembles the operational counter snapshot.
func (b *Broker) DeploymentStats() Stats {
	return Stats{
		Planner:        b.planner.Stats(),
		Optimizer:      b.OptimizeTotals(),
		Repair:         b.RepairTotals(),
		Usage:          b.registry.TotalUsage(),
		CostUSD:        b.registry.TotalCost(),
		StripeCache:    b.caches.Stats(),
		ReadPath:       b.ReadStats(),
		WritePath:      b.WriteStats(),
		Maint:          b.MaintStats(),
		Engines:        len(b.engines),
		Providers:      b.registry.Len(),
		PendingDeletes: b.PendingDeletes(),
		Retired:        b.Retired(),
		StripeBytes:    b.cfg.StripeBytes,
	}
}
