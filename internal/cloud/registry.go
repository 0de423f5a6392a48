package cloud

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Typed errors for the admin mutation surface: callers can distinguish
// a name that is not in the market from a backend that exists but does
// not support the requested mutation (remote private resources have no
// injectable outage, mutable price sheet or notifier back-reference).
var (
	ErrUnknownProvider     = errors.New("cloud: unknown provider")
	ErrUnsupportedMutation = errors.New("cloud: provider does not support this mutation")
)

// MarketEvent is one market change with provider identity — the signal
// behind event-driven maintenance. Epoch is the market epoch after the
// change.
type MarketEvent struct {
	Epoch    uint64 `json:"epoch"`
	Provider string `json:"provider,omitempty"`
}

// Backend is a storage provider attached to the registry: the blob
// Store operations plus the descriptive surface the placement engine
// needs. In-memory simulated providers (*BlobStore) and remote private
// resources (privstore.Backend) both implement it.
type Backend interface {
	Store
	// Spec returns the provider description and price sheet.
	Spec() Spec
	// Available reports whether the provider is currently reachable.
	Available() bool
	// UsedBytes returns the stored byte volume (capacity accounting).
	UsedBytes() int64
}

// Meterer is implemented by backends that meter billable usage.
type Meterer interface {
	Meter() *Meter
}

// StorageAccruer is implemented by backends whose storage billing is
// advanced by simulated time.
type StorageAccruer interface {
	AccrueStorage(hours float64)
}

// AvailabilitySetter is implemented by backends supporting failure
// injection.
type AvailabilitySetter interface {
	SetAvailable(up bool)
}

// PricingSetter is implemented by backends whose price sheet can change
// at runtime (simulated providers support scripted market price
// events); remote private resources have no mutable price sheet.
type PricingSetter interface {
	SetPricing(p Pricing)
}

// ChangeNotifierSetter is implemented by backends that accept a
// registry back-reference: the registry installs a notifier at
// Register time, and the backend calls it whenever its availability
// or price sheet changes. It is the one way a provider change advances
// the market epoch: the registry mutates only backends that notify.
type ChangeNotifierSetter interface {
	SetChangeNotifier(fn func())
}

// notifyingAvailabilitySetter and notifyingPricingSetter are the
// backends Registry.UpdateAvailability and UpdatePricing accept.
type (
	notifyingAvailabilitySetter interface {
		AvailabilitySetter
		ChangeNotifierSetter
	}
	notifyingPricingSetter interface {
		PricingSetter
		ChangeNotifierSetter
	}
)

// Registry is the dynamic, non-static set of storage resources Scalia
// orchestrates (public providers plus private resources, §III). Providers
// can be registered and deregistered at runtime; the placement engine
// reads a consistent snapshot each time it optimizes, which is how the
// CheapStor-arrival experiment (§IV-D) and provider bankruptcy are
// modelled.
type Registry struct {
	mu     sync.RWMutex
	stores map[string]Backend
	// epoch increases monotonically on every market change (Register,
	// Deregister, UpdateAvailability). Placement planners key their
	// prepared searches on it: an unchanged epoch means the feasible-set
	// work of Algorithm 1 is still valid.
	epoch uint64
	// snap caches the available-provider view for the current epoch.
	snap *marketSnapshot
	// subscribers receive every MarketEvent, called synchronously
	// outside the registry lock after the epoch bump. Callbacks must be
	// fast and non-blocking; the engine's maintenance queue uses one to
	// enqueue invalidated objects.
	subscribers []func(MarketEvent)
}

// marketSnapshot is the immutable available-provider view at one epoch.
// Callers receive the specs slice directly and must not mutate it.
type marketSnapshot struct {
	epoch  uint64
	specs  []Spec    // available providers, sorted by name
	capped []Backend // available capacity-bounded backends (free bytes vary per call)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{stores: make(map[string]Backend)}
}

// NewPaperRegistry returns a registry pre-populated with the five Fig. 3
// providers.
func NewPaperRegistry() *Registry {
	r := NewRegistry()
	for _, spec := range PaperProviders() {
		r.Register(NewBlobStore(spec))
	}
	return r
}

// Register adds a provider. Registering an existing name replaces its
// spec (a provider "suddenly increasing its pricing policy").
func (r *Registry) Register(s Backend) {
	name := s.Spec().Name
	r.attach(s)
	r.mu.Lock()
	old := r.stores[name]
	r.stores[name] = s
	r.bumpEpochLocked()
	epoch := r.epoch
	r.mu.Unlock()
	if old != nil && old != s {
		if n, ok := old.(ChangeNotifierSetter); ok {
			n.SetChangeNotifier(nil) // the replaced backend is detached
		}
	}
	r.emit(MarketEvent{Epoch: epoch, Provider: name})
}

// attach installs the registry back-reference on backends that support
// it, so a change on the backend bumps the market epoch. The closure
// captures the provider name: changes arrive as named MarketEvents,
// which is what lets the maintenance queue invalidate only the affected
// objects.
func (r *Registry) attach(s Backend) {
	if n, ok := s.(ChangeNotifierSetter); ok {
		name := s.Spec().Name
		n.SetChangeNotifier(func() { r.noteBackendChange(name) })
	}
}

// noteBackendChange records a backend state change: advance the market
// epoch and emit a named MarketEvent. It is the callback handed to
// ChangeNotifierSetter backends (wrapped to capture the provider name).
func (r *Registry) noteBackendChange(name string) {
	r.mu.Lock()
	r.bumpEpochLocked()
	epoch := r.epoch
	r.mu.Unlock()
	r.emit(MarketEvent{Epoch: epoch, Provider: name})
}

// Subscribe registers fn to be called (synchronously, outside the
// registry lock) after every market change. Callbacks must not block:
// they run on whatever goroutine performed the mutation, including
// engine write paths that downed a provider mid-flight.
func (r *Registry) Subscribe(fn func(MarketEvent)) {
	r.mu.Lock()
	r.subscribers = append(r.subscribers, fn)
	r.mu.Unlock()
}

// emit delivers ev to every subscriber. Called outside r.mu.
func (r *Registry) emit(ev MarketEvent) {
	r.mu.RLock()
	subs := r.subscribers
	r.mu.RUnlock()
	for _, fn := range subs {
		fn(ev)
	}
}

// RegisterIfAbsent adds a provider only when its name is free,
// reporting whether it was added. Unlike Register it never replaces a
// live backend — admin surfaces use it so a name collision cannot
// silently orphan the chunks stored at the existing provider.
func (r *Registry) RegisterIfAbsent(s Backend) bool {
	r.mu.Lock()
	name := s.Spec().Name
	if _, exists := r.stores[name]; exists {
		r.mu.Unlock()
		return false
	}
	r.stores[name] = s
	r.bumpEpochLocked()
	epoch := r.epoch
	r.mu.Unlock()
	r.attach(s)
	r.emit(MarketEvent{Epoch: epoch, Provider: name})
	return true
}

// Deregister removes a provider (business exit / boycott). The store is
// returned so callers can drain still-needed chunks.
func (r *Registry) Deregister(name string) (Backend, bool) {
	r.mu.Lock()
	s, ok := r.stores[name]
	var epoch uint64
	if ok {
		delete(r.stores, name)
		r.bumpEpochLocked()
		epoch = r.epoch
	}
	r.mu.Unlock()
	if ok {
		// Detach: a store outside the registry must not keep bumping the
		// market epoch.
		if n, isNotifiable := s.(ChangeNotifierSetter); isNotifiable {
			n.SetChangeNotifier(nil)
		}
		r.emit(MarketEvent{Epoch: epoch, Provider: name})
	}
	return s, ok
}

// UpdateAvailability injects or clears a transient outage on the named
// provider and reports the market epoch after the change. An unknown
// provider fails with ErrUnknownProvider, a backend without failure
// injection and a notifier back-reference with ErrUnsupportedMutation.
// The backend bumps the market epoch itself, exactly once and only when
// the state actually flips. The setter runs outside the registry lock:
// its notification re-enters the registry.
func (r *Registry) UpdateAvailability(name string, up bool) (uint64, error) {
	s, err := mutable[notifyingAvailabilitySetter](r, name, "no availability injection")
	if err != nil {
		return r.Epoch(), err
	}
	s.SetAvailable(up)
	return r.Epoch(), nil
}

// UpdatePricing replaces the named provider's price sheet at runtime
// and reports the market epoch after the change. Errors, epoch
// bookkeeping and locking mirror UpdateAvailability.
func (r *Registry) UpdatePricing(name string, p Pricing) (uint64, error) {
	s, err := mutable[notifyingPricingSetter](r, name, "no mutable price sheet")
	if err != nil {
		return r.Epoch(), err
	}
	s.SetPricing(p)
	return r.Epoch(), nil
}

// mutable returns the named provider as a T, the mutation surface an
// admin update needs.
func mutable[T any](r *Registry, name, lacks string) (T, error) {
	r.mu.RLock()
	s, ok := r.stores[name]
	r.mu.RUnlock()
	var t T
	if !ok {
		return t, fmt.Errorf("%w: %s", ErrUnknownProvider, name)
	}
	t, ok = s.(T)
	if !ok {
		return t, fmt.Errorf("%w: %s has %s", ErrUnsupportedMutation, name, lacks)
	}
	return t, nil
}

// Epoch returns the current market epoch. The epoch increases on every
// Register, Deregister, UpdateAvailability and UpdatePricing, and on any
// other change a backend reports; two equal epochs guarantee the
// available-provider market and its prices have not changed through the
// registry.
func (r *Registry) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// bumpEpochLocked advances the market epoch and drops the cached
// snapshot. Callers hold r.mu.
func (r *Registry) bumpEpochLocked() {
	r.epoch++
	r.snap = nil
}

// Market returns the epoch-cached view of the available market: the
// current epoch, the specs of reachable providers (sorted by name, the
// slice is shared — callers must not mutate it), and the free capacity
// of capacity-bounded providers (nil when the market has none, the
// common case). The specs slice is rebuilt only when the epoch changes;
// free bytes are recomputed per call because they move with every write.
//
// Availability flipped directly on a backend (bypassing
// Registry.UpdateAvailability) is not visible until the next epoch bump;
// write paths must re-verify reachability of chosen providers, which
// Planner.BestAlive's re-plan does (§III-D3).
func (r *Registry) Market() (epoch uint64, specs []Spec, free map[string]int64) {
	r.mu.RLock()
	snap := r.snap
	r.mu.RUnlock()
	if snap == nil {
		snap = r.rebuildSnapshot()
	}
	if len(snap.capped) > 0 {
		free = make(map[string]int64, len(snap.capped))
		for _, s := range snap.capped {
			spec := s.Spec()
			free[spec.Name] = spec.CapacityBytes - s.UsedBytes()
		}
	}
	return snap.epoch, snap.specs, free
}

// rebuildSnapshot recomputes the cached market view. Availability
// probes run outside the registry lock — a remote private resource
// answers them over HTTP and must not stall concurrent registry reads.
func (r *Registry) rebuildSnapshot() *marketSnapshot {
	r.mu.RLock()
	if r.snap != nil {
		snap := r.snap
		r.mu.RUnlock()
		return snap
	}
	epoch := r.epoch
	backends := make([]Backend, 0, len(r.stores))
	for _, s := range r.stores {
		backends = append(backends, s)
	}
	r.mu.RUnlock()

	sort.Slice(backends, func(i, j int) bool {
		return backends[i].Spec().Name < backends[j].Spec().Name
	})
	snap := &marketSnapshot{epoch: epoch}
	for _, s := range backends {
		if !s.Available() {
			continue
		}
		spec := s.Spec()
		snap.specs = append(snap.specs, spec)
		if spec.CapacityBytes > 0 {
			snap.capped = append(snap.capped, s)
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.epoch == epoch {
		if r.snap == nil {
			r.snap = snap
		}
		return r.snap
	}
	// The market moved while we probed: serve the view we built (it was
	// consistent at probe time) without caching it; the next call
	// rebuilds against the new epoch.
	return snap
}

// Store returns the provider with the given name.
func (r *Registry) Store(name string) (Backend, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.stores[name]
	return s, ok
}

// Snapshot returns the current provider set, sorted by name.
func (r *Registry) Snapshot() []Backend {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Backend, 0, len(r.stores))
	for _, s := range r.stores {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec().Name < out[j].Spec().Name })
	return out
}

// Specs returns the specs of all registered providers, sorted by name.
func (r *Registry) Specs() []Spec {
	stores := r.Snapshot()
	specs := make([]Spec, len(stores))
	for i, s := range stores {
		specs[i] = s.Spec()
	}
	return specs
}

// Len returns the number of registered providers.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.stores)
}

// TotalUsage sums the billing meters of all metered providers.
func (r *Registry) TotalUsage() Usage {
	var total Usage
	for _, s := range r.Snapshot() {
		if m, ok := s.(Meterer); ok {
			total.Add(m.Meter().Snapshot())
		}
	}
	return total
}

// TotalCost prices every metered provider's usage with its own sheet.
func (r *Registry) TotalCost() float64 {
	var cost float64
	for _, s := range r.Snapshot() {
		if m, ok := s.(Meterer); ok {
			cost += m.Meter().Snapshot().Cost(s.Spec().Pricing)
		}
	}
	return cost
}

// AccrueStorage advances simulated time by the given hours on every
// provider that meters storage.
func (r *Registry) AccrueStorage(hours float64) {
	for _, s := range r.Snapshot() {
		if a, ok := s.(StorageAccruer); ok {
			a.AccrueStorage(hours)
		}
	}
}
