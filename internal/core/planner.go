package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"scalia/internal/cloud"
	"scalia/internal/stats"
)

// Planner is the shared placement-planning layer: it caches prepared
// Searches keyed by (market epoch, rule fingerprint) so the
// market-scoped feasibility work of Algorithm 1 runs once per market
// change instead of once per object. The engine's Put path, the
// per-object decision step (Decider) behind the periodic optimizer, the
// event queue and the repair pass, and the cost simulator all plan
// through one Planner. It is safe
// for concurrent use: optimize and repair shards on many engines plan
// against the same instance.
type Planner struct {
	periodHours float64

	mu    sync.RWMutex
	epoch uint64
	cache map[ruleKey]plannerEntry // a rule's placement parameters -> prepared search

	hits   atomic.Uint64
	misses atomic.Uint64
}

// plannerEntry caches the prepared search or the preparation error
// (e.g. ErrNoProviders for a rule no market subset satisfies — caching
// the failure keeps repeated infeasible requests from re-enumerating).
type plannerEntry struct {
	search *Search
	err    error
}

// PlannerStats reports cache effectiveness counters. Hits and Misses
// are cumulative over the Planner's lifetime.
type PlannerStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// NewPlanner creates a planner. periodHours is the sampling-period
// length used for pricing (default 1). Trailing arguments are ignored:
// they keep callers built against the old two-argument signature
// compiling.
func NewPlanner(periodHours float64, _ ...bool) *Planner {
	if periodHours <= 0 {
		periodHours = 1
	}
	return &Planner{
		periodHours: periodHours,
		cache:       make(map[ruleKey]plannerEntry),
	}
}

// Search returns the prepared search for the rule on the market
// identified by epoch, preparing (and caching) it on first use. specs
// must be the market's available providers at that epoch; a changed
// epoch invalidates every cached search.
func (p *Planner) Search(epoch uint64, specs []cloud.Spec, rule Rule) (*Search, error) {
	key := keyOf(rule)

	p.mu.RLock()
	if p.epoch == epoch {
		if e, ok := p.cache[key]; ok {
			p.mu.RUnlock()
			p.hits.Add(1)
			return e.search, e.err
		}
	}
	p.mu.RUnlock()

	// Prepare outside the lock: NewSearch is the expensive exponential
	// enumeration and must not serialize concurrent shards.
	search, err := NewSearch(specs, rule, Options{PeriodHours: p.periodHours})
	p.misses.Add(1)

	p.mu.Lock()
	if p.epoch != epoch {
		// Either the market moved on (our result is stale — return it for
		// this call but don't poison the cache with it) or the cache holds
		// an older epoch (reset it before storing).
		if epochNewer(epoch, p.epoch) {
			p.epoch = epoch
			p.cache = map[ruleKey]plannerEntry{key: {search: search, err: err}}
		}
		p.mu.Unlock()
		return search, err
	}
	if e, ok := p.cache[key]; ok {
		// A concurrent caller prepared the same search first; converge on
		// the cached instance so every shard shares one Search.
		p.mu.Unlock()
		return e.search, e.err
	}
	p.cache[key] = plannerEntry{search: search, err: err}
	p.mu.Unlock()
	return search, err
}

// ruleKey is what Rule.Fingerprint spells out — a rule's
// placement-relevant parameters — as a comparable value, so a cache hit
// formats no string: the floats by their bits (which tell apart whatever
// the fingerprint's round-trip formatting does), the zones sorted. A rule
// with more zones than the array holds keys by its fingerprint instead.
type ruleKey struct {
	durability, availability, lockIn uint64
	zones                            [4]cloud.Zone
	nZones                           int
	fingerprint                      string
}

func keyOf(r Rule) ruleKey {
	k := ruleKey{
		durability:   math.Float64bits(r.Durability),
		availability: math.Float64bits(r.Availability),
		lockIn:       math.Float64bits(r.LockIn),
		nZones:       len(r.Zones),
	}
	if len(r.Zones) > len(k.zones) {
		k.fingerprint = r.Fingerprint()
		return k
	}
	copy(k.zones[:], r.Zones)
	slices.Sort(k.zones[:k.nZones])
	return k
}

// epochNewer reports whether a is a later epoch than b. Registry epochs
// increase monotonically; the comparison only matters when a planner is
// fed from one registry, where wraparound is unreachable.
func epochNewer(a, b uint64) bool { return a > b }

// Best plans the cheapest feasible placement for one object: it
// resolves the prepared search for (epoch, rule) and evaluates it under
// the object's load, size and the market's free-capacity map. The
// returned Placement owns its Providers slice — unlike Search.Best, the
// result does not alias the cached feasible set, so callers (and the
// public API surfaces the engine forwards it to) may hold or mutate it
// freely.
func (p *Planner) Best(epoch uint64, specs []cloud.Spec, rule Rule,
	load stats.Summary, objectBytes int64, free map[string]int64) (Result, error) {
	search, err := p.Search(epoch, specs, rule)
	if err != nil {
		return Result{}, err
	}
	res := search.Best(load, objectBytes, free)
	if !res.Feasible {
		return Result{Evaluated: res.Evaluated}, ErrNoProviders
	}
	res.Placement.Providers = append([]cloud.Spec(nil), res.Placement.Providers...)
	return res, nil
}

// Stats returns the cumulative cache hit/miss counters.
func (p *Planner) Stats() PlannerStats {
	return PlannerStats{Hits: p.hits.Load(), Misses: p.misses.Load()}
}
