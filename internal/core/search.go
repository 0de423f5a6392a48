package core

import (
	"math"
	"sort"

	"scalia/internal/cloud"
	"scalia/internal/stats"
)

// Search is a prepared placement search: the feasibility work of
// Algorithm 1 that depends only on the rule and the provider market
// (zone filtering, lock-in, durability threshold, availability) is
// computed once; Best then applies the per-object constraints
// (chunk-size limits, remaining capacity) and re-prices the surviving
// candidates for any load. One prepared Search serves every object of a
// rule until the market changes, which is what keeps the periodic
// optimization procedure cheap at scale (§III-A3) — the Planner caches
// Searches per (market epoch, rule fingerprint).
type Search struct {
	periodHours float64

	// feasible holds the market-feasible candidate sets, sorted ascending
	// by storFloor so Best can stop scanning at the first candidate whose
	// load-independent lower bound already exceeds the best price found
	// (branch and bound).
	feasible []Placement
	// storFloor[i] is feasible[i]'s storage-cost floor per stored GB and
	// period-hour fraction: (Σ StorageGBMonth over the set) / m. Every
	// PeriodCost component except storage is ≥ 0, so
	// storFloor × storageGB × periodHours/HoursPerMonth lower-bounds the
	// candidate's price at ANY load.
	storFloor []float64
}

// NewSearch prepares the market-scoped part of Algorithm 1 for the
// given providers and rule. Per-object constraints (object size and
// free capacity) are deliberately not baked in — they are evaluated by
// Best, so one Search is shared across objects of any size.
func NewSearch(specs []cloud.Spec, rule Rule, opts Options) (*Search, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	if opts.PeriodHours <= 0 {
		opts.PeriodHours = 1
	}
	filtered := make([]cloud.Spec, 0, len(specs))
	for _, s := range specs {
		if s.ServesAny(rule.Zones) {
			filtered = append(filtered, s)
		}
	}
	sort.Slice(filtered, func(i, j int) bool { return filtered[i].Name < filtered[j].Name })

	s := &Search{periodHours: opts.PeriodHours}
	n := len(filtered)
	pset := make([]cloud.Spec, 0, n)
	for mask := 1; mask < 1<<uint(n); mask++ {
		pset = pset[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				pset = append(pset, filtered[i])
			}
		}
		if 1.0/float64(len(pset)) > rule.LockIn+1e-12 {
			continue
		}
		th := FeasibleThreshold(pset, rule.Durability, rule.Availability)
		if th <= 0 {
			continue
		}
		s.feasible = append(s.feasible, Placement{
			Providers: append([]cloud.Spec(nil), pset...),
			M:         th,
		})
	}
	if len(s.feasible) == 0 {
		return nil, ErrNoProviders
	}
	// Order candidates by their load-independent storage floor so Best's
	// scan can branch-and-bound: once the floor exceeds the running best
	// price, no later candidate can win. Stable sort + name tie-break
	// keeps the scan order (and hence tieBreak resolution) deterministic.
	s.storFloor = make([]float64, len(s.feasible))
	for i, p := range s.feasible {
		var sum float64
		for _, spec := range p.Providers {
			sum += spec.Pricing.StorageGBMonth
		}
		s.storFloor[i] = sum / float64(p.M)
	}
	order := make([]int, len(s.feasible))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if s.storFloor[order[a]] != s.storFloor[order[b]] {
			return s.storFloor[order[a]] < s.storFloor[order[b]]
		}
		return tieBreak(s.feasible[order[a]], s.feasible[order[b]])
	})
	feas := make([]Placement, len(order))
	floors := make([]float64, len(order))
	for i, idx := range order {
		feas[i] = s.feasible[idx]
		floors[i] = s.storFloor[idx]
	}
	s.feasible, s.storFloor = feas, floors
	return s, nil
}

// Candidates returns the number of market-feasible placements.
func (s *Search) Candidates() int { return len(s.feasible) }

// Best returns the cheapest feasible placement for the load,
// applying the per-object chunk-size and capacity constraints
// (§III-A2) at evaluation time: objectBytes is the logical object size
// (zero skips the checks) and free caps the chunk a provider can
// accept (nil means uncapped). The returned Placement shares its
// Providers slice with the Search; callers must not mutate it.
func (s *Search) Best(load stats.Summary, objectBytes int64, free map[string]int64) Result {
	best := Result{Price: math.MaxFloat64}
	// Load-dependent scale of the per-candidate storage floor: floor(p) =
	// storFloor[p] × floorScale lower-bounds PeriodCost(p, load) because
	// every other cost component is non-negative.
	floorScale := load.StorageBytes / 1e9 * s.periodHours / cloud.HoursPerMonth
	for i, p := range s.feasible {
		if best.Feasible && s.storFloor[i]*floorScale > best.Price+1e-15 {
			// Candidates are sorted by storage floor: every remaining one
			// is bounded below the same way and cannot beat (or epsilon-tie)
			// the incumbent. This prune is what keeps Best cheap on large
			// markets — the exponential candidate list is scanned only up
			// to the bound.
			break
		}
		best.Evaluated++
		if !chunkFits(p.Providers, p.M, objectBytes, free) {
			continue
		}
		price := PeriodCost(p, load, s.periodHours)
		if !best.Feasible || price < best.Price-1e-15 ||
			(math.Abs(price-best.Price) <= 1e-15 && tieBreak(p, best.Placement)) {
			best.Feasible = true
			best.Price = price
			best.Placement = p
		}
	}
	return best
}
