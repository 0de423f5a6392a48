package core

import (
	"math"
	"sort"

	"scalia/internal/cloud"
	"scalia/internal/stats"
)

// BestPlacement implements Algorithm 1 literally: it enumerates every
// subset (getAllCombinations) and returns the cheapest provider set and
// erasure threshold satisfying the rule, pricing each candidate with the
// object's access history summary, at one-hour periods. objectBytes and
// free apply the chunk-size and capacity constraints (zero / nil skip
// them). Complexity O(2^|P|); the paper notes exact search is feasible
// for today's |P| < 15. It is the oracle the prepared Search and the
// Planner are held to; nothing outside the tests plans with it.
func BestPlacement(specs []cloud.Spec, rule Rule, load stats.Summary, objectBytes int64, free map[string]int64) (Result, error) {
	if err := rule.Validate(); err != nil {
		return Result{}, err
	}
	// Zone pre-filter: every chunk must live in an acceptable zone.
	filtered := make([]cloud.Spec, 0, len(specs))
	for _, s := range specs {
		if s.ServesAny(rule.Zones) {
			filtered = append(filtered, s)
		}
	}
	sort.Slice(filtered, func(i, j int) bool { return filtered[i].Name < filtered[j].Name })

	n := len(filtered)
	best := Result{Price: math.MaxFloat64}
	pset := make([]cloud.Spec, 0, n)
	for mask := 1; mask < 1<<uint(n); mask++ {
		pset = pset[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				pset = append(pset, filtered[i])
			}
		}
		best.Evaluated++
		evaluateCandidate(pset, rule, load, objectBytes, free, &best)
	}
	if !best.Feasible {
		return Result{Evaluated: best.Evaluated}, ErrNoProviders
	}
	return best, nil
}

// evaluateCandidate runs lines 5-16 of Algorithm 1 for one candidate set
// and updates best if the set is feasible and cheaper.
func evaluateCandidate(pset []cloud.Spec, rule Rule, load stats.Summary, objectBytes int64, free map[string]int64, best *Result) {
	// Line 5-6: lock-in filter. lockin(pset) = 1/|pset| must not exceed
	// the rule's lock-in factor.
	if 1.0/float64(len(pset)) > rule.LockIn+1e-12 {
		return
	}
	// Lines 7-10: durability threshold and availability filter, with m
	// lowered until both constraints hold (see FeasibleThreshold).
	th := FeasibleThreshold(pset, rule.Durability, rule.Availability)
	if th <= 0 {
		return
	}
	// Chunk-size and capacity constraints (§III-A2): with threshold th the
	// chunk size is ceil(size/th); providers that cannot hold it make the
	// set infeasible (the enumeration covers the exclusion alternative).
	if !chunkFits(pset, th, objectBytes, free) {
		return
	}
	// Line 11: expected price.
	p := Placement{Providers: append([]cloud.Spec(nil), pset...), M: th}
	price := PeriodCost(p, load, 1)
	if !best.Feasible || price < best.Price-1e-15 ||
		(math.Abs(price-best.Price) <= 1e-15 && tieBreak(p, best.Placement)) {
		best.Feasible = true
		best.Price = price
		best.Placement = p
	}
}
