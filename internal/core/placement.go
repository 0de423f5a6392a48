package core

import (
	"math"
	"sort"

	"scalia/internal/cloud"
	"scalia/internal/stats"
)

// Options tunes the placement search.
type Options struct {
	// PeriodHours is the sampling-period duration (default 1).
	PeriodHours float64
	// FreeBytes, when non-nil, caps the chunk a provider can accept
	// (remaining capacity of private resources).
	FreeBytes map[string]int64
	// ObjectBytes is the logical object size used for chunk-size
	// constraint checks; zero skips those checks.
	ObjectBytes int64
}

// Result is the outcome of a placement search.
type Result struct {
	Placement Placement
	// Price is the expected cost per sampling period (USD).
	Price    float64
	Feasible bool
	// Evaluated counts candidate sets examined (ablation metric).
	Evaluated int
}

// BestPlacement implements Algorithm 1 literally: it enumerates every
// subset (getAllCombinations) and returns the cheapest provider set and
// erasure threshold satisfying the rule, pricing each candidate with the
// object's access history summary. Complexity O(2^|P|); the paper notes
// exact search is feasible for today's |P| < 15. Search is the prepared
// form the Planner caches.
func BestPlacement(specs []cloud.Spec, rule Rule, load stats.Summary, opts Options) (Result, error) {
	if err := rule.Validate(); err != nil {
		return Result{}, err
	}
	if opts.PeriodHours <= 0 {
		opts.PeriodHours = 1
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
		evaluateCandidate(pset, rule, load, opts, &best)
	}
	if !best.Feasible {
		return Result{Evaluated: best.Evaluated}, ErrNoProviders
	}
	return best, nil
}

// evaluateCandidate runs lines 5-16 of Algorithm 1 for one candidate set
// and updates best if the set is feasible and cheaper.
func evaluateCandidate(pset []cloud.Spec, rule Rule, load stats.Summary, opts Options, best *Result) {
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
	if !chunkFits(pset, th, opts.ObjectBytes, opts.FreeBytes) {
		return
	}
	// Line 11: expected price.
	p := Placement{Providers: append([]cloud.Spec(nil), pset...), M: th}
	price := PeriodCost(p, load, opts.PeriodHours)
	if !best.Feasible || price < best.Price-1e-15 ||
		(math.Abs(price-best.Price) <= 1e-15 && tieBreak(p, best.Placement)) {
		best.Feasible = true
		best.Price = price
		best.Placement = p
	}
}

// tieBreak makes the search deterministic when two sets price equally:
// prefer fewer providers (less operational surface), then lexicographic
// name order.
func tieBreak(a, b Placement) bool {
	if a.N() != b.N() {
		return a.N() < b.N()
	}
	an, bn := a.Names(), b.Names()
	for i := range an {
		if an[i] != bn[i] {
			return an[i] < bn[i]
		}
	}
	return false
}

// chunkFits checks the chunk-size and capacity constraints (§III-A2)
// for a candidate set at threshold m: the chunk size is
// ceil(objectBytes/m); a provider whose MaxChunkBytes or remaining free
// capacity cannot hold it makes the set infeasible. objectBytes == 0
// skips the checks.
func chunkFits(pset []cloud.Spec, m int, objectBytes int64, free map[string]int64) bool {
	if objectBytes <= 0 || m <= 0 {
		return true
	}
	chunk := (objectBytes + int64(m) - 1) / int64(m)
	for _, s := range pset {
		if s.MaxChunkBytes > 0 && chunk > s.MaxChunkBytes {
			return false
		}
		if free != nil {
			if f, ok := free[s.Name]; ok && chunk > f {
				return false
			}
		}
	}
	return true
}
