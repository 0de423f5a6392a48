package core

import (
	"math"
	"math/rand"
	"testing"

	"scalia/internal/cloud"
	"scalia/internal/stats"
)

// exhaustiveBest is Best without the branch-and-bound break: the
// reference oracle for the differential test. It shares the candidate
// list, pricing, and tie-break with Best so any divergence is the
// prune's fault.
func exhaustiveBest(s *Search, load stats.Summary, objectBytes int64, free map[string]int64) Result {
	best := Result{Price: math.MaxFloat64}
	for _, p := range s.feasible {
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

// TestBestBranchAndBoundDifferential fuzzes random loads and per-object
// constraints against the exhaustive oracle: the pruned scan must pick
// the identical placement at the identical price while never evaluating
// more candidates, and must actually prune on storage-heavy loads. It
// runs on the paper's market and on that market with a provider that
// charges nothing, the edge of the prices cloud.Pricing.Validate accepts.
func TestBestBranchAndBoundDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	zeroPriced := cloud.Spec{Name: "free", Durability: 0.9999, Availability: 0.99, Zones: []cloud.Zone{cloud.ZoneUS}}
	for _, market := range [][]cloud.Spec{cloud.PaperProviders(), append(cloud.PaperProviders(), zeroPriced)} {
		testBestBranchAndBound(t, rng, market)
	}
}

func testBestBranchAndBound(t *testing.T, rng *rand.Rand, market []cloud.Spec) {
	for _, rule := range []Rule{
		{Durability: 0.99999, Availability: 0.9999, LockIn: 1},
		{Durability: 0.999999, Availability: 0.9999, LockIn: 0.5},
		{Durability: 0.99999, Availability: 0.999, LockIn: 0.34, Zones: []cloud.Zone{cloud.ZoneUS, cloud.ZoneEU}},
	} {
		s, err := NewSearch(market, rule, Options{PeriodHours: 1})
		if err != nil {
			t.Fatal(err)
		}
		pruned := 0
		for trial := 0; trial < 300; trial++ {
			load := stats.Summary{
				Periods:      1,
				Reads:        rng.Float64() * 1e4,
				Writes:       rng.Float64() * 1e3,
				BytesOut:     rng.Float64() * 1e11,
				BytesIn:      rng.Float64() * 1e10,
				StorageBytes: math.Pow(10, 6+rng.Float64()*6), // 1 MB .. 1 TB
			}
			if trial%2 == 0 {
				// Storage-dominated (cold archive) load: the regime where the
				// storage floor actually bites and the scan should cut off.
				load.Reads, load.Writes, load.BytesOut, load.BytesIn = 0, 0, 0, 0
				load.StorageBytes = math.Pow(10, 11+rng.Float64()*3) // 100 GB .. 100 TB
			}
			var objectBytes int64
			var free map[string]int64
			if trial%3 == 1 {
				objectBytes = int64(load.StorageBytes)
				free = map[string]int64{}
				for _, spec := range market {
					free[spec.Name] = int64(rng.Float64() * 2 * load.StorageBytes)
				}
			}
			got := s.Best(load, objectBytes, free)
			want := exhaustiveBest(s, load, objectBytes, free)
			if got.Feasible != want.Feasible || got.Price != want.Price ||
				got.Placement.M != want.Placement.M ||
				got.Placement.String() != want.Placement.String() {
				t.Fatalf("rule %+v trial %d: pruned %+v != exhaustive %+v", rule, trial, got, want)
			}
			if got.Evaluated > want.Evaluated {
				t.Fatalf("prune evaluated MORE candidates: %d > %d", got.Evaluated, want.Evaluated)
			}
			if got.Evaluated < want.Evaluated {
				pruned++
			}
		}
		if pruned == 0 {
			t.Fatalf("rule %+v: bound never pruned in 300 storage-heavy trials", rule)
		}
	}
}
