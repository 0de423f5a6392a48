package core

import (
	"fmt"
	"math/rand"
	"testing"

	"scalia/internal/cloud"
	"scalia/internal/stats"
)

func TestSearchMatchesBestPlacement(t *testing.T) {
	rule := Rule{Durability: 0.99999, Availability: 0.9999, LockIn: 1}
	search, err := NewSearch(cloud.PaperProviders(), rule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		load := stats.Summary{
			Periods:      1,
			Reads:        float64(rng.Intn(200)),
			Writes:       float64(rng.Intn(3)),
			StorageBytes: float64(1+rng.Intn(100)) * 1e6,
		}
		load.BytesOut = load.Reads * load.StorageBytes
		load.BytesIn = load.Writes * load.StorageBytes

		want, err := BestPlacement(cloud.PaperProviders(), rule, load, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := search.Best(load, 0, nil)
		if !got.Placement.Equal(want.Placement) {
			t.Fatalf("trial %d: search %v != exact %v (load %+v)",
				trial, got.Placement, want.Placement, load)
		}
		if got.Price != want.Price {
			t.Fatalf("trial %d: price %v != %v", trial, got.Price, want.Price)
		}
	}
}

func TestSearchInfeasible(t *testing.T) {
	weak := []cloud.Spec{{Name: "w", Durability: 0.5, Availability: 0.5}}
	rule := Rule{Durability: 0.999999, Availability: 0.99, LockIn: 1}
	if _, err := NewSearch(weak, rule, Options{}); err == nil {
		t.Fatal("expected ErrNoProviders")
	}
}

func TestSearchCandidateCount(t *testing.T) {
	rule := Rule{Durability: 0.99999, Availability: 0.9999, LockIn: 1}
	search, err := NewSearch(cloud.PaperProviders(), rule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Singletons fail availability; all multi-provider subsets of the
	// five paper providers are feasible: 2^5 - 1 - 5 = 26.
	if got := search.Candidates(); got != 26 {
		t.Fatalf("Candidates = %d, want 26", got)
	}
}

func TestSearchHonorsZoneFilter(t *testing.T) {
	rule := Rule{Durability: 0.9999, Availability: 0.9999,
		Zones: []cloud.Zone{cloud.ZoneEU}, LockIn: 1}
	search, err := NewSearch(cloud.PaperProviders(), rule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := search.Best(stats.Summary{Periods: 1, StorageBytes: 1e6}, 0, nil)
	for _, name := range res.Placement.Names() {
		if name != "S3(h)" && name != "S3(l)" {
			t.Fatalf("non-EU provider %s", name)
		}
	}
}

// randomMarket builds a synthetic provider market with realistic SLA
// and price ranges, for differential and property testing.
func randomMarket(rng *rand.Rand, n int) []cloud.Spec {
	durs := []float64{0.9999, 0.999999, 0.99999999, 0.99999999999}
	avs := []float64{0.99, 0.999, 0.9995}
	zoneSets := [][]cloud.Zone{
		{cloud.ZoneEU, cloud.ZoneUS, cloud.ZoneAPAC},
		{cloud.ZoneEU, cloud.ZoneUS},
		{cloud.ZoneUS},
		{cloud.ZoneEU},
	}
	specs := make([]cloud.Spec, n)
	for i := range specs {
		specs[i] = cloud.Spec{
			Name:         fmt.Sprintf("p%02d", i),
			Durability:   durs[rng.Intn(len(durs))],
			Availability: avs[rng.Intn(len(avs))],
			Zones:        zoneSets[rng.Intn(len(zoneSets))],
			Pricing: cloud.Pricing{
				StorageGBMonth: 0.05 + 0.15*rng.Float64(),
				BandwidthInGB:  0.12 * rng.Float64(),
				BandwidthOutGB: 0.05 + 0.15*rng.Float64(),
				OpsPer1000:     0.02 * rng.Float64(),
			},
		}
	}
	return specs
}

func TestFeasibleThresholdLowersMForAvailability(t *testing.T) {
	pset := pick("S3(h)", "Azu") // both >= 6 nines durability
	// Pure Algorithm 2 yields m = 2 for modest durability...
	if th := GetThreshold(pset, 0.999); th != 2 {
		t.Fatalf("GetThreshold = %d, want 2", th)
	}
	// ...which fails 99.99% availability (0.999^2 = 0.998); the feasible
	// threshold drops to 1 (av 0.999999).
	if m := FeasibleThreshold(pset, 0.999, 0.9999); m != 1 {
		t.Fatalf("FeasibleThreshold = %d, want 1", m)
	}
	// An impossible availability yields 0.
	if m := FeasibleThreshold(pset, 0.999, 0.99999999); m != 0 {
		t.Fatalf("FeasibleThreshold = %d, want 0", m)
	}
}
