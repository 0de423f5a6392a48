package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"scalia/internal/cloud"
	"scalia/internal/stats"
)

func TestPlannerCachesPerEpochAndRule(t *testing.T) {
	p := NewPlanner(1)
	specs := cloud.PaperProviders()
	rules := PaperRules()
	load := stats.Summary{Periods: 1, Reads: 5, BytesOut: 5e6, StorageBytes: 1e6}

	for round := 0; round < 10; round++ {
		for _, r := range rules {
			if _, err := p.Best(1, specs, r, load, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := p.Stats()
	if st.Misses != uint64(len(rules)) {
		t.Fatalf("misses = %d, want one per rule (%d)", st.Misses, len(rules))
	}
	if st.Hits != uint64(9*len(rules)) {
		t.Fatalf("hits = %d, want %d", st.Hits, 9*len(rules))
	}
}

func TestPlannerEpochInvalidates(t *testing.T) {
	p := NewPlanner(1)
	rule := Rule{Durability: 0.99999, Availability: 0.9999, LockIn: 1}
	load := stats.Summary{Periods: 1, StorageBytes: 40e9}

	before, err := p.Best(1, cloud.PaperProviders(), rule, load, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if before.Placement.Has(cloud.NameCheapStor) {
		t.Fatal("CheapStor not in the market yet")
	}
	// CheapStor arrives: new epoch, new market. The cached search for the
	// old epoch must not leak into the answer.
	grown := append(cloud.PaperProviders(), cloud.CheapStorProvider())
	after, err := p.Best(2, grown, rule, load, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Placement.Has(cloud.NameCheapStor) {
		t.Fatalf("placement %v ignores the cheaper arrival after the epoch bump", after.Placement)
	}
	st := p.Stats()
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (one per epoch)", st.Misses)
	}
}

func TestPlannerMatchesBestPlacement(t *testing.T) {
	p := NewPlanner(1)
	rule := Rule{Durability: 0.99999, Availability: 0.9999, LockIn: 1}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
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
		got, err := p.Best(1, cloud.PaperProviders(), rule, load, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Placement.Equal(want.Placement) || got.Price != want.Price {
			t.Fatalf("trial %d: planner %v ($%g) != direct %v ($%g)",
				trial, got.Placement, got.Price, want.Placement, want.Price)
		}
	}
}

func TestPlannerCachesInfeasibleRule(t *testing.T) {
	p := NewPlanner(1)
	weak := []cloud.Spec{{Name: "w", Durability: 0.5, Availability: 0.5}}
	rule := Rule{Durability: 0.999999, Availability: 0.99, LockIn: 1}
	for i := 0; i < 3; i++ {
		if _, err := p.Best(1, weak, rule, stats.Summary{Periods: 1}, 0, nil); !errors.Is(err, ErrNoProviders) {
			t.Fatalf("err = %v, want ErrNoProviders", err)
		}
	}
	if st := p.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("infeasible rule not cached: %+v", st)
	}
}

func TestPlannerConcurrent(t *testing.T) {
	p := NewPlanner(1)
	specs := cloud.PaperProviders()
	rules := PaperRules()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				epoch := uint64(1 + i/25) // epoch moves mid-run
				rule := rules[(g+i)%len(rules)]
				load := stats.Summary{Periods: 1, Reads: float64(i), StorageBytes: 1e6}
				if _, err := p.Best(epoch, specs, rule, load, 0, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSearchAppliesCapacityAtEvalTime(t *testing.T) {
	// Two providers, one tiny: the prepared search is object-agnostic,
	// and the same instance must serve both a small object (fits
	// everywhere) and a large one (must avoid the full provider).
	specs := []cloud.Spec{
		{Name: "big", Durability: 0.999999, Availability: 0.999,
			Pricing: cloud.Pricing{StorageGBMonth: 0.2}},
		{Name: "full", Durability: 0.999999, Availability: 0.999,
			Pricing: cloud.Pricing{StorageGBMonth: 0.01}},
		{Name: "mid", Durability: 0.999999, Availability: 0.999,
			Pricing: cloud.Pricing{StorageGBMonth: 0.1}},
	}
	rule := Rule{Durability: 0.99999, Availability: 0.99, LockIn: 1}
	search, err := NewSearch(specs, rule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	free := map[string]int64{"full": 100}
	load := stats.Summary{Periods: 1, StorageBytes: 1e6}

	small := search.Best(load, 50, free)
	if !small.Feasible || !small.Placement.Has("full") {
		t.Fatalf("small object should use the cheap provider: %v", small.Placement)
	}
	large := search.Best(load, 1<<20, free)
	if !large.Feasible {
		t.Fatal("large object must still place somewhere")
	}
	if large.Placement.Has("full") {
		t.Fatalf("large object placed on a full provider: %v", large.Placement)
	}
}

func TestSearchAppliesChunkLimitAtEvalTime(t *testing.T) {
	specs := []cloud.Spec{
		{Name: "a", Durability: 0.999999, Availability: 0.999,
			Pricing: cloud.Pricing{StorageGBMonth: 0.01}, MaxChunkBytes: 1000},
		{Name: "b", Durability: 0.999999, Availability: 0.999,
			Pricing: cloud.Pricing{StorageGBMonth: 0.1}},
		{Name: "c", Durability: 0.999999, Availability: 0.999,
			Pricing: cloud.Pricing{StorageGBMonth: 0.2}},
	}
	rule := Rule{Durability: 0.99999, Availability: 0.99, LockIn: 1}
	search, err := NewSearch(specs, rule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	load := stats.Summary{Periods: 1, StorageBytes: 1e6}
	res := search.Best(load, 1<<20, nil)
	if !res.Feasible {
		t.Fatal("object must place on the unconstrained providers")
	}
	if chunk := (int64(1<<20) + int64(res.Placement.M) - 1) / int64(res.Placement.M); res.Placement.Has("a") && chunk > 1000 {
		t.Fatalf("placement %v violates a's chunk limit (chunk %d)", res.Placement, chunk)
	}
}

func TestRuleFingerprint(t *testing.T) {
	a := Rule{Name: "x", Durability: 0.999, Availability: 0.99, LockIn: 0.5,
		Zones: []cloud.Zone{cloud.ZoneUS, cloud.ZoneEU}}
	b := Rule{Name: "y", Durability: 0.999, Availability: 0.99, LockIn: 0.5,
		Zones: []cloud.Zone{cloud.ZoneEU, cloud.ZoneUS}}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint must ignore display name and zone order")
	}
	c := b
	c.LockIn = 0.25
	if b.Fingerprint() == c.Fingerprint() {
		t.Fatal("fingerprint must reflect lock-in")
	}
}

// TestPlannerHitAllocatesNothing: a cache hit keys the rule without
// formatting it, so it allocates nothing; rules that differ only in name
// or zone order share one prepared search, and a rule with more zones
// than the key holds inline still hits on its second use.
func TestPlannerHitAllocatesNothing(t *testing.T) {
	p := NewPlanner(1)
	specs := cloud.PaperProviders()
	rules := PaperRules()
	for _, r := range rules {
		if _, err := p.Search(1, specs, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rules {
		if a := testing.AllocsPerRun(100, func() { p.Search(1, specs, r) }); a != 0 {
			t.Errorf("%s: %v allocs per cache hit, want 0", r.Name, a)
		}
	}
	swapped := rules[0]
	swapped.Name = "Rule 1, zones reversed"
	swapped.Zones = []cloud.Zone{cloud.ZoneUS, cloud.ZoneEU}
	many := rules[2]
	many.Zones = []cloud.Zone{"e", "d", "c", cloud.ZoneAPAC, cloud.ZoneUS, cloud.ZoneEU}
	misses := p.Stats().Misses
	for _, r := range []Rule{swapped, many, many} {
		p.Search(1, specs, r) //nolint:errcheck // only the counters matter
	}
	if got := p.Stats().Misses - misses; got != 1 {
		t.Fatalf("%d misses, want 1: the reversed zones must hit Rule 1's search, the six-zone rule its own", got)
	}
}
