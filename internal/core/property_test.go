package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"scalia/internal/cloud"
	"scalia/internal/stats"
)

// randomLoad derives a well-formed load summary from fuzz inputs.
func randomLoad(reads, writes uint16, sizeMB uint8) stats.Summary {
	size := float64(sizeMB)*1e6 + 1
	return stats.Summary{
		Periods:      1,
		Reads:        float64(reads),
		Writes:       float64(writes % 4),
		BytesOut:     float64(reads) * size,
		BytesIn:      float64(writes%4) * size,
		StorageBytes: size,
	}
}

func TestPeriodCostNonNegativeProperty(t *testing.T) {
	specs := cloud.PaperProviders()
	f := func(reads, writes uint16, sizeMB uint8, mSel, nSel uint8) bool {
		n := int(nSel%5) + 1
		m := int(mSel%uint8(n)) + 1
		p := Placement{Providers: specs[:n], M: m}
		return PeriodCost(p, randomLoad(reads, writes, sizeMB), 1) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPeriodCostMonotoneInLoadProperty(t *testing.T) {
	specs := cloud.PaperProviders()
	p := Placement{Providers: specs[:3], M: 2}
	f := func(reads, writes uint16, sizeMB uint8) bool {
		load := randomLoad(reads, writes, sizeMB)
		base := PeriodCost(p, load, 1)
		// More reads cannot be cheaper.
		more := load
		more.Reads += 10
		more.BytesOut += 10 * load.StorageBytes
		if PeriodCost(p, more, 1) < base {
			return false
		}
		// More stored bytes cannot be cheaper.
		bigger := load
		bigger.StorageBytes *= 2
		return PeriodCost(p, bigger, 1) >= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBestPlacementNeverBeatenByCandidateProperty(t *testing.T) {
	// The optimizer's result must price at or below every feasible
	// candidate it can choose from — cross-checked by re-evaluating a
	// random subset against the returned optimum.
	specs := cloud.PaperProviders()
	rule := Rule{Durability: 0.99999, Availability: 0.9999, LockIn: 1}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		load := randomLoad(uint16(rng.Intn(500)), uint16(rng.Intn(4)), uint8(rng.Intn(200)))
		best, err := BestPlacement(specs, rule, load, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Random candidate subset.
		var pset []cloud.Spec
		for _, s := range specs {
			if rng.Intn(2) == 1 {
				pset = append(pset, s)
			}
		}
		if len(pset) < 2 {
			continue
		}
		th := FeasibleThreshold(pset, rule.Durability, rule.Availability)
		if th <= 0 {
			continue
		}
		cand := Placement{Providers: pset, M: th}
		if price := PeriodCost(cand, load, 1); price < best.Price-1e-12 {
			t.Fatalf("trial %d: candidate %v (%v) beats optimum %v (%v)",
				trial, cand, price, best.Placement, best.Price)
		}
	}
}

func TestMigrationCostNonNegativeProperty(t *testing.T) {
	specs := cloud.PaperProviders()
	f := func(fromSel, toSel uint8, sizeMB uint8) bool {
		fn := int(fromSel%4) + 2
		tn := int(toSel%4) + 2
		from := Placement{Providers: specs[:fn], M: fn - 1}
		to := Placement{Providers: specs[5-tn:], M: tn - 1}
		return MigrationCost(from, to, float64(sizeMB)/100) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThresholdAvailabilityConsistencyProperty(t *testing.T) {
	// For any subset and any constraints, the feasible threshold (when
	// positive) must satisfy both constraints, and threshold+1 must
	// violate at least one.
	specs := cloud.PaperProviders()
	rng := rand.New(rand.NewSource(17))
	durs := []float64{0.999, 0.99999, 0.9999999, 0.999999999999}
	avs := []float64{0.99, 0.999, 0.9999, 0.999995}
	for trial := 0; trial < 300; trial++ {
		var pset []cloud.Spec
		for _, s := range specs {
			if rng.Intn(2) == 1 {
				pset = append(pset, s)
			}
		}
		if len(pset) == 0 {
			continue
		}
		dr := durs[rng.Intn(len(durs))]
		ar := avs[rng.Intn(len(avs))]
		m := FeasibleThreshold(pset, dr, ar)
		if m <= 0 {
			continue
		}
		if GetAvailability(pset, m) < ar {
			t.Fatalf("threshold %d violates availability %v for %v", m, ar, pset)
		}
		if th := GetThreshold(pset, dr); m > th {
			t.Fatalf("feasible threshold %d exceeds durability threshold %d", m, th)
		}
		if m < len(pset) {
			// Maximality: m+1 must violate availability or durability.
			durOK := m+1 <= GetThreshold(pset, dr)
			avOK := GetAvailability(pset, m+1) >= ar
			if durOK && avOK {
				t.Fatalf("threshold %d not maximal for %v (dr=%v ar=%v)", m, pset, dr, ar)
			}
		}
	}
}

// TestPlanSwapSingleFailureProperty drives PlanSwap over random
// markets, rules and loads with one provider of the placement failed.
// Wherever a feasible swap exists it must: keep (m, n); keep every
// surviving assignment at its slot; replace only the dead slot, with an
// alive provider not already in the set; still satisfy the rule at
// threshold m; pick the cheapest possible spare; and never write more
// repair bytes than the best full re-placement would.
func TestPlanSwapSingleFailureProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rules := []Rule{
		{Durability: 0.99999, Availability: 0.99, LockIn: 1},
		{Durability: 0.9999, Availability: 0.99, LockIn: 0.5},
		{Durability: 0.999999, Availability: 0.99, LockIn: 0.3},
	}
	swaps := 0
	for trial := 0; trial < 300; trial++ {
		specs := randomMarket(rng, 5+rng.Intn(4))
		rule := rules[rng.Intn(len(rules))]
		load := randomLoad(uint16(rng.Intn(500)), uint16(rng.Intn(8)), uint8(rng.Intn(200)))
		best, err := BestPlacement(specs, rule, load, 0, nil)
		if err != nil {
			continue
		}
		cur := best.Placement
		deadSlot := rng.Intn(cur.N())
		dead := cur.Providers[deadSlot].Name
		plan, ok := PlanSwap(cur, removeByName(specs, dead), rule, load, 1, 0, nil)
		if !ok {
			continue
		}
		swaps++
		if plan.Mode != Swap {
			t.Fatalf("trial %d: mode = %v, want Swap", trial, plan.Mode)
		}
		// Shape: same threshold, same chunk count.
		if plan.Placement.M != cur.M || plan.Placement.N() != cur.N() {
			t.Fatalf("trial %d: swap changed shape: %v -> %v", trial, cur, plan.Placement)
		}
		// Slots: survivors untouched, only the dead slot replaced.
		if len(plan.Replaced) != 1 || plan.Replaced[0] != deadSlot {
			t.Fatalf("trial %d: replaced %v, want [%d]", trial, plan.Replaced, deadSlot)
		}
		for i, s := range plan.Placement.Providers {
			if i == deadSlot {
				if s.Name == dead || cur.Has(s.Name) {
					t.Fatalf("trial %d: slot %d replacement %q is dead or already used", trial, i, s.Name)
				}
				if !s.ServesAny(rule.Zones) {
					t.Fatalf("trial %d: replacement %q violates the zone rule", trial, s.Name)
				}
				continue
			}
			if s.Name != cur.Providers[i].Name {
				t.Fatalf("trial %d: surviving slot %d changed %q -> %q",
					trial, i, cur.Providers[i].Name, s.Name)
			}
		}
		// The swapped set still satisfies the rule at the original m.
		if th := FeasibleThreshold(plan.Placement.Providers, rule.Durability, rule.Availability); th < cur.M {
			t.Fatalf("trial %d: swapped set threshold %d < m %d", trial, th, cur.M)
		}
		// Greedy optimality for a single failure: no other spare yields a
		// cheaper swapped placement.
		for _, spare := range specs {
			if spare.Name == dead || cur.Has(spare.Name) || !spare.ServesAny(rule.Zones) {
				continue
			}
			alt := Placement{M: cur.M, Providers: append([]cloud.Spec(nil), cur.Providers...)}
			alt.Providers[deadSlot] = spare
			if price := PeriodCost(alt, load, 1); price < plan.Price-1e-12 {
				t.Fatalf("trial %d: spare %q (%v) beats chosen swap (%v)",
					trial, spare.Name, price, plan.Price)
			}
		}
		// Repair traffic: the swap writes one chunk (size/m); a full
		// re-placement re-stripes and writes n'/m' >= 1 >= 1/m of the
		// size. Never more.
		full, err := BestPlacement(removeByName(specs, dead), rule, load, 0, nil)
		if err == nil {
			swapWrite := float64(len(plan.Replaced)) / float64(cur.M)
			fullWrite := float64(full.Placement.N()) / float64(full.Placement.M)
			if swapWrite > fullWrite+1e-12 {
				t.Fatalf("trial %d: swap writes %.3fx object size, re-placement %.3fx",
					trial, swapWrite, fullWrite)
			}
		}
	}
	if swaps < 50 {
		t.Fatalf("property test found only %d feasible swaps", swaps)
	}
}

// TestPlanSwapMultiFailureProperty fails up to n-m providers at once:
// any feasible plan must replace exactly the dead slots and keep the
// rule satisfied; infeasibility (spares exhausted) must be reported,
// never a placement that still contains a dead provider.
func TestPlanSwapMultiFailureProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rule := Rule{Durability: 0.9999, Availability: 0.99, LockIn: 0.5}
	swaps := 0
	for trial := 0; trial < 300; trial++ {
		specs := randomMarket(rng, 6+rng.Intn(4))
		load := randomLoad(uint16(rng.Intn(300)), uint16(rng.Intn(4)), uint8(rng.Intn(100)))
		best, err := BestPlacement(specs, rule, load, 0, nil)
		if err != nil {
			continue
		}
		cur := best.Placement
		spare := cur.N() - cur.M
		if spare < 1 {
			continue
		}
		deadCount := 1 + rng.Intn(spare)
		deadSet := make(map[string]bool, deadCount)
		for len(deadSet) < deadCount {
			deadSet[cur.Providers[rng.Intn(cur.N())].Name] = true
		}
		market := slices.DeleteFunc(slices.Clone(specs), func(s cloud.Spec) bool { return deadSet[s.Name] })
		plan, ok := PlanSwap(cur, market, rule, load, 1, 0, nil)
		if !ok {
			continue
		}
		swaps++
		if len(plan.Replaced) != len(deadSet) {
			t.Fatalf("trial %d: replaced %d slots, want %d", trial, len(plan.Replaced), len(deadSet))
		}
		seen := make(map[string]bool, plan.Placement.N())
		for i, s := range plan.Placement.Providers {
			if seen[s.Name] {
				t.Fatalf("trial %d: duplicate provider %q after swap", trial, s.Name)
			}
			seen[s.Name] = true
			if deadSet[s.Name] {
				t.Fatalf("trial %d: dead provider %q still at slot %d", trial, s.Name, i)
			}
			if !deadSet[cur.Providers[i].Name] && s.Name != cur.Providers[i].Name {
				t.Fatalf("trial %d: surviving slot %d changed", trial, i)
			}
		}
		if th := FeasibleThreshold(plan.Placement.Providers, rule.Durability, rule.Availability); th < cur.M {
			t.Fatalf("trial %d: swapped set threshold %d < m %d", trial, th, cur.M)
		}
	}
	if swaps < 30 {
		t.Fatalf("property test found only %d feasible multi-swaps", swaps)
	}
}

// TestPlannerRepairFallsBackToRestripe exhausts the spare pool so no
// swap is feasible: Planner.Repair must return a re-stripe plan over
// the surviving market rather than failing or keeping the dead slot.
func TestPlannerRepairFallsBackToRestripe(t *testing.T) {
	specs := cloud.PaperProviders()
	rule := Rule{Durability: 0.99999, Availability: 0.99, LockIn: 1.0 / float64(len(specs))}
	load := randomLoad(10, 1, 50)
	planner := NewPlanner(1)
	best, err := planner.Best(1, specs, rule, load, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if best.Placement.N() != len(specs) {
		t.Fatalf("lock-in rule should use every provider, got %v", best.Placement)
	}
	dead := best.Placement.Providers[0].Name
	aliveSpecs := removeByName(specs, dead)
	plan, err := planner.Repair(Market{Epoch: 2, Specs: aliveSpecs}, rule, best.Placement, load, 0)
	if err == nil {
		t.Fatalf("no market subset satisfies lock-in 1/%d with %d providers; want error, got %+v",
			len(specs), len(aliveSpecs), plan)
	}

	// With a looser rule the fallback must be a re-stripe plan.
	loose := Rule{Durability: 0.99999, Availability: 0.99, LockIn: 0.5}
	best, err = planner.Best(2, aliveSpecs, loose, load, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Build a degraded placement over every surviving provider plus the
	// dead one, so no spare exists.
	cur := Placement{M: best.Placement.M, Providers: append([]cloud.Spec(nil), specs...)}
	plan, err = planner.Repair(Market{Epoch: 2, Specs: aliveSpecs}, loose, cur, load, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != Restripe {
		t.Fatalf("spare-less market must re-stripe, got mode %v", plan.Mode)
	}
	for _, s := range plan.Placement.Providers {
		if s.Name == dead {
			t.Fatalf("re-stripe placement still contains the dead provider: %v", plan.Placement)
		}
	}
}

func removeByName(specs []cloud.Spec, name string) []cloud.Spec {
	out := make([]cloud.Spec, 0, len(specs))
	for _, s := range specs {
		if s.Name != name {
			out = append(out, s)
		}
	}
	return out
}
