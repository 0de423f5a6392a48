package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"scalia/internal/cloud"
)

// The decision path compares placements and prices migrations on every
// Decide. These tests hold Placement.Equal and MigrationCost to the
// list-building forms they replaced, bit for bit, and to no allocation.

// equalByNames is Placement.Equal as two sorted name lists.
func equalByNames(p, other Placement) bool {
	if p.M != other.M || len(p.Providers) != len(other.Providers) {
		return false
	}
	a, b := p.Names(), other.Names()
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// migrationCostByLists is MigrationCost's direct-copy case with the
// leaving and incoming providers gathered into name-sorted lists.
func migrationCostByLists(from, to Placement, storageGB float64) float64 {
	chunkGB := from.ChunkGB(storageGB)
	var leaving, incoming []cloud.Spec
	for _, s := range from.Providers {
		if !to.Has(s.Name) {
			leaving = append(leaving, s)
		}
	}
	for _, s := range to.Providers {
		if !from.Has(s.Name) {
			incoming = append(incoming, s)
		}
	}
	sort.Slice(leaving, func(i, j int) bool { return leaving[i].Name < leaving[j].Name })
	sort.Slice(incoming, func(i, j int) bool { return incoming[i].Name < incoming[j].Name })
	var cost float64
	for i := range incoming {
		src, dst := leaving[i], incoming[i]
		cost += chunkGB*src.Pricing.BandwidthOutGB + src.Pricing.OpsPer1000/1000
		cost += chunkGB*dst.Pricing.BandwidthInGB + dst.Pricing.OpsPer1000/1000
		cost += src.Pricing.OpsPer1000 / 1000
	}
	return cost
}

// randomPlacements draws placements over eight providers with random
// prices, each set in a random order.
func randomPlacements(rng *rand.Rand, count int) []Placement {
	market := make([]cloud.Spec, 8)
	for i := range market {
		market[i] = cloud.Spec{Name: string(rune('A' + i)), Pricing: cloud.Pricing{
			BandwidthInGB: rng.Float64() / 7, BandwidthOutGB: rng.Float64() / 3, OpsPer1000: rng.Float64() / 100,
		}}
	}
	out := make([]Placement, count)
	for i := range out {
		perm := rng.Perm(len(market))[:2+rng.Intn(len(market)-1)]
		p := Placement{M: 1 + rng.Intn(len(perm))}
		for _, j := range perm {
			p.Providers = append(p.Providers, market[j])
		}
		out[i] = p
	}
	return out
}

func TestPlacementEqualAndMigrationCostMatchTheirListForms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := randomPlacements(rng, 300)
	equal, copies := 0, 0
	for _, from := range ps {
		for _, to := range ps {
			if got, want := from.Equal(to), equalByNames(from, to); got != want {
				t.Fatalf("%v Equal %v = %v, want %v", from, to, got, want)
			} else if got {
				equal++
			}
			if from.M != to.M || from.N() != to.N() {
				continue
			}
			copies++
			got, want := MigrationCost(from, to, 3.7), migrationCostByLists(from, to, 3.7)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("MigrationCost(%v, %v) = %v, the list form sums %v", from, to, got, want)
			}
		}
	}
	if equal <= len(ps) || copies == 0 {
		t.Fatalf("draw too thin: %d equal pairs, %d direct copies", equal, copies)
	}
}

func TestPlacementEqualAllocatesNothing(t *testing.T) {
	a := Placement{Providers: pick("S3(h)", "Azu", "Ggl", "RS"), M: 2}
	b := Placement{Providers: pick("RS", "Ggl", "Azu", "S3(h)"), M: 2}
	if a := testing.AllocsPerRun(100, func() {
		if !a.Equal(b) {
			t.Fatal("reordered placements differ")
		}
	}); a != 0 {
		t.Fatalf("Equal: %v allocations", a)
	}
}

func TestMigrationCostAllocatesNothing(t *testing.T) {
	from := Placement{Providers: pick("S3(h)", "Azu", "Ggl"), M: 2}
	for _, to := range []Placement{
		{Providers: pick("S3(l)", "Azu", "RS"), M: 2}, // direct copy
		{Providers: pick("S3(h)", "Azu", "RS"), M: 3}, // re-stripe
	} {
		if a := testing.AllocsPerRun(100, func() { MigrationCost(from, to, 1) }); a != 0 {
			t.Errorf("MigrationCost to %v: %v allocations", to, a)
		}
	}
}
