package core

import (
	"scalia/internal/cloud"
	"scalia/internal/stats"
)

// RepairPlan is the outcome of planning a repair for a degraded
// placement (Planner.Repair / PlanSwap).
type RepairPlan struct {
	// Mode is Swap — the threshold m and chunk count n are kept and only
	// the dead providers replaced, "only the faulty chunk needs to be
	// written, which corresponds to the cheapest case" (§IV-E) — or
	// Restripe: read m chunks, re-encode under the new (m, n) and rewrite
	// everything.
	Mode Action
	// Placement is the repaired placement. In swap mode it has the same
	// threshold and chunk count as the degraded one, with survivors kept
	// at their slots; in re-stripe mode it is the best full re-placement.
	Placement Placement
	// Replaced lists the chunk slots a swap rewrites (indexes into the
	// degraded placement's provider list, ascending). Nil in re-stripe
	// mode: every chunk is rewritten.
	Replaced []int
	// Price is the expected per-period cost of the repaired placement.
	Price float64
	// Evaluated counts candidate placements priced while planning.
	Evaluated int
}

// PlanSwap builds the cheapest same-(m,n) swap repair for the degraded
// placement cur: every slot whose provider is missing from market is
// filled with the spare (in market, not already used, zone- and
// capacity-feasible) provider that minimizes the expected period cost,
// greedily per slot. Surviving assignments are never touched. The second
// return is false when cur has no dead slot, when a dead slot has no
// usable spare, or when the swapped set no longer satisfies the rule at
// threshold cur.M — the callers then fall back to a full re-placement.
//
// market is the available-provider view at one epoch: every provider
// that is unavailable or gone is missing from it, because every
// availability change is a market epoch. objectBytes and free apply the
// §III-A2 chunk-size and capacity constraints to the incoming spares
// (zero / nil skip them).
func PlanSwap(cur Placement, market []cloud.Spec,
	rule Rule, load stats.Summary, periodHours float64,
	objectBytes int64, free map[string]int64) (RepairPlan, bool) {
	if cur.M <= 0 || cur.N() == 0 {
		return RepairPlan{}, false
	}
	used := make(map[string]bool, cur.N())
	for _, s := range cur.Providers {
		used[s.Name] = true
	}
	alive := Market{Specs: market}.Lists
	var chunk int64
	if objectBytes > 0 {
		chunk = (objectBytes + int64(cur.M) - 1) / int64(cur.M)
	}
	var spares []cloud.Spec
	for _, s := range market {
		if used[s.Name] || !s.ServesAny(rule.Zones) {
			continue
		}
		if chunk > 0 {
			if s.MaxChunkBytes > 0 && chunk > s.MaxChunkBytes {
				continue
			}
			if f, ok := free[s.Name]; ok && chunk > f {
				continue
			}
		}
		spares = append(spares, s)
	}

	plan := RepairPlan{Mode: Swap}
	// swapped is the one copy of cur: each candidate spare is tried in its
	// dead slot in place, and the slot keeps the cheapest.
	swapped := Placement{M: cur.M, Providers: append([]cloud.Spec(nil), cur.Providers...)}
	for i, s := range swapped.Providers {
		if alive(s.Name) {
			continue
		}
		bestIdx := -1
		bestPrice := 0.0
		for j, spare := range spares {
			swapped.Providers[i] = spare
			plan.Evaluated++
			price := PeriodCost(swapped, load, periodHours)
			if bestIdx < 0 || price < bestPrice {
				bestIdx, bestPrice = j, price
			}
		}
		if bestIdx < 0 {
			return RepairPlan{}, false // no spare left for this slot
		}
		swapped.Providers[i] = spares[bestIdx]
		spares = append(spares[:bestIdx], spares[bestIdx+1:]...)
		plan.Replaced = append(plan.Replaced, i)
	}
	if len(plan.Replaced) == 0 {
		return RepairPlan{}, false // nothing is dead; not a repair
	}
	if FeasibleThreshold(swapped.Providers, rule.Durability, rule.Availability) < cur.M {
		return RepairPlan{}, false
	}
	plan.Placement = swapped
	plan.Price = PeriodCost(swapped, load, periodHours)
	return plan, true
}

// Repair plans the repair of a degraded placement on the market m: the
// cheap same-(m,n) chunk swap when one is feasible (§IV-E's "only the
// faulty chunk needs to be written"), otherwise the best full
// re-placement on the market, which holds only the reachable providers.
// Decider.Decide plans every repair, the broker's and the simulator's,
// through it.
func (p *Planner) Repair(m Market, rule Rule, cur Placement, load stats.Summary, objectBytes int64) (RepairPlan, error) {
	if plan, ok := PlanSwap(cur, m.Specs, rule, load, p.periodHours, objectBytes, m.Free); ok {
		return plan, nil
	}
	res, err := p.Best(m.Epoch, m.Specs, rule, load, objectBytes, m.Free)
	if err != nil {
		return RepairPlan{}, err
	}
	return RepairPlan{
		Mode:      Restripe,
		Placement: res.Placement,
		Price:     res.Price,
		Evaluated: res.Evaluated,
	}, nil
}
