package core

import (
	"slices"

	"scalia/internal/cloud"
	"scalia/internal/stats"
)

// This file is the per-object step of the periodic optimization
// procedure (§III-A3, Fig. 7) and of its degraded case, active repair
// (§IV-E): pick the decision period by coupling D/2, D and 2D, re-run
// Algorithm 1 over that window, and move the object only when the saving
// over the horizon pays for the move. The broker and the cost simulator
// both call it; they differ only in which objects they bring to it and in
// what executing a decision means (moving chunks, adding dollars).

// Trigger says why an object is being re-decided.
type Trigger int

// Triggers.
const (
	// CostDriven: the access trend or the market moved. The object moves
	// only if the move pays back within the horizon.
	CostDriven Trigger = iota
	// Repairing: a chunk sits at an unreachable provider. Durability
	// drives the move, so the payback test is bypassed, and a same-(m,n)
	// chunk swap is preferred to a full re-placement.
	Repairing
)

// Action is what a Decision asks its caller to execute.
type Action int

// Actions.
const (
	// Keep leaves the object where it is; Decision.Reason says why.
	Keep Action = iota
	// Migrate re-stripes the object onto Target because that is cheaper.
	Migrate
	// Swap rewrites only the chunks at the Replaced slots, onto the
	// providers Target names there; every other slot is untouched.
	Swap
	// Restripe re-places a degraded object no swap can repair.
	Restripe
)

// Reasons a decision keeps the object in place.
const (
	ReasonInfeasible  = "no feasible placement on the reachable market"
	ReasonAlreadyBest = "the current placement is the best one"
	ReasonNoPayback   = "the saving over the horizon does not cover the migration"
)

// Object is the state of the object being decided.
type Object struct {
	History *stats.History
	// Ctl is the object's decision-period controller. Every decision
	// ticks it, a repair included.
	Ctl *DecisionController
	// Size is the logical size in bytes: the storage a placement is
	// priced for and the volume a migration moves.
	Size int64
	// FitBytes is the size checked against the providers' chunk-size and
	// capacity limits; 0 skips the check, as in Search.Best.
	FitBytes int64
	// Current is the slot-ordered placement: provider i holds chunk i.
	// It is priced as given, so it should carry today's price sheets.
	Current Placement
	// TTL is the expected time left to live in sampling periods, 0 when
	// unknown. It caps the decision period and stretches the horizon.
	TTL int
}

// load is the object's average load over the last d periods.
func (o Object) load(now int64, d int) stats.Summary {
	sum := o.History.Summary(now, d)
	sum.StorageBytes = float64(o.Size)
	return sum
}

// Market is the provider market at the moment of a decision.
type Market struct {
	// Now is the current sampling period.
	Now int64
	// Epoch, Specs and Free are the registry's view: the available
	// providers at that epoch and the free capacity of the bounded ones
	// (nil when none is). Every availability change is an epoch, so a
	// provider missing from Specs is down or gone.
	Epoch uint64
	Specs []cloud.Spec
	Free  map[string]int64
}

// Lists reports whether the market holds the named provider: registered
// and available at its epoch.
func (m Market) Lists(name string) bool {
	return slices.ContainsFunc(m.Specs, func(s cloud.Spec) bool { return s.Name == name })
}

// Decider runs decisions for one deployment.
type Decider struct {
	Planner *Planner
	// MigrationHorizon is the least number of sampling periods a
	// cost-driven move may take to pay back; the horizon is the largest of
	// it, the decision period and the object's TTL.
	MigrationHorizon int
	// MigrationCost prices moving storageGB of one object between two
	// placements: MigrationCost, or the simulator's ops-only billing.
	MigrationCost func(from, to Placement, storageGB float64) float64
}

// Decision is the outcome of one step.
type Decision struct {
	Action Action
	// Reason is set when Action is Keep.
	Reason string
	// Target is the placement to move to; for a Swap it equals the
	// current one outside the Replaced slots (ascending).
	Target   Placement
	Replaced []int
	// D is the decision period the load was summarised over.
	D int
	// Evaluated counts the candidate sets priced, coupling probes included.
	Evaluated int
	// MigrationCost is the one-off cost of executing the move, in USD.
	MigrationCost float64
}

// Couple ticks the object's controller and, when an evaluation is due,
// prices the candidate periods D/2, D and 2D — capped by the history
// span and the TTL — on the one prepared search (the market does not
// change between the three) and keeps the cheapest. It returns the
// decision period to use now and the candidate sets the probes priced.
// A nil search, a rule this market cannot satisfy, probes nothing.
func Couple(o Object, m Market, search *Search) (d, evaluated int) {
	if !o.Ctl.Tick() {
		return o.Ctl.D(), 0
	}
	limit := o.History.Span(m.Now)
	if o.TTL > 0 && o.TTL < limit {
		limit = o.TTL
	}
	cands := o.Ctl.Candidates(limit)
	bestIdx, bestPrice := 1, 0.0
	for i := 0; i < len(cands) && search != nil; i++ {
		res := search.Best(o.load(m.Now, cands[i]), o.FitBytes, m.Free)
		evaluated += res.Evaluated
		if res.Feasible && (i == 0 || res.Price < bestPrice) {
			bestIdx, bestPrice = i, res.Price
		}
	}
	o.Ctl.Update(bestIdx, cands)
	return o.Ctl.D(), evaluated
}

// Decide is the step: couple the decision period, summarise the history
// over it, plan — the cheapest reachable placement, or for a repair the
// swap-first plan of Planner.Repair — and stop when nothing is feasible
// or the plan is the current placement. A cost-driven move must also pass
// the payback test: the per-period saving times the horizon has to exceed
// the migration cost. search is the prepared search of rule on m (nil
// when the rule cannot be satisfied there).
func (dr Decider) Decide(o Object, m Market, rule Rule, search *Search, why Trigger) Decision {
	dec := Decision{Action: Migrate}
	dec.D, dec.Evaluated = Couple(o, m, search)
	keep := func(reason string) Decision {
		return Decision{Reason: reason, D: dec.D, Evaluated: dec.Evaluated}
	}
	load := o.load(m.Now, dec.D)

	var price float64
	if why == Repairing {
		plan, err := dr.Planner.Repair(m, rule, o.Current, load, o.FitBytes)
		dec.Evaluated += plan.Evaluated
		if err != nil {
			return keep(ReasonInfeasible)
		}
		dec.Action, dec.Target, dec.Replaced, price = plan.Mode, plan.Placement, plan.Replaced, plan.Price
	} else {
		var res Result
		if search != nil {
			res = search.Best(load, o.FitBytes, m.Free)
		}
		dec.Evaluated += res.Evaluated
		if !res.Feasible {
			return keep(ReasonInfeasible)
		}
		dec.Target, price = res.Placement, res.Price
	}
	if dec.Target.Equal(o.Current) {
		return keep(ReasonAlreadyBest)
	}
	dec.MigrationCost = dr.MigrationCost(o.Current, dec.Target, float64(o.Size)/1e9)
	if why != Repairing {
		horizon := max(dec.D, o.TTL, dr.MigrationHorizon)
		saving := PeriodCost(o.Current, load, dr.Planner.periodHours) - price
		if saving*float64(horizon) <= dec.MigrationCost {
			return keep(ReasonNoPayback)
		}
	}
	return dec
}
