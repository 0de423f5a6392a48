package sim

import (
	"fmt"

	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/stats"
	"scalia/internal/trend"
	"scalia/internal/workload"
)

// runScalia simulates the adaptive policy, filling the resource series,
// placement-change log and planner counters of res. The placement
// searches run through the shared core.Planner — the same layer the
// production engine uses — keyed by the market's epoch, so almost every
// period reuses the previous prepared search.
func runScalia(sc workload.Scenario, cfg Config, mkt *market, res *Result) (float64, []float64, error) {
	planner := core.NewPlanner(cfg.PeriodHours)
	decider := core.Decider{
		Planner:          planner,
		MigrationHorizon: cfg.MigrationHorizon,
		MigrationCost: func(from, to core.Placement, sizeGB float64) float64 {
			return migrationCost(from, to, sizeGB, cfg.MigrationBilling)
		},
	}
	if cfg.TrackResources {
		res.Resources = make([]SeriesPoint, sc.Periods())
		for p := range res.Resources {
			res.Resources[p].Period = p
		}
	}
	total, series, err := replay(sc, cfg, mkt, policy{
		planner: planner,
		// A first placement: no access history, so it prices the creation
		// write itself (class statistics are the engine-layer refinement;
		// scenario objects are homogeneous).
		place: func(obj *simObject, p int, search *core.Search) error {
			best := search.Best(stats.Summary{
				Periods: 1, Writes: 1,
				BytesIn:      float64(obj.size),
				StorageBytes: float64(obj.size),
			}, 0, nil)
			if !best.Feasible {
				return fmt.Errorf("sim: no feasible placement for %s", obj.name)
			}
			obj.placement = best.Placement
			obj.hist = stats.NewHistory(0)
			obj.ctl = core.NewDecisionController(cfg.DecisionPeriod, 0)
			return nil
		},
		price: func(obj *simObject, l workload.PeriodLoad, p int, _ *core.Search) (float64, error) {
			obj.hist.Record(stats.Sample{
				Period: int64(p), Reads: l.Reads, Writes: l.Writes,
				BytesOut: l.Reads * obj.size, BytesIn: l.Writes * obj.size,
				StorageBytes: obj.size,
			})
			if cfg.TrackResources {
				point := &res.Resources[p]
				overhead := float64(obj.placement.N()) / float64(obj.placement.M)
				point.StorageGB += float64(obj.size) / 1e9 * overhead
				point.BwInGB += float64(l.Writes) * float64(obj.size) / 1e9 * overhead
				if _, ok := reachablePlacement(obj.placement, mkt, p); ok {
					point.BwOutGB += float64(l.Reads) * float64(obj.size) / 1e9
				}
			}
			return placementPeriodCost(obj.placement, mkt, p, periodSummary(l), cfg.PeriodHours), nil
		},
		// The adaptation pass: trend-gated recomputation, membership-change
		// recomputation, and active repair.
		adapt: func(objects []*simObject, p int, search *core.Search) float64 {
			migUSD, migIn, migOut := adaptScalia(objects, cfg, mkt, decider, search, p, res)
			res.MigrationUSD += migUSD
			if cfg.TrackResources {
				res.Resources[p].BwInGB += migIn
				res.Resources[p].BwOutGB += migOut
			}
			return migUSD
		},
	})
	st := planner.Stats()
	res.PlannerHits, res.PlannerMisses = st.Hits, st.Misses
	return total, series, err
}

// adaptScalia runs the per-period optimization procedure over the
// simulated objects, returning the migration spend and traffic. It only
// picks the objects — membership change, degraded below the threshold
// under active repair, or the trend gate — and accounts what the
// decision costs; the decision itself is core.Decider.Decide, the step
// the production broker runs, so simulated and production decisions
// provably agree.
func adaptScalia(objects []*simObject, cfg Config, mkt *market, decider core.Decider,
	search *core.Search, p int, res *Result) (usd, inGB, outGB float64) {
	membership := mkt.membershipChanged(p)
	_, up := mkt.specsAt(p)
	view := core.Market{Now: int64(p), Epoch: mkt.epochAt(p), Specs: up}
	for _, obj := range objects {
		if !obj.alive {
			continue
		}
		var reachable []cloud.Spec
		downChunk := false
		for _, s := range obj.placement.Providers {
			if mkt.isUp(s.Name, p) {
				reachable = append(reachable, s)
			} else {
				downChunk = true
			}
		}
		// The degraded placement violates the rule when the surviving
		// providers can no longer support threshold m; that is what forces
		// a repair rather than waiting out the outage (§IV-E).
		degraded := downChunk &&
			core.FeasibleThreshold(reachable, cfg.Rule.Durability, cfg.Rule.Availability) < obj.placement.M
		repairing := cfg.ActiveRepair && degraded
		if !membership && !repairing &&
			!trend.Changed(obj.hist.OpsSeries(int64(p), trend.DefaultWindow+1), trend.DefaultWindow, trend.DefaultLimit) {
			continue
		}
		res.TrendRecomputations++
		why := core.CostDriven
		if repairing {
			why = core.Repairing
		}

		// No TTL, no chunk-size or capacity limits: scenario objects carry
		// no lifetime hint and the paper's providers are unbounded.
		dec := decider.Decide(core.Object{
			History: obj.hist, Ctl: obj.ctl, Size: obj.size, Current: obj.placement,
		}, view, cfg.Rule, search, why)
		if dec.Action == core.Keep {
			continue
		}
		best := dec.Target
		// The migration read needs m reachable chunks.
		if _, ok := reachablePlacement(obj.placement, mkt, p); !ok {
			continue
		}
		usd += dec.MigrationCost
		moved := float64(obj.size) / 1e9 / float64(obj.placement.M) // per-chunk GB
		if obj.placement.M == best.M && obj.placement.N() == best.N() {
			diff := 0
			for _, s := range best.Providers {
				if !obj.placement.Has(s.Name) {
					diff++
				}
			}
			outGB += moved * float64(diff)
			inGB += moved * float64(diff)
		} else {
			outGB += float64(obj.size) / 1e9 // read m chunks
			inGB += float64(obj.size) / 1e9 / float64(best.M) * float64(best.N())
		}
		res.Changes = append(res.Changes, PlacementChange{
			Period: p, Object: obj.name,
			From: obj.placement.String(), To: best.String(),
			Reason: reason(membership, repairing),
		})
		res.Migrations++
		obj.placement = best
	}
	return usd, inGB, outGB
}

// migrationCost prices a migration under the configured billing mode.
// BillOpsOnly zeroes the bandwidth components by pricing against
// bandwidth-free copies of the provider specs.
func migrationCost(from, to core.Placement, sizeGB float64, mode MigrationBilling) float64 {
	if mode == BillFull {
		return core.MigrationCost(from, to, sizeGB)
	}
	return core.MigrationCost(zeroBandwidth(from), zeroBandwidth(to), sizeGB)
}

func zeroBandwidth(p core.Placement) core.Placement {
	out := core.Placement{M: p.M, Providers: make([]cloud.Spec, len(p.Providers))}
	for i, s := range p.Providers {
		s.Pricing.BandwidthInGB = 0
		s.Pricing.BandwidthOutGB = 0
		out.Providers[i] = s
	}
	return out
}

func reason(membership, repairing bool) string {
	switch {
	case repairing:
		return "active-repair"
	case membership:
		return "membership-change"
	default:
		return "trend-change"
	}
}

// runStatic prices the scenario on one fixed provider set and returns
// its total and per-period cumulative cost. Objects are placed at
// creation on the reachable members of the set with the largest feasible
// threshold; placements never change afterwards (chunks at a failed
// provider stay there, §IV-E).
func runStatic(sc workload.Scenario, cfg Config, mkt *market, set StaticSet) (float64, []float64, error) {
	specsByName := make(map[string]cloud.Spec)
	for _, s := range cfg.Specs {
		specsByName[s.Name] = s
	}
	for _, a := range cfg.Arrivals {
		specsByName[a.Spec.Name] = a.Spec
	}
	members := make([]cloud.Spec, 0, len(set.Names))
	for _, n := range set.Names {
		s, ok := specsByName[n]
		if !ok {
			return 0, nil, fmt.Errorf("sim: static set references unknown provider %q", n)
		}
		members = append(members, s)
	}
	return replay(sc, cfg, mkt, policy{
		place: func(obj *simObject, p int, _ *core.Search) error {
			upMembers := make([]cloud.Spec, 0, len(members))
			for _, s := range members {
				if mkt.isUp(s.Name, p) {
					upMembers = append(upMembers, s)
				}
			}
			m := core.FeasibleThreshold(upMembers, cfg.Rule.Durability, cfg.Rule.Availability)
			if m <= 0 {
				// The degraded set cannot satisfy the rule; the static
				// deployment stores anyway at maximum striping (its
				// whole point is that it cannot adapt).
				m = len(upMembers)
				if m == 0 {
					return fmt.Errorf("sim: static set %s entirely down at %d", set.Label(), p)
				}
			}
			obj.placement = core.Placement{Providers: upMembers, M: m}
			return nil
		},
		price: func(obj *simObject, l workload.PeriodLoad, p int, _ *core.Search) (float64, error) {
			return placementPeriodCost(obj.placement, mkt, p, periodSummary(l), cfg.PeriodHours), nil
		},
	})
}

// StaticCumulative prices one fixed set and returns the per-period
// cumulative cost series (Fig. 18's static curve).
func StaticCumulative(sc workload.Scenario, cfg Config, set StaticSet) ([]float64, error) {
	cfg.fill()
	mkt := &market{specs: cfg.Specs, arrivals: cfg.Arrivals, outages: cfg.Outages}
	_, series, err := runStatic(sc, cfg, mkt, set)
	return series, err
}
