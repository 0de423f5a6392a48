package sim

import (
	"fmt"

	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/stats"
	"scalia/internal/trend"
	"scalia/internal/workload"
)

// runScalia simulates the adaptive policy, filling res.ScaliaUSD,
// resource series, placement-change log and cumulative series. The
// placement searches run through the shared core.Planner — the same
// layer the production engine uses — keyed by the market's epoch, so
// almost every period reuses the previous prepared search.
func runScalia(sc workload.Scenario, cfg Config, mkt *market, res *Result) error {
	objects := make(map[string]*simObject)
	var order []string
	planner := core.NewPlanner(cfg.PeriodHours, cfg.Pruned)
	decider := core.Decider{
		Planner:          planner,
		MigrationHorizon: cfg.MigrationHorizon,
		MigrationCost: func(from, to core.Placement, sizeGB float64) float64 {
			return migrationCost(from, to, sizeGB, cfg.MigrationBilling)
		},
	}

	var total float64
	for p := 0; p < sc.Periods(); p++ {
		_, up := mkt.specsAt(p)
		search, err := planner.Search(mkt.epochAt(p), up, cfg.Rule)
		if err != nil {
			return fmt.Errorf("sim: period %d: %w", p, err)
		}
		membership := mkt.membershipChanged(p)
		loads := sc.Load(p)
		loadByObj := make(map[string]workload.PeriodLoad, len(loads))
		for _, l := range loads {
			loadByObj[l.Object] = l
			if _, ok := objects[l.Object]; !ok {
				// First placement: no access history; price the creation
				// write itself (class statistics are the engine-layer
				// refinement; scenario objects are homogeneous).
				sum := stats.Summary{
					Periods: 1, Writes: 1,
					BytesIn:      float64(l.Size),
					StorageBytes: float64(l.Size),
				}
				best := search.Best(sum, 0, nil)
				if !best.Feasible {
					return fmt.Errorf("sim: no feasible placement for %s", l.Object)
				}
				objects[l.Object] = &simObject{
					name:      l.Object,
					size:      l.Size,
					placement: best.Placement,
					hist:      stats.NewHistory(0),
					ctl:       core.NewDecisionController(cfg.DecisionPeriod, 0),
					alive:     true,
				}
				order = append(order, l.Object)
			}
		}

		point := SeriesPoint{Period: p}
		var periodCost float64
		for _, name := range order {
			obj := objects[name]
			if !obj.alive {
				continue
			}
			l := loadByObj[name]
			l.Size = obj.size
			sum := periodSummary(l, true)
			obj.hist.Record(stats.Sample{
				Period: int64(p), Reads: l.Reads, Writes: l.Writes,
				BytesOut: l.Reads * obj.size, BytesIn: l.Writes * obj.size,
				StorageBytes: obj.size,
			})
			periodCost += placementPeriodCost(obj.placement, mkt, p, sum, cfg.PeriodHours)
			if cfg.TrackResources {
				overhead := float64(obj.placement.N()) / float64(obj.placement.M)
				point.StorageGB += float64(obj.size) / 1e9 * overhead
				point.BwInGB += float64(l.Writes) * float64(obj.size) / 1e9 * overhead
				if _, ok := reachablePlacement(obj.placement, mkt, p); ok {
					point.BwOutGB += float64(l.Reads) * float64(obj.size) / 1e9
				}
			}
			if l.Deleted {
				obj.alive = false
			}
		}

		// Adaptation pass: trend-gated recomputation, membership-change
		// recomputation, and active repair.
		migUSD, migIn, migOut := adaptScalia(objects, order, cfg, mkt, decider, search, p, membership, res)
		total += periodCost + migUSD
		res.MigrationUSD += migUSD
		if cfg.TrackResources {
			point.BwInGB += migIn
			point.BwOutGB += migOut
			res.Resources = append(res.Resources, point)
		}
		res.CumulativeScalia = append(res.CumulativeScalia, total)
	}
	res.ScaliaUSD = total
	st := planner.Stats()
	res.PlannerHits, res.PlannerMisses = st.Hits, st.Misses
	return nil
}

// adaptScalia runs the per-period optimization procedure over the
// simulated objects, returning the migration spend and traffic. It only
// picks the objects — membership change, degraded below the threshold
// under active repair, or the trend gate — and accounts what the
// decision costs; the decision itself is core.Decider.Decide, the step
// the production broker runs, so simulated and production decisions
// provably agree.
func adaptScalia(objects map[string]*simObject, order []string, cfg Config,
	mkt *market, decider core.Decider, search *core.Search, p int, membership bool, res *Result) (usd, inGB, outGB float64) {
	_, up := mkt.specsAt(p)
	view := core.Market{
		Now: int64(p), Epoch: mkt.epochAt(p), Specs: up,
		Alive: func(name string) bool { return mkt.isUp(name, p) },
	}
	for _, name := range order {
		obj := objects[name]
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

// runIdeal prices the per-period cheapest feasible placement with the
// load known a priori — the paper's baseline.
func runIdeal(sc workload.Scenario, cfg Config, mkt *market, res *Result) error {
	// The baseline always prices with the exact search, even when
	// Scalia's engine runs the pruned heuristic — Pruned is an engine
	// ablation, not a change to the ideal cost.
	planner := core.NewPlanner(cfg.PeriodHours, false)
	sizes := make(map[string]int64)
	alive := make(map[string]bool)
	var order []string

	var total float64
	for p := 0; p < sc.Periods(); p++ {
		_, up := mkt.specsAt(p)
		search, err := planner.Search(mkt.epochAt(p), up, cfg.Rule)
		if err != nil {
			return err
		}
		loadByObj := make(map[string]workload.PeriodLoad)
		for _, l := range sc.Load(p) {
			loadByObj[l.Object] = l
			if !alive[l.Object] {
				if _, seen := sizes[l.Object]; !seen {
					order = append(order, l.Object)
				}
				alive[l.Object] = true
				sizes[l.Object] = l.Size
			}
		}
		for _, name := range order {
			if !alive[name] {
				continue
			}
			l := loadByObj[name]
			l.Size = sizes[name]
			sum := periodSummary(l, true)
			best := search.Best(sum, 0, nil)
			if !best.Feasible {
				return fmt.Errorf("sim: ideal infeasible for %s at %d", name, p)
			}
			total += best.Price
			if l.Deleted {
				alive[name] = false
			}
		}
	}
	res.IdealUSD = total
	return nil
}

// staticCumulative prices the scenario on one fixed provider set and
// returns the per-period cumulative cost series. Objects are placed at
// creation on the reachable members of the set with the largest feasible
// threshold; placements never change afterwards (chunks at a failed
// provider stay there, §IV-E).
func staticCumulative(sc workload.Scenario, cfg Config, mkt *market, set StaticSet) ([]float64, error) {
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
			return nil, fmt.Errorf("sim: static set references unknown provider %q", n)
		}
		members = append(members, s)
	}

	placements := make(map[string]core.Placement)
	sizes := make(map[string]int64)
	alive := make(map[string]bool)
	var order []string

	var total float64
	out := make([]float64, 0, sc.Periods())
	for p := 0; p < sc.Periods(); p++ {
		loadByObj := make(map[string]workload.PeriodLoad)
		for _, l := range sc.Load(p) {
			loadByObj[l.Object] = l
			if _, ok := placements[l.Object]; !ok {
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
						return nil, fmt.Errorf("sim: static set %s entirely down at %d", set.Label(), p)
					}
				}
				placements[l.Object] = core.Placement{Providers: upMembers, M: m}
				sizes[l.Object] = l.Size
				alive[l.Object] = true
				order = append(order, l.Object)
			}
		}
		for _, name := range order {
			if !alive[name] {
				continue
			}
			l := loadByObj[name]
			l.Size = sizes[name]
			sum := periodSummary(l, true)
			total += placementPeriodCost(placements[name], mkt, p, sum, cfg.PeriodHours)
			if l.Deleted {
				alive[name] = false
			}
		}
		out = append(out, total)
	}
	return out, nil
}

// runStatic prices one fixed set, returning its total cost.
func runStatic(sc workload.Scenario, cfg Config, mkt *market, set StaticSet) (float64, error) {
	series, err := staticCumulative(sc, cfg, mkt, set)
	if err != nil {
		return 0, err
	}
	return series[len(series)-1], nil
}

// StaticCumulative prices one fixed set and returns the per-period
// cumulative cost series (Fig. 18's static curve).
func StaticCumulative(sc workload.Scenario, cfg Config, set StaticSet) ([]float64, error) {
	cfg.fill()
	mkt := &market{specs: cfg.Specs, arrivals: cfg.Arrivals, outages: cfg.Outages}
	return staticCumulative(sc, cfg, mkt, set)
}
