package sim

import (
	"fmt"
	"slices"

	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/stats"
	"scalia/internal/workload"
)

// Arrival registers a new provider mid-experiment (§IV-D).
type Arrival struct {
	Spec     cloud.Spec
	AtPeriod int
}

// Outage makes a provider unreachable during [From, To) (§IV-E).
type Outage struct {
	Provider string
	From, To int
}

// Config parameterizes a simulation run.
type Config struct {
	// Specs is the initial provider market (default: the Fig. 3 five).
	Specs []cloud.Spec
	// Rule is the customer rule applied to every object of the scenario.
	Rule core.Rule
	// PeriodHours is the sampling-period length (default 1).
	PeriodHours float64
	// DecisionPeriod is the initial D_obj (default 24).
	DecisionPeriod int
	// MigrationHorizon stretches the migration payback horizon (periods).
	MigrationHorizon int
	// Arrivals and Outages inject market/membership events.
	Arrivals []Arrival
	Outages  []Outage
	// ActiveRepair moves chunks away from failed providers instead of
	// waiting out the outage (§IV-E).
	ActiveRepair bool
	// StaticBaselines prices the scenario on these fixed sets; use
	// StaticSets() for the full Fig. 13 sweep.
	StaticBaselines []StaticSet
	// TrackResources enables the per-period resource series (Figs. 12/15/17).
	TrackResources bool
	// MigrationBilling selects how migrations are priced. The default
	// (BillFull) charges provider bandwidth for every moved byte.
	// BillOpsOnly charges only the operations — the accounting the
	// paper's §IV-D/§IV-E results imply (see EXPERIMENTS.md: under full
	// billing the ~80 chunk moves of the CheapStor experiment alone cost
	// ~21% of the experiment total, versus the paper's reported 0.35%).
	MigrationBilling MigrationBilling
}

// MigrationBilling modes.
type MigrationBilling int

// Billing modes for migration traffic.
const (
	BillFull MigrationBilling = iota
	BillOpsOnly
)

func (c *Config) fill() {
	if len(c.Specs) == 0 {
		c.Specs = cloud.PaperProviders()
	}
	if c.PeriodHours <= 0 {
		c.PeriodHours = 1
	}
	if c.DecisionPeriod <= 0 {
		c.DecisionPeriod = core.DefaultDecisionPeriod
	}
}

// SeriesPoint is one period of the Fig. 12/15/17 resource series.
type SeriesPoint struct {
	Period    int
	StorageGB float64 // GB held at providers (with erasure overhead)
	BwInGB    float64 // GB uploaded this period
	BwOutGB   float64 // GB downloaded this period
}

// StaticCost is the priced outcome of one fixed provider set.
type StaticCost struct {
	Index   int
	Label   string
	CostUSD float64
	OverPct float64
}

// PlacementChange records one Scalia migration for the experiment log.
type PlacementChange struct {
	Period int
	Object string
	From   string
	To     string
	Reason string
}

// Result aggregates a simulation run.
type Result struct {
	Scenario  string
	Periods   int
	IdealUSD  float64
	ScaliaUSD float64
	// ScaliaOverPct = (ScaliaUSD/IdealUSD - 1) * 100.
	ScaliaOverPct float64
	MigrationUSD  float64
	Migrations    int
	Statics       []StaticCost
	Resources     []SeriesPoint
	Changes       []PlacementChange
	// CumulativeScalia holds Scalia's per-period running total (Fig. 18).
	CumulativeScalia []float64
	// TrendRecomputations counts placement recomputation triggers.
	TrendRecomputations int
	// PlannerHits/PlannerMisses report the shared planner's prepared-
	// search cache effectiveness for the adaptive policy: misses equal
	// the number of market epochs the run saw, hits everything else.
	PlannerHits   uint64
	PlannerMisses uint64
}

// simObject is the simulator's view of one stored object. The replay
// driver owns name, size and alive; placement, hist and ctl belong to
// the policy being priced.
type simObject struct {
	name      string
	size      int64
	placement core.Placement
	hist      *stats.History
	ctl       *core.DecisionController
	alive     bool
}

// policy is what differs between Scalia, the ideal baseline and a
// static set: how an object is placed, what one object-period on that
// placement costs, and what the policy does about it afterwards.
type policy struct {
	// planner, when set, makes replay hand every step the period's
	// prepared search on the reachable market.
	planner *core.Planner
	// place runs when an object is created — or re-created after a
	// delete; nil places nothing.
	place func(obj *simObject, p int, search *core.Search) error
	// price bills one object-period of a live object; l carries the
	// object's size, and zero load when the scenario names no access.
	price func(obj *simObject, l workload.PeriodLoad, p int, search *core.Search) (float64, error)
	// adapt closes period p over every object seen so far, dead or alive,
	// in first-seen order, and returns what it spent; nil adapts nothing.
	adapt func(objects []*simObject, p int, search *core.Search) float64
}

// replay drives one policy through the scenario and returns its total
// and per-period cumulative cost. It owns what the policies share —
// period iteration, object lifecycle and the books: an object is created
// by the first load that names it, keeps that size, is billed every
// period it is alive in first-seen order, dies at the end of the period
// that deletes it, and a later load re-creates it (at that load's size)
// in its original position.
func replay(sc workload.Scenario, cfg Config, mkt *market, pol policy) (total float64, series []float64, err error) {
	byName := make(map[string]*simObject)
	var objects []*simObject
	for p := 0; p < sc.Periods(); p++ {
		var search *core.Search
		if pol.planner != nil {
			_, up := mkt.specsAt(p)
			if search, err = pol.planner.Search(mkt.epochAt(p), up, cfg.Rule); err != nil {
				return 0, nil, fmt.Errorf("sim: period %d: %w", p, err)
			}
		}
		loads := sc.Load(p)
		loadByObj := make(map[string]workload.PeriodLoad, len(loads))
		for _, l := range loads {
			loadByObj[l.Object] = l
			obj, seen := byName[l.Object]
			if seen && obj.alive {
				continue
			}
			if !seen {
				obj = &simObject{name: l.Object}
				byName[l.Object] = obj
				objects = append(objects, obj)
			}
			obj.size, obj.alive = l.Size, true
			if pol.place != nil {
				if err := pol.place(obj, p, search); err != nil {
					return 0, nil, err
				}
			}
		}
		var period float64
		for _, obj := range objects {
			if !obj.alive {
				continue
			}
			l := loadByObj[obj.name]
			l.Size = obj.size
			cost, err := pol.price(obj, l, p, search)
			if err != nil {
				return 0, nil, err
			}
			period += cost
			if l.Deleted {
				obj.alive = false
			}
		}
		if pol.adapt != nil {
			period += pol.adapt(objects, p, search)
		}
		total += period
		series = append(series, total)
	}
	return total, series, nil
}

// market tracks provider membership and reachability over time.
type market struct {
	specs    []cloud.Spec
	arrivals []Arrival
	outages  []Outage
	// epochs[p] is the market epoch at period p: it increments on every
	// membership change (arrival, outage start, recovery), mirroring
	// cloud.Registry's epoch so the shared core.Planner can key prepared
	// searches. Built lazily; the sim is single-threaded.
	epochs []uint64
}

// epochAt returns the market epoch at period p.
func (m *market) epochAt(p int) uint64 {
	for len(m.epochs) <= p {
		q := len(m.epochs)
		if q == 0 {
			m.epochs = append(m.epochs, 0)
			continue
		}
		e := m.epochs[q-1]
		if m.membershipChanged(q) {
			e++
		}
		m.epochs = append(m.epochs, e)
	}
	return m.epochs[p]
}

// specsAt returns (registered, reachable) providers at period p.
func (m *market) specsAt(p int) (all, up []cloud.Spec) {
	all = append(all, m.specs...)
	for _, a := range m.arrivals {
		if p >= a.AtPeriod {
			all = append(all, a.Spec)
		}
	}
	for _, s := range all {
		if m.isUp(s.Name, p) {
			up = append(up, s)
		}
	}
	return all, up
}

func (m *market) isUp(name string, p int) bool {
	for _, o := range m.outages {
		if o.Provider == name && p >= o.From && p < o.To {
			return false
		}
	}
	return true
}

// membershipChanged reports whether the provider market differs between
// consecutive periods (arrival, failure, recovery) — the paper's other
// recompute trigger besides access-pattern change.
func (m *market) membershipChanged(p int) bool {
	if p == 0 {
		return false
	}
	prevAll, prevUp := m.specsAt(p - 1)
	curAll, curUp := m.specsAt(p)
	// Both views list providers in registration order, so equal sets are
	// equal sequences.
	return len(prevAll) != len(curAll) ||
		!slices.EqualFunc(prevUp, curUp, func(a, b cloud.Spec) bool { return a.Name == b.Name })
}

// Run simulates the scenario under cfg.
func Run(sc workload.Scenario, cfg Config) (*Result, error) {
	cfg.fill()
	if err := cfg.Rule.Validate(); err != nil {
		return nil, err
	}
	mkt := &market{specs: cfg.Specs, arrivals: cfg.Arrivals, outages: cfg.Outages}
	res := &Result{Scenario: sc.Name(), Periods: sc.Periods()}

	var err error
	if res.ScaliaUSD, res.CumulativeScalia, err = runScalia(sc, cfg, mkt, res); err != nil {
		return nil, err
	}
	res.IdealUSD, _, err = replay(sc, cfg, mkt, policy{
		planner: core.NewPlanner(cfg.PeriodHours),
		price: func(obj *simObject, l workload.PeriodLoad, p int, search *core.Search) (float64, error) {
			best := search.Best(periodSummary(l), 0, nil)
			if !best.Feasible {
				return 0, fmt.Errorf("sim: ideal infeasible for %s at %d", obj.name, p)
			}
			return best.Price, nil
		},
	})
	if err != nil {
		return nil, err
	}
	for _, set := range cfg.StaticBaselines {
		cost, _, err := runStatic(sc, cfg, mkt, set)
		if err != nil {
			return nil, err
		}
		res.Statics = append(res.Statics, StaticCost{Index: set.Index, Label: set.Label(), CostUSD: cost})
	}
	if res.IdealUSD > 0 {
		res.ScaliaOverPct = (res.ScaliaUSD/res.IdealUSD - 1) * 100
		for i := range res.Statics {
			res.Statics[i].OverPct = (res.Statics[i].CostUSD/res.IdealUSD - 1) * 100
		}
	}
	return res, nil
}

// periodSummary converts one period's actual load of a live object into
// a pricing summary.
func periodSummary(l workload.PeriodLoad) stats.Summary {
	return stats.Summary{
		Periods:      1,
		Reads:        float64(l.Reads),
		Writes:       float64(l.Writes),
		BytesOut:     float64(l.Reads) * float64(l.Size),
		BytesIn:      float64(l.Writes) * float64(l.Size),
		StorageBytes: float64(l.Size),
	}
}

// reachablePlacement restricts a placement to reachable providers for
// the read path; storage is still billed at every provider holding a
// chunk. ok is false when fewer than m chunks are reachable.
func reachablePlacement(p core.Placement, mkt *market, period int) (core.Placement, bool) {
	up := core.Placement{M: p.M}
	for _, s := range p.Providers {
		if mkt.isUp(s.Name, period) {
			up.Providers = append(up.Providers, s)
		}
	}
	return up, up.N() >= p.M
}

// placementPeriodCost prices one object-period under outages: storage
// accrues at all n providers; reads are served by the m cheapest
// reachable ones; writes upload to all n (the simulator only bills
// writes at creation, when placements never include down providers).
func placementPeriodCost(p core.Placement, mkt *market, period int, load stats.Summary, periodHours float64) float64 {
	storageOnly := load
	storageOnly.Reads, storageOnly.BytesOut = 0, 0
	cost := core.PeriodCost(p, storageOnly, periodHours)
	if load.Reads > 0 {
		up, ok := reachablePlacement(p, mkt, period)
		if !ok {
			return cost // reads fail; no transfer billed
		}
		readOnly := load
		readOnly.Writes, readOnly.BytesIn, readOnly.StorageBytes = 0, 0, 0
		cost += core.PeriodCost(up, readOnly, periodHours)
	}
	return cost
}
