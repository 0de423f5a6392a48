package sim

import (
	"sort"

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
	// Pruned selects the heuristic placement search in Scalia's engine.
	Pruned bool
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
	// CumulativeScalia/CumulativeStatic hold per-period running totals
	// (Fig. 18); CumulativeStatic follows Config.StaticBaselines[0].
	CumulativeScalia []float64
	CumulativeStatic []float64
	// TrendRecomputations counts placement recomputation triggers.
	TrendRecomputations int
	// PlannerHits/PlannerMisses report the shared planner's prepared-
	// search cache effectiveness for the adaptive policy: misses equal
	// the number of market epochs the run saw, hits everything else.
	PlannerHits   uint64
	PlannerMisses uint64
}

// BestStatic returns the cheapest static baseline.
func (r *Result) BestStatic() StaticCost {
	best := r.Statics[0]
	for _, s := range r.Statics[1:] {
		if s.CostUSD < best.CostUSD {
			best = s
		}
	}
	return best
}

// WorstStatic returns the priciest static baseline.
func (r *Result) WorstStatic() StaticCost {
	worst := r.Statics[0]
	for _, s := range r.Statics[1:] {
		if s.CostUSD > worst.CostUSD {
			worst = s
		}
	}
	return worst
}

// simObject is the simulator's view of one stored object.
type simObject struct {
	name      string
	size      int64
	placement core.Placement
	hist      *stats.History
	ctl       *core.DecisionController
	alive     bool
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
	return len(prevAll) != len(curAll) || len(prevUp) != len(curUp) ||
		!sameNames(prevUp, curUp)
}

func sameNames(a, b []cloud.Spec) bool {
	if len(a) != len(b) {
		return false
	}
	an := make([]string, len(a))
	bn := make([]string, len(b))
	for i := range a {
		an[i], bn[i] = a[i].Name, b[i].Name
	}
	sort.Strings(an)
	sort.Strings(bn)
	for i := range an {
		if an[i] != bn[i] {
			return false
		}
	}
	return true
}

// Run simulates the scenario under cfg.
func Run(sc workload.Scenario, cfg Config) (*Result, error) {
	cfg.fill()
	if err := cfg.Rule.Validate(); err != nil {
		return nil, err
	}
	mkt := &market{specs: cfg.Specs, arrivals: cfg.Arrivals, outages: cfg.Outages}
	res := &Result{Scenario: sc.Name(), Periods: sc.Periods()}

	if err := runScalia(sc, cfg, mkt, res); err != nil {
		return nil, err
	}
	if err := runIdeal(sc, cfg, mkt, res); err != nil {
		return nil, err
	}
	for _, set := range cfg.StaticBaselines {
		cost, err := runStatic(sc, cfg, mkt, set)
		if err != nil {
			return nil, err
		}
		res.Statics = append(res.Statics, StaticCost{
			Index: set.Index, Label: set.Label(), CostUSD: cost,
		})
	}
	if res.IdealUSD > 0 {
		res.ScaliaOverPct = (res.ScaliaUSD/res.IdealUSD - 1) * 100
		for i := range res.Statics {
			res.Statics[i].OverPct = (res.Statics[i].CostUSD/res.IdealUSD - 1) * 100
		}
	}
	return res, nil
}

// periodSummary converts one period's actual load into a pricing summary.
func periodSummary(l workload.PeriodLoad, alive bool) stats.Summary {
	sum := stats.Summary{Periods: 1}
	sum.Reads = float64(l.Reads)
	sum.Writes = float64(l.Writes)
	sum.BytesOut = float64(l.Reads) * float64(l.Size)
	sum.BytesIn = float64(l.Writes) * float64(l.Size)
	if alive {
		sum.StorageBytes = float64(l.Size)
	}
	return sum
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
