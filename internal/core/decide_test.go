package core

import (
	"slices"
	"testing"

	"scalia/internal/cloud"
	"scalia/internal/stats"
)

// stepInput is everything one Decide call takes. The base case is a
// quiet 1 MB object, 48 periods old, sitting on the placement that is
// best for it on the paper market; each table row bends it.
type stepInput struct {
	dr    Decider
	o     Object
	m     Market
	rule  Rule
	why   Trigger
	reads int64 // per period over the last 6 periods
}

func (in *stepInput) decide() Decision {
	in.o.History = stats.NewHistory(0)
	in.o.History.Record(stats.Sample{Period: 0, Writes: 1, BytesIn: in.o.Size, StorageBytes: in.o.Size})
	for p := in.m.Now - 5; p <= in.m.Now && in.reads > 0; p++ {
		in.o.History.Record(stats.Sample{Period: p, Reads: in.reads, BytesOut: in.reads * in.o.Size, StorageBytes: in.o.Size})
	}
	search, _ := in.dr.Planner.Search(in.m.Epoch, in.m.Specs, in.rule)
	return in.dr.Decide(in.o, in.m, in.rule, search, in.why)
}

// kill takes provider name out of the market, as its outage's market
// event does.
func (in *stepInput) kill(name string) {
	in.m.Specs = removeByName(in.m.Specs, name)
}

func TestDecideStep(t *testing.T) {
	slashdot := Rule{Durability: 0.99999, Availability: 0.9999, LockIn: 1}
	best := func(specs []cloud.Spec, rule Rule, size int64) Placement {
		res, err := BestPlacement(specs, rule, coldLoad(size), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Placement
	}
	all5 := Placement{M: 3, Providers: cloud.PaperProviders()}
	cheapStorArrives := func(in *stepInput) {
		in.o.Size = 40 << 20
		in.o.Current = best(in.m.Specs, in.rule, in.o.Size)
		in.m.Specs = append(in.m.Specs, cloud.CheapStorProvider())
	}
	cases := []struct {
		name   string
		bend   func(in *stepInput)
		action Action
		reason string
		check  func(t *testing.T, in *stepInput, dec Decision)
	}{
		{name: "quiet object", action: Keep, reason: ReasonAlreadyBest},
		{name: "flash crowd", bend: func(in *stepInput) { in.reads = 150 }, action: Migrate,
			check: func(t *testing.T, in *stepInput, dec Decision) {
				if dec.Target.M != 1 || dec.MigrationCost <= 0 {
					t.Fatalf("hot object goes to %v for $%v, want a read-optimized m:1 set", dec.Target, dec.MigrationCost)
				}
			}},
		{name: "capacity excludes the otherwise-best set", bend: func(in *stepInput) {
			in.reads, in.o.FitBytes = 150, in.o.Size
			in.m.Free = map[string]int64{"S3(h)": 1}
		}, action: Migrate, check: func(t *testing.T, in *stepInput, dec Decision) {
			if dec.Target.Has("S3(h)") {
				t.Fatalf("target %v uses a provider with no room for the chunk", dec.Target)
			}
		}},
		// §IV-D: CheapStor arrives; the storage saving on 40 MB is real but slow.
		{name: "saving below migration cost", bend: cheapStorArrives, action: Keep, reason: ReasonNoPayback},
		{name: "the same saving over a long horizon", bend: func(in *stepInput) {
			cheapStorArrives(in)
			in.dr.MigrationHorizon = 5000
		}, action: Migrate},
		{name: "the same saving over a long life", bend: func(in *stepInput) {
			cheapStorArrives(in)
			in.o.TTL = 5000
		}, action: Migrate},
		// PR 14's bug: staying put must be priced with today's price sheet.
		{name: "price rise on a held provider", bend: func(in *stepInput) {
			in.dr.MigrationHorizon = 1_000_000
			name := in.o.Current.Providers[0].Name
			in.m.Specs, in.o.Current.Providers = slices.Clone(in.m.Specs), slices.Clone(in.o.Current.Providers)
			for _, specs := range [][]cloud.Spec{in.m.Specs, in.o.Current.Providers} {
				i := slices.IndexFunc(specs, func(s cloud.Spec) bool { return s.Name == name })
				specs[i].Pricing.StorageGBMonth *= 1000
			}
		}, action: Migrate, check: func(t *testing.T, in *stepInput, dec Decision) {
			if dec.Target.Has(in.o.Current.Providers[0].Name) {
				t.Fatalf("target %v keeps the provider that raised its price", dec.Target)
			}
		}},
		{name: "dead slot with a spare", bend: func(in *stepInput) {
			in.rule.LockIn, in.why = 1.0/3, Repairing
			in.o.Current = Placement{M: 2, Providers: pick("S3(h)", "Azu", "Ggl")}
			in.kill("Azu")
		}, action: Swap, check: func(t *testing.T, in *stepInput, dec Decision) {
			if !slices.Equal(dec.Replaced, []int{1}) || !slices.ContainsFunc(in.m.Specs, func(s cloud.Spec) bool { return s.Name == dec.Target.Providers[1].Name }) ||
				dec.Target.M != in.o.Current.M || dec.Target.N() != in.o.Current.N() ||
				dec.Target.Providers[0].Name != in.o.Current.Providers[0].Name {
				t.Fatalf("swap of %v rewrites slots %v onto %v", in.o.Current, dec.Replaced, dec.Target)
			}
		}},
		{name: "dead slot, no spare", bend: func(in *stepInput) {
			in.rule.LockIn, in.why, in.o.Current = 0.5, Repairing, all5
			in.kill("RS")
		}, action: Restripe, check: func(t *testing.T, in *stepInput, dec Decision) {
			if dec.Target.Has("RS") || dec.Replaced != nil {
				t.Fatalf("re-stripe onto %v (replaced %v)", dec.Target, dec.Replaced)
			}
		}},
		{name: "nothing feasible to repair onto", bend: func(in *stepInput) {
			in.rule.LockIn, in.why, in.o.Current = 0.2, Repairing, all5
			in.kill("RS")
		}, action: Keep, reason: ReasonInfeasible},
		{name: "rule the market cannot satisfy", bend: func(in *stepInput) { in.rule.LockIn = 0.1 },
			action: Keep, reason: ReasonInfeasible},
		{name: "controller not due", bend: func(in *stepInput) {
			in.o.Ctl.Update(1, in.o.Ctl.Candidates(0)) // D adequate: T = 2, next tick is not due
		}, action: Keep, reason: ReasonAlreadyBest, check: func(t *testing.T, in *stepInput, dec Decision) {
			search, _ := in.dr.Planner.Search(in.m.Epoch, in.m.Specs, in.rule)
			if one := search.Best(coldLoad(in.o.Size), 0, nil).Evaluated; dec.Evaluated != one {
				t.Fatalf("evaluated %d sets, want the %d of one search and no coupling probe", dec.Evaluated, one)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := &stepInput{
				dr:   Decider{Planner: NewPlanner(1), MigrationCost: MigrationCost},
				o:    Object{Ctl: NewDecisionController(24, 0), Size: 1 << 20},
				m:    Market{Now: 48, Epoch: 1, Specs: cloud.PaperProviders()},
				rule: slashdot,
			}
			in.o.Current = best(in.m.Specs, in.rule, in.o.Size)
			if c.bend != nil {
				c.bend(in)
			}
			dec := in.decide()
			if dec.Action != c.action || dec.Reason != c.reason {
				t.Fatalf("decision = %+v, want action %d reason %q", dec, c.action, c.reason)
			}
			if dec.Action == Keep && (dec.Target.N() != 0 || dec.MigrationCost != 0) || dec.D < MinDecisionPeriod {
				t.Fatalf("malformed decision %+v", dec)
			}
			if c.check != nil {
				c.check(t, in, dec)
			}
		})
	}
}
