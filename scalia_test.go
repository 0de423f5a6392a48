package scalia_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"scalia"
	"scalia/internal/apitest"
	"scalia/internal/engine"
)

var ctx = context.Background()

func newClient(t *testing.T, opts scalia.Options) *scalia.Client {
	t.Helper()
	c, err := scalia.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestConformance runs the v1 contract suite against the embedded facade.
func TestConformance(t *testing.T) {
	apitest.Run(t, func(t *testing.T, opts scalia.Options) (scalia.API, *engine.Broker) {
		c := newClient(t, opts)
		return c, c.Broker()
	})
}

// TestFacadeRuleOptions: a per-object rule is an embedded-only write
// option (it has no wire form).
func TestFacadeRuleOptions(t *testing.T) {
	c := newClient(t, scalia.Options{})
	rule := scalia.Rule{Name: "wide", Durability: 0.99999, Availability: 0.99, LockIn: 0.2}
	meta, err := c.Put(ctx, "c", "k", make([]byte, 4096), scalia.WithRule(rule), scalia.WithTTL(48))
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Chunks) < 5 {
		t.Fatalf("lock-in 0.2 demands 5 providers, got %v", meta.Chunks)
	}
	if meta.TTLHours != 48 {
		t.Fatalf("TTL = %v", meta.TTLHours)
	}
}

func TestFacadeInvalidDefaultRule(t *testing.T) {
	if _, err := scalia.New(scalia.Options{DefaultRule: scalia.Rule{LockIn: 2}}); err == nil {
		t.Fatal("invalid rule must be rejected")
	}
	c := newClient(t, scalia.Options{})
	if err := c.SetDefaultRule(scalia.Rule{LockIn: -1}); err == nil {
		t.Fatal("invalid default rule accepted")
	}
}

// TestFacadeEmbeddedControls covers what sits below the contract on the
// facade: simulated-time billing, the cost/usage getters, the placement
// view and the explicit maintenance drains.
func TestFacadeEmbeddedControls(t *testing.T) {
	c := newClient(t, scalia.Options{})
	meta, err := c.Put(ctx, "c", "k", make([]byte, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(ctx, "c", "k"); err != nil {
		t.Fatal(err)
	}
	c.AccrueStorage(1)
	if c.TotalCost() <= 0 {
		t.Fatal("usage must have accrued cost")
	}
	if u := c.TotalUsage(); u.BandwidthOutGB <= 0 || u.Ops <= 0 || u.StorageGBHours <= 0 {
		t.Fatalf("usage = %+v", u)
	}
	if p, ok := c.CurrentPlacement("c", "k"); !ok || p.M != meta.M || p.N() != len(meta.Chunks) {
		t.Fatalf("CurrentPlacement = %v, %v; stored %+v", p, ok, meta)
	}
	// An outage queues the object for re-planning and postpones the
	// delete of its chunk at the dead provider; both drains are explicit
	// without background workers.
	if _, err := c.SetProviderAvailable(ctx, meta.Chunks[0], false); err != nil {
		t.Fatal(err)
	}
	if n := c.DrainMaintenance(ctx); n != 1 {
		t.Fatalf("DrainMaintenance = %d, want the one invalidated object", n)
	}
	if err := c.Delete(ctx, "c", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetProviderAvailable(ctx, meta.Chunks[0], true); err != nil {
		t.Fatal(err)
	}
	c.ProcessPendingDeletes(ctx)
	if st, _ := c.Stats(ctx); st.PendingDeletes != 0 || st.Maint.Drained != 1 {
		t.Fatalf("after the drains: %d pending deletes, maint %+v", st.PendingDeletes, st.Maint)
	}
}

func TestPaperTables(t *testing.T) {
	if got := len(scalia.PaperProviders()); got != 5 {
		t.Fatalf("PaperProviders = %d", got)
	}
	if got := len(scalia.PaperRules()); got != 3 {
		t.Fatalf("PaperRules = %d", got)
	}
}

// TestConcurrentRoundRobin is the -race regression for the engine()
// round-robin counter: Put/Get/Delete from many goroutines must neither
// race nor skew the rotation out of range.
func TestConcurrentRoundRobin(t *testing.T) {
	c := newClient(t, scalia.Options{EnginesPerDC: 3})
	if _, err := c.Put(ctx, "c", "shared", bytes.Repeat([]byte("x"), 4096)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("own-%d", g)
			for i := 0; i < 25; i++ {
				if _, err := c.Put(ctx, "c", key, []byte("payload")); err != nil {
					errs <- err
					return
				}
				if _, _, err := c.Get(ctx, "c", "shared"); err != nil {
					errs <- err
					return
				}
				if _, _, err := c.Get(ctx, "c", key); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMarketEventsInvalidateCachedSearches is the §IV-D CheapStor
// regression: AddProvider / SetProviderAvailable / RemoveProvider
// mid-run must bump the market epoch and invalidate the broker's cached
// placement searches, so the next Optimize() (and the next write) sees
// the new market instead of a stale one.
func TestMarketEventsInvalidateCachedSearches(t *testing.T) {
	clock := engine.NewSimClock()
	c := newClient(t, scalia.Options{Clock: clock, DecisionPeriod: 4, MigrationHorizon: 5000})
	reg := c.Broker().Registry()
	rule := scalia.Rule{Name: "lockin", Durability: 0.99999, Availability: 0.99, LockIn: 0.2}
	payload := bytes.Repeat([]byte("b"), 40<<20) // 40 MB backup object
	if _, err := c.Put(ctx, "bk", "o", payload, scalia.WithRule(rule)); err != nil {
		t.Fatal(err)
	}
	before, _ := c.CurrentPlacement("bk", "o")
	if before.Has("CheapStor") {
		t.Fatal("CheapStor not in the market yet")
	}

	// Arrival: the epoch must move and the optimizer must migrate onto
	// the cheaper provider, as in the paper's Fig. 17 scenario.
	e0 := reg.Epoch()
	if err := c.AddProvider(ctx, scalia.Provider{
		Name: "CheapStor", Durability: 0.999999, Availability: 0.999,
		Zones:   []scalia.Zone{scalia.ZoneUS},
		Pricing: scalia.Pricing{StorageGBMonth: 0.09, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
	}); err != nil {
		t.Fatal(err)
	}
	if reg.Epoch() == e0 {
		t.Fatal("AddProvider must bump the market epoch")
	}
	clock.Advance(1)
	c.Get(ctx, "bk", "o")
	clock.Advance(1)
	c.Get(ctx, "bk", "o")
	for i := 0; i < 6; i++ {
		clock.Advance(1)
		if _, err := c.Optimize(ctx); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := c.CurrentPlacement("bk", "o")
	if !after.Has("CheapStor") {
		t.Fatalf("placement %v ignores the arrival; cached search went stale", after)
	}

	// Outage through the facade: epoch bump, planner rebuild, and the
	// next write plans around the down provider.
	e1 := reg.Epoch()
	miss0 := c.Broker().Planner().Stats().Misses
	if mut, err := c.SetProviderAvailable(ctx, "CheapStor", false); err != nil || mut.Epoch != reg.Epoch() {
		t.Fatalf("SetProviderAvailable = %+v, %v", mut, err)
	}
	if reg.Epoch() == e1 {
		t.Fatal("SetProviderAvailable must bump the market epoch")
	}
	meta, err := c.Put(ctx, "bk", "fresh", bytes.Repeat([]byte("x"), 4096), scalia.WithRule(rule))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range meta.Chunks {
		if name == "CheapStor" {
			t.Fatal("write placed a chunk on the down provider")
		}
	}
	if c.Broker().Planner().Stats().Misses == miss0 {
		t.Fatal("outage must invalidate the cached search (expected a planner miss)")
	}

	// Departure: epoch bump and the market shrinks for good.
	e2 := reg.Epoch()
	if err := c.RemoveProvider(ctx, "CheapStor"); err != nil {
		t.Fatal(err)
	}
	if reg.Epoch() == e2 {
		t.Fatal("RemoveProvider must bump the market epoch")
	}
	if _, specs, _ := reg.Market(); len(specs) != 5 {
		t.Fatalf("market after departure = %d providers, want 5", len(specs))
	}
}
