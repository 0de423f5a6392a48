package cloud

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

var ctx = context.Background()

func TestPaperProvidersTable(t *testing.T) {
	specs := PaperProviders()
	if len(specs) != 5 {
		t.Fatalf("got %d providers, want 5", len(specs))
	}
	// Spot-check the Fig. 3 rows.
	byName := map[string]Spec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	s3h := byName[NameS3High]
	if s3h.Pricing.StorageGBMonth != 0.14 || s3h.Durability != 0.99999999999 {
		t.Errorf("S3(h) row mismatch: %+v", s3h)
	}
	s3l := byName[NameS3Low]
	if s3l.Pricing.StorageGBMonth != 0.093 || s3l.Durability != 0.9999 {
		t.Errorf("S3(l) row mismatch: %+v", s3l)
	}
	rs := byName[NameRackspace]
	if rs.Pricing.OpsPer1000 != 0.0 || rs.Pricing.BandwidthOutGB != 0.18 || rs.Pricing.BandwidthInGB != 0.08 {
		t.Errorf("RS row mismatch: %+v", rs)
	}
	ggl := byName[NameGoogle]
	if ggl.Pricing.StorageGBMonth != 0.17 {
		t.Errorf("Ggl row mismatch: %+v", ggl)
	}
	for _, s := range specs {
		if s.Availability != 0.999 {
			t.Errorf("%s availability = %v, want 0.999", s.Name, s.Availability)
		}
	}
}

// TestSpecValidate: every spec the market ships with is valid, and so is
// a provider that charges nothing; each field out of its range is not.
func TestSpecValidate(t *testing.T) {
	for _, s := range append(PaperProviders(), CheapStorProvider(), Spec{Name: "free"}) {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	good := PaperProviders()[0]
	for name, bad := range map[string]func(*Spec){
		"no name":              func(s *Spec) { s.Name = "" },
		"durability above 1":   func(s *Spec) { s.Durability = 1.5 },
		"durability below 0":   func(s *Spec) { s.Durability = -0.1 },
		"durability NaN":       func(s *Spec) { s.Durability = math.NaN() },
		"availability above 1": func(s *Spec) { s.Availability = 1.0001 },
		"availability below 0": func(s *Spec) { s.Availability = -3 },
		"negative chunk bound": func(s *Spec) { s.MaxChunkBytes = -1 },
		"negative capacity":    func(s *Spec) { s.CapacityBytes = -1 },
		"negative storage":     func(s *Spec) { s.Pricing.StorageGBMonth = -0.01 },
		"negative ingress":     func(s *Spec) { s.Pricing.BandwidthInGB = -0.01 },
		"negative egress":      func(s *Spec) { s.Pricing.BandwidthOutGB = -0.01 },
		"negative ops":         func(s *Spec) { s.Pricing.OpsPer1000 = -0.01 },
		"infinite storage":     func(s *Spec) { s.Pricing.StorageGBMonth = math.Inf(1) },
		"NaN egress":           func(s *Spec) { s.Pricing.BandwidthOutGB = math.NaN() },
		"-Inf ops":             func(s *Spec) { s.Pricing.OpsPer1000 = math.Inf(-1) },
	} {
		s := good
		bad(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: %+v validated", name, s)
		}
		if perr := s.Pricing.Validate(); (perr != nil) != (s.Pricing != good.Pricing) {
			t.Errorf("%s: Pricing.Validate = %v", name, perr)
		}
	}
}

func TestZones(t *testing.T) {
	byName := map[string]Spec{}
	for _, s := range PaperProviders() {
		byName[s.Name] = s
	}
	if !byName[NameS3High].HasZone(ZoneEU) || !byName[NameS3High].HasZone(ZoneAPAC) {
		t.Error("S3(h) must serve EU and APAC")
	}
	if byName[NameAzure].HasZone(ZoneEU) {
		t.Error("Azure serves only US in Fig. 3")
	}
	if !byName[NameAzure].ServesAny(nil) {
		t.Error("empty zone request must match any provider")
	}
	if byName[NameAzure].ServesAny([]Zone{ZoneEU}) {
		t.Error("Azure must not match an EU-only request")
	}
	if !byName[NameS3Low].ServesAny([]Zone{ZoneEU, ZoneUS}) {
		t.Error("S3(l) must match EU,US request")
	}
}

func TestCheapStor(t *testing.T) {
	cs := CheapStorProvider()
	if cs.Pricing.StorageGBMonth != 0.09 {
		t.Errorf("CheapStor storage price = %v, want 0.09", cs.Pricing.StorageGBMonth)
	}
}

func TestUsageCost(t *testing.T) {
	p := Pricing{StorageGBMonth: 0.10, BandwidthInGB: 0.05, BandwidthOutGB: 0.20, OpsPer1000: 0.01}
	u := Usage{StorageGBHours: HoursPerMonth * 2, BandwidthInGB: 4, BandwidthOutGB: 3, Ops: 5000}
	want := 2*0.10 + 4*0.05 + 3*0.20 + 5*0.01
	if got := u.Cost(p); math.Abs(got-want) > 1e-12 {
		t.Errorf("Cost = %v, want %v", got, want)
	}
}

func TestUsageAddCommutes(t *testing.T) {
	f := func(a1, a2, b1, b2 float64, o1, o2 int64) bool {
		u1 := Usage{StorageGBHours: a1, BandwidthInGB: a2, Ops: o1}
		u2 := Usage{BandwidthOutGB: b1, BandwidthInGB: b2, Ops: o2}
		x, y := u1, u2
		x.Add(u2)
		y.Add(u1)
		return x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBlobStoreCopiesInAndNeverMutates is the Store contract on bytes:
// Put and PutBatch do not retain the caller's buffer, and Get lends the
// stored slice itself, which the store never writes again — a slice
// obtained before its key was overwritten or deleted keeps its bytes.
func TestBlobStoreCopiesInAndNeverMutates(t *testing.T) {
	s := NewBlobStore(Spec{Name: "t"})
	data, batched := []byte{1, 2, 3}, []byte{4, 5, 6}
	s.Put(ctx, "k", data)
	s.PutBatch(ctx, []BatchItem{{Key: "b", Data: batched}})
	data[0], batched[0] = 99, 99
	if got, _ := s.Get(ctx, "k"); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("stored %v after the caller reused its buffer: Put must copy in", got)
	}
	if got, _ := s.Get(ctx, "b"); !bytes.Equal(got, []byte{4, 5, 6}) {
		t.Fatalf("stored %v after the caller reused its buffer: PutBatch must copy in", got)
	}
	for name, drop := range map[string]func() error{
		"Put":      func() error { return s.Put(ctx, "k", []byte{7, 8, 9}) },
		"PutBatch": func() error { return s.PutBatch(ctx, []BatchItem{{Key: "k", Data: []byte{7, 8, 9}}}) },
		"Delete":   func() error { return s.Delete(ctx, "k") },
	} {
		s.Put(ctx, "k", []byte{1, 2, 3})
		held, err := s.Get(ctx, "k")
		if err != nil {
			t.Fatal(err)
		}
		if err := drop(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(held, []byte{1, 2, 3}) {
			t.Errorf("%s changed a slice handed out before it to %v", name, held)
		}
		if now, err := s.Get(ctx, "k"); err == nil && bytes.Equal(now, held) {
			t.Errorf("%s left the old bytes stored", name)
		}
	}
}

func TestBlobStoreChunkLimit(t *testing.T) {
	s := NewBlobStore(Spec{Name: "t", MaxChunkBytes: 10})
	if err := s.Put(ctx, "big", make([]byte, 11)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("expected ErrTooLarge, got %v", err)
	}
	if err := s.Put(ctx, "ok", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
}

func TestMetering(t *testing.T) {
	s := NewBlobStore(Spec{Name: "t"})
	s.Put(ctx, "k", make([]byte, 1e6))
	s.Get(ctx, "k")
	s.Get(ctx, "k")
	s.AccrueStorage(2)
	u := s.Meter().Snapshot()
	if u.Ops != 3 {
		t.Errorf("Ops = %d, want 3", u.Ops)
	}
	if math.Abs(u.BandwidthInGB-0.001) > 1e-9 {
		t.Errorf("BandwidthInGB = %v, want 0.001", u.BandwidthInGB)
	}
	if math.Abs(u.BandwidthOutGB-0.002) > 1e-9 {
		t.Errorf("BandwidthOutGB = %v, want 0.002", u.BandwidthOutGB)
	}
	if math.Abs(u.StorageGBHours-0.002) > 1e-9 {
		t.Errorf("StorageGBHours = %v, want 0.002", u.StorageGBHours)
	}
}

func TestMeterReset(t *testing.T) {
	var m Meter
	m.RecordIn(1e9)
	u := m.Reset()
	if u.BandwidthInGB != 1 || u.Ops != 1 {
		t.Fatalf("Reset returned %v", u)
	}
	if after := m.Snapshot(); after != (Usage{}) {
		t.Fatalf("meter not zeroed: %v", after)
	}
}

func TestBlobStoreConcurrent(t *testing.T) {
	s := NewBlobStore(Spec{Name: "t"})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			key := string([]byte{'k', id})
			for j := 0; j < 100; j++ {
				if err := s.Put(ctx, key, []byte{id, byte(j)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get(ctx, key); err != nil {
					t.Error(err)
					return
				}
			}
		}(byte(i))
	}
	wg.Wait()
	if s.ObjectCount() != 8 {
		t.Fatalf("ObjectCount = %d, want 8", s.ObjectCount())
	}
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewPaperRegistry()
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	r.Register(NewBlobStore(CheapStorProvider()))
	if r.Len() != 6 {
		t.Fatalf("Len after register = %d, want 6", r.Len())
	}
	if _, ok := r.Store(NameCheapStor); !ok {
		t.Fatal("CheapStor not found after Register")
	}
	if _, ok := r.Deregister(NameCheapStor); !ok {
		t.Fatal("Deregister failed")
	}
	if _, ok := r.Store(NameCheapStor); ok {
		t.Fatal("CheapStor still present after Deregister")
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewPaperRegistry()
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Spec().Name >= snap[i].Spec().Name {
			t.Fatal("Snapshot must be sorted by name")
		}
	}
}

func TestRegistryTotals(t *testing.T) {
	r := NewPaperRegistry()
	for _, name := range []string{NameS3High, NameGoogle} {
		s, _ := r.Store(name)
		s.Put(ctx, "k", make([]byte, 1e6))
	}
	// 1 MB held for 1000 months is one GB-month per store: the sums
	// below are the ones 1 GB for a month would give, without the 4 GB.
	r.AccrueStorage(1000 * HoursPerMonth)
	u := r.TotalUsage()
	if math.Abs(u.StorageGBHours-2*HoursPerMonth) > 1e-6 {
		t.Errorf("StorageGBHours = %v", u.StorageGBHours)
	}
	if math.Abs(u.BandwidthInGB-2e-3) > 1e-12 || u.Ops != 2 {
		t.Errorf("BandwidthInGB = %v, Ops = %d, want 0.002 and 2", u.BandwidthInGB, u.Ops)
	}
	// 1 GB-month at S3(h)=0.14 + 1 at Ggl=0.17, plus 2 PUTs of 1 MB in.
	wantCost := 0.14 + 0.17 + 1e-3*0.1 + 1e-3*0.1 + 2.0/1000*0.01
	if got := r.TotalCost(); math.Abs(got-wantCost) > 1e-9 {
		t.Errorf("TotalCost = %v, want %v", got, wantCost)
	}
}

func TestRegistryEpochBumps(t *testing.T) {
	r := NewPaperRegistry()
	e0 := r.Epoch()
	r.Register(NewBlobStore(CheapStorProvider()))
	e1 := r.Epoch()
	if e1 <= e0 {
		t.Fatalf("Register must bump the epoch: %d -> %d", e0, e1)
	}
	e2, err := r.UpdateAvailability(NameS3Low, false)
	if err != nil {
		t.Fatalf("UpdateAvailability on a registered blob store: %v", err)
	}
	if e2 <= e1 || e2 != r.Epoch() {
		t.Fatalf("UpdateAvailability must bump and report the epoch: %d -> %d (now %d)", e1, e2, r.Epoch())
	}
	if _, ok := r.Deregister(NameCheapStor); !ok {
		t.Fatal("Deregister failed")
	}
	if e3 := r.Epoch(); e3 <= e2 {
		t.Fatalf("Deregister must bump the epoch: %d -> %d", e2, e3)
	}
	if _, err := r.UpdateAvailability("nope", false); !errors.Is(err, ErrUnknownProvider) {
		t.Fatalf("UpdateAvailability on an unknown provider: %v", err)
	}
}

// TestDirectAvailabilityBumpsEpoch is the regression test for the
// registry back-reference: failure injected directly on a registered
// backend (bypassing Registry.UpdateAvailability) must still advance the
// market epoch and drop the down provider from the cached Market view —
// otherwise placement planners keep serving searches prepared against a
// market that includes the dead provider.
func TestDirectAvailabilityBumpsEpoch(t *testing.T) {
	r := NewPaperRegistry()
	e0, specs0, _ := r.Market()
	if len(specs0) != 5 {
		t.Fatalf("initial market = %d specs, want 5", len(specs0))
	}

	s, ok := r.Store(NameS3Low)
	if !ok {
		t.Fatal("missing provider")
	}
	s.(*BlobStore).SetAvailable(false) // directly on the backend

	e1, specs1, _ := r.Market()
	if e1 <= e0 {
		t.Fatalf("direct SetAvailable must bump the epoch: %d -> %d", e0, e1)
	}
	if len(specs1) != 4 {
		t.Fatalf("market after direct outage = %d specs, want 4", len(specs1))
	}
	for _, spec := range specs1 {
		if spec.Name == NameS3Low {
			t.Fatal("down provider leaked into the market snapshot")
		}
	}

	// Flipping the same state again is a no-op: no spurious epoch churn.
	s.(*BlobStore).SetAvailable(false)
	if e2 := r.Epoch(); e2 != e1 {
		t.Fatalf("unchanged availability must not move the epoch: %d -> %d", e1, e2)
	}

	// Recovery injected directly also restores the market.
	s.(*BlobStore).SetAvailable(true)
	if e3, specs3, _ := r.Market(); e3 <= e1 || len(specs3) != 5 {
		t.Fatalf("direct recovery: epoch %d -> %d, market %d specs", e1, e3, len(specs3))
	}

	// A deregistered store is detached: flipping it no longer moves the
	// registry's epoch.
	dead, _ := r.Deregister(NameS3Low)
	eAfter := r.Epoch()
	dead.(*BlobStore).SetAvailable(false)
	if got := r.Epoch(); got != eAfter {
		t.Fatalf("detached store bumped the epoch: %d -> %d", eAfter, got)
	}
}

// TestSetPricingBumpsEpoch pins the market price event: a runtime
// pricing change through the registry mutates the spec the market
// snapshot serves, bumps the epoch exactly once, and repeating the same
// price sheet is a no-op.
func TestSetPricingBumpsEpoch(t *testing.T) {
	r := NewPaperRegistry()
	e0 := r.Epoch()

	newPrices := Pricing{StorageGBMonth: 0.5, BandwidthInGB: 0.1, BandwidthOutGB: 0.3, OpsPer1000: 0.02}
	if _, err := r.UpdatePricing(NameAzure, newPrices); err != nil {
		t.Fatalf("UpdatePricing on a known BlobStore provider: %v", err)
	}
	e1, specs, _ := r.Market()
	if e1 <= e0 {
		t.Fatalf("pricing change must bump the epoch: %d -> %d", e0, e1)
	}
	found := false
	for _, spec := range specs {
		if spec.Name == NameAzure {
			found = true
			if spec.Pricing != newPrices {
				t.Fatalf("market snapshot serves stale pricing: %+v", spec.Pricing)
			}
		}
	}
	if !found {
		t.Fatal("provider missing from market snapshot")
	}

	// Re-applying the identical sheet must not churn the epoch.
	r.UpdatePricing(NameAzure, newPrices)
	if e2 := r.Epoch(); e2 != e1 {
		t.Fatalf("unchanged pricing must not move the epoch: %d -> %d", e1, e2)
	}

	if _, err := r.UpdatePricing("nope", newPrices); !errors.Is(err, ErrUnknownProvider) {
		t.Fatalf("UpdatePricing on an unknown provider: %v", err)
	}
}

// silentStore can be downed and repriced but cannot tell the registry.
type silentStore struct {
	Backend
	AvailabilitySetter
	PricingSetter
}

// TestRegistryMutatesOnlyNotifyingBackends: a change the registry makes
// reaches the market through the backend's notifier, so a backend without
// one is refused and left as it was.
func TestRegistryMutatesOnlyNotifyingBackends(t *testing.T) {
	r := NewRegistry()
	s := NewBlobStore(Spec{Name: "silent"})
	r.Register(silentStore{s, s, s})
	e0 := r.Epoch()
	if _, err := r.UpdateAvailability("silent", false); !errors.Is(err, ErrUnsupportedMutation) {
		t.Errorf("UpdateAvailability: %v, want ErrUnsupportedMutation", err)
	}
	if _, err := r.UpdatePricing("silent", Pricing{StorageGBMonth: 1}); !errors.Is(err, ErrUnsupportedMutation) {
		t.Errorf("UpdatePricing: %v, want ErrUnsupportedMutation", err)
	}
	if !s.Available() || s.Spec().Pricing != (Pricing{}) || r.Epoch() != e0 {
		t.Error("a refused mutation changed the backend or the epoch")
	}
}

func TestRegistryMarketCachesSnapshot(t *testing.T) {
	r := NewPaperRegistry()
	e1, specs1, free1 := r.Market()
	e2, specs2, _ := r.Market()
	if e1 != e2 {
		t.Fatalf("epoch changed without a market event: %d -> %d", e1, e2)
	}
	if len(specs1) != 5 || len(specs2) != 5 {
		t.Fatalf("market sizes = %d, %d, want 5", len(specs1), len(specs2))
	}
	if &specs1[0] != &specs2[0] {
		t.Fatal("unchanged epoch must reuse the cached specs slice")
	}
	if free1 != nil {
		t.Fatalf("paper market has no capacity-bounded providers, free = %v", free1)
	}

	r.UpdateAvailability(NameS3Low, false)
	e3, specs3, _ := r.Market()
	if e3 == e2 {
		t.Fatal("outage through the registry must move the epoch")
	}
	if len(specs3) != 4 {
		t.Fatalf("market after outage = %d specs, want 4", len(specs3))
	}
	for _, s := range specs3 {
		if s.Name == NameS3Low {
			t.Fatal("down provider leaked into the market snapshot")
		}
	}
}

func TestRegistryMarketFreeCapacity(t *testing.T) {
	r := NewRegistry()
	r.Register(NewBlobStore(Spec{Name: "pub", Durability: 0.999999, Availability: 0.999}))
	capped := NewBlobStore(Spec{Name: "priv", Durability: 0.999999, Availability: 0.999,
		CapacityBytes: 1000, Private: true})
	r.Register(capped)
	if err := capped.Put(ctx, "k", make([]byte, 400)); err != nil {
		t.Fatal(err)
	}
	_, _, free := r.Market()
	if free == nil {
		t.Fatal("capacity-bounded provider must appear in the free map")
	}
	if got := free["priv"]; got != 600 {
		t.Fatalf("free[priv] = %d, want 600", got)
	}
	if _, ok := free["pub"]; ok {
		t.Fatal("uncapped provider must not appear in the free map")
	}
}
