package engine

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/cloud/cloudtest"
	"scalia/internal/core"
	"scalia/internal/stats"
)

// The tests of this file pin the read-latency tie-break of slotNames:
// among providers equally cheap to read, the data slots go to the
// fastest; cost always wins; and latencies the record cannot tell apart
// keep the planner's order.

// unevenBroker is a (4, 5) deployment over the paper's five providers,
// each Get delayed as delays says, with 1 KiB stripes.
func unevenBroker(t *testing.T, delays map[string]time.Duration) (*Broker, map[string]*cloudtest.Faulty) {
	t.Helper()
	reg, backends := cloudtest.Wrap(cloud.NewPaperRegistry())
	prov := make(map[string]*cloudtest.Faulty)
	for _, f := range backends {
		f.GetDelay = delays[f.Spec().Name]
		prov[f.Spec().Name] = f
	}
	b := newTestBroker(t, Config{Registry: reg, StripeBytes: 1024})
	b.Rules().SetContainerRule("c", core.PaperRules()[2])
	return b, prov
}

// costOrder is the slot order by readCost alone, ties in the planner's
// order: the whole of slotNames before it kept a latency record.
func costOrder(t *testing.T, b *Broker, size int64) []string {
	t.Helper()
	e := b.Engine(0)
	epoch, specs, free := b.registry.Market()
	res, err := b.planner.Best(epoch, specs, core.PaperRules()[2], e.writeLoad("c/k", stats.ClassKey("", size), size), size, free)
	if err != nil {
		t.Fatal(err)
	}
	stripeLen := min(size, b.cfg.StripeBytes)
	specs = slices.Clone(res.Placement.Providers)
	slices.SortStableFunc(specs, func(x, y cloud.Spec) int {
		return cmp.Compare(readCost(x.Pricing, stripeLen, res.Placement.M), readCost(y.Pricing, stripeLen, res.Placement.M))
	})
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// readBack reads key once and checks its bytes.
func readBack(t *testing.T, b *Broker, key string, payload []byte) {
	t.Helper()
	if got, _, err := b.Engine(0).Get(ctx, "c", key); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read of %s: %v", key, err)
	}
}

// TestEqualCostSlotsGoToTheFastest writes an object, reads it so the
// record learns the providers it sits on, and writes a second: its data
// slots go to the cheapest providers, and among the equally cheap to the
// fastest. On the paper market a 256-byte chunk is cheapest at Rackspace
// (no operation fee) and costs the same at the other four. A healthy
// read of the second object then asks exactly m chunks per stripe, all of
// them from its data slots, and rebuilds nothing.
func TestEqualCostSlotsGoToTheFastest(t *testing.T) {
	const slow = 5 * time.Millisecond
	payload := testPayload(4 * 1024)
	for name, tc := range map[string]struct {
		slow   string // the provider whose Gets are delayed, or none
		parity string // the provider the parity slot must go to; "" = the cost order's
	}{
		"no delays":             {},
		"cheapest is slowest":   {slow: cloud.NameRackspace},
		"an equal-cost is slow": {slow: cloud.NameGoogle, parity: cloud.NameGoogle},
	} {
		t.Run(name, func(t *testing.T) {
			b, prov := unevenBroker(t, map[string]time.Duration{tc.slow: slow})
			today := costOrder(t, b, int64(len(payload)))
			if today[0] != cloud.NameRackspace || today[4] != cloud.NameS3Low {
				t.Fatalf("scenario expects Rackspace cheapest and S3(l) last of four equals, cost order %v", today)
			}
			e := b.Engine(0)
			if _, err := e.Put(ctx, "c", "first", payload, PutOptions{}); err != nil {
				t.Fatal(err)
			}
			readBack(t, b, "first", payload)
			readBack(t, b, "first", payload)
			meta, err := e.Put(ctx, "c", "second", payload, PutOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := today
			if tc.parity != "" {
				want = append(slices.DeleteFunc(slices.Clone(today), func(n string) bool { return n == tc.parity }), tc.parity)
			}
			if !slices.Equal(meta.Chunks, want) {
				t.Fatalf("slots %v, want %v (cost order %v, %s slow)", meta.Chunks, want, today, tc.slow)
			}

			for _, f := range prov {
				f.Gets.Store(0)
			}
			rec, fallbacks := b.ReadStats().StripesReconstructed, b.ReadStats().FetchFallbacks
			readBack(t, b, "second", payload)
			for i, name := range meta.Chunks {
				want := int64(0)
				if i < meta.M {
					want = int64(meta.StripeCount())
				}
				if got := prov[name].Gets.Load(); got != want {
					t.Errorf("slot %d (%s) served %d Gets, want %d", i, name, got, want)
				}
			}
			if st := b.ReadStats(); st.StripesReconstructed != rec || st.FetchFallbacks != fallbacks {
				t.Fatalf("a healthy read reconstructed %d stripes with %d fallbacks", st.StripesReconstructed-rec, st.FetchFallbacks-fallbacks)
			}
		})
	}
}

// TestUnsampledProviderTies: latencies the record cannot tell apart keep
// the planner's order — none sampled yet, below the floor, or in one
// 5 % step — and a provider not sampled yet counts as below the floor,
// ahead of one measured slower.
func TestUnsampledProviderTies(t *testing.T) {
	b := newTestBroker(t, Config{})
	set := func(name string, d time.Duration) {
		b.providers.record(name).srtt.Store(int64(d))
	}
	set("under", latencyFloor/2)
	set("slow", 2*time.Millisecond)
	set("step-low", 1000*time.Microsecond)
	set("step-high", 1020*time.Microsecond)
	placement := func(names ...string) core.Placement {
		p := core.Placement{M: 2}
		for _, n := range names {
			p.Providers = append(p.Providers, cloud.Spec{Name: n, Pricing: cloud.Pricing{BandwidthOutGB: 0.15, OpsPer1000: 0.01}})
		}
		return p
	}
	for _, tc := range []struct{ planned, want []string }{
		{[]string{"unknown", "under"}, []string{"unknown", "under"}},
		{[]string{"under", "unknown"}, []string{"under", "unknown"}},
		{[]string{"unknown", "other-unknown"}, []string{"unknown", "other-unknown"}},
		{[]string{"step-high", "step-low"}, []string{"step-high", "step-low"}},
		{[]string{"slow", "unknown", "under"}, []string{"unknown", "under", "slow"}},
		{[]string{"slow", "step-high", "unknown"}, []string{"unknown", "step-high", "slow"}},
	} {
		if got := b.slotNames(placement(tc.planned...), 1024); !slices.Equal(got, tc.want) {
			t.Errorf("planned %v: slots %v, want %v", tc.planned, got, tc.want)
		}
	}
}

// TestFailedGetsAreNoSamples: a provider that fails fast never looks
// fast. Google serves slowly, then fails every Get at once; its record
// stays what its served Gets made it, and the next write still leaves it
// the parity slot.
func TestFailedGetsAreNoSamples(t *testing.T) {
	payload := testPayload(4 * 1024)
	b, prov := unevenBroker(t, map[string]time.Duration{cloud.NameGoogle: 5 * time.Millisecond})
	e := b.Engine(0)
	if _, err := e.Put(ctx, "c", "first", payload, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	readBack(t, b, "first", payload)
	before := b.providers.record(cloud.NameGoogle).srtt.Load()
	if before < int64(latencyFloor) {
		t.Fatalf("Google's record reads %v after its slow Gets", time.Duration(before))
	}

	ggl := prov[cloud.NameGoogle]
	ggl.GetDelay = 0
	ggl.OnGet = func(context.Context, string) error { return errors.New("injected fetch failure") }
	for r := 0; r < 5; r++ {
		readBack(t, b, "first", payload)
	}
	if ggl.GetErrs.Load() == 0 {
		t.Fatal("scenario expects Google's Gets to fail")
	}
	if after := b.providers.record(cloud.NameGoogle).srtt.Load(); after != before {
		t.Fatalf("failed Gets moved Google's record from %v to %v", time.Duration(before), time.Duration(after))
	}
	meta, err := e.Put(ctx, "c", "second", payload, PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Chunks[meta.M] != cloud.NameGoogle {
		t.Fatalf("slots %v: Google must keep the parity slot", meta.Chunks)
	}
}
