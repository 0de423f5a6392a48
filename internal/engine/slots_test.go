package engine

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/stats"
)

// The tests of this file pin what a chunk slot is: slots 0..m-1 of a
// placement are the data chunks of the systematic code, slotNames puts
// them on the m providers cheapest to read, and rank reads from exactly
// those — so a healthy read never reconstructs, and what it is billed
// is the cheapest bill the price sheets allow.

// slotRules are the rules the slot tests run under: the deployment
// default and the paper's three (Fig. 2).
func slotRules() []core.Rule { return append([]core.Rule{DefaultRule}, core.PaperRules()...) }

// cheapestReadUSD is the least one full read of meta can cost by the
// live price sheets alone: per provider, every stripe's chunk out plus
// one operation each; the m smallest of those, summed.
func cheapestReadUSD(t *testing.T, b *Broker, meta ObjectMeta) float64 {
	t.Helper()
	per := make([]float64, len(meta.Chunks))
	for i, name := range meta.Chunks {
		pr := blob(t, b, name).Spec().Pricing
		for s := 0; s < meta.StripeCount(); s++ {
			chunk := max(1, (meta.stripeLen(s)+int64(meta.M)-1)/int64(meta.M))
			per[i] += float64(chunk)/1e9*pr.BandwidthOutGB + pr.OpsPer1000/1000
		}
	}
	slices.Sort(per)
	var sum float64
	for _, c := range per[:meta.M] {
		sum += c
	}
	return sum
}

// readDelta is what one full GET of the object moved.
type readDelta struct {
	body          []byte
	ops           int64   // provider operations
	usd           float64 // Registry.TotalCost
	reconstructed int64   // ReadPathStats.StripesReconstructed
}

func readOnce(t *testing.T, b *Broker, container, key string) readDelta {
	t.Helper()
	ops, usd, rec := b.Registry().TotalUsage().Ops, b.Registry().TotalCost(), b.ReadStats().StripesReconstructed
	body, _, err := b.Engine(0).Get(ctx, container, key)
	if err != nil {
		t.Fatal(err)
	}
	return readDelta{
		body:          body,
		ops:           b.Registry().TotalUsage().Ops - ops,
		usd:           b.Registry().TotalCost() - usd,
		reconstructed: b.ReadStats().StripesReconstructed - rec,
	}
}

// wantCheapestRead reads the object once and holds the read to the
// meter: the payload, m provider reads per stripe, and the cheapest
// bill the price sheets allow.
func wantCheapestRead(t *testing.T, b *Broker, meta ObjectMeta, payload []byte) readDelta {
	t.Helper()
	d := readOnce(t, b, meta.Container, meta.Key)
	if !bytes.Equal(d.body, payload) {
		t.Fatal("payload mismatch")
	}
	if want := int64(meta.M * meta.StripeCount()); d.ops != want {
		t.Errorf("read cost %d provider operations, want m x stripes = %d", d.ops, want)
	}
	if want := cheapestReadUSD(t, b, meta); math.Abs(d.usd-want) > 1e-12 {
		t.Errorf("read of %v (m=%d, %d stripes) was billed %.9f, the m cheapest providers cost %.9f (%+.1f%%)",
			meta.Chunks, meta.M, meta.StripeCount(), d.usd, want, 100*(d.usd/want-1))
	}
	return d
}

// TestRankFollowsTheMeter: the meter charges one operation per provider
// per stripe, so the read order must price a stripe's chunk, not the
// object's share — on a many-stripe object the operation term otherwise
// shrinks by the stripe count and the read goes to the wrong providers
// (256 KiB stripes x 8 MiB under Rule 3: +11 % on the bill).
func TestRankFollowsTheMeter(t *testing.T) {
	for _, stripeBytes := range []int64{256 << 10, 4 << 20} {
		for _, size := range []int{128 << 10, 1 << 20, 8 << 20} {
			for _, rule := range core.PaperRules() {
				t.Run(fmt.Sprintf("stripe=%dK/size=%dK/%s", stripeBytes>>10, size>>10, rule.Name), func(t *testing.T) {
					b := newTestBroker(t, Config{StripeBytes: stripeBytes})
					payload := testPayload(size)
					meta, err := b.Engine(0).Put(ctx, "c", "k", payload, PutOptions{Rule: &rule})
					if err != nil {
						t.Fatal(err)
					}
					wantCheapestRead(t, b, meta, payload)
				})
			}
		}
	}
}

// putVia stores payload under rule through one of the three paths that
// assign slots, checks that the stored providers are the set the planner
// chose, and returns the stored version's metadata.
func putVia(t *testing.T, b *Broker, entry string, rule core.Rule, payload []byte) ObjectMeta {
	t.Helper()
	e := b.Engine(0)
	size := int64(len(payload))
	opts := PutOptions{Rule: &rule}
	// What the planner hands a write: the same call the write makes.
	planned := func() core.Placement {
		epoch, specs, free := e.b.registry.Market()
		res, err := e.b.planner.Best(epoch, specs, rule, e.writeLoad("c/k", stats.ClassKey("", size), size), size, free)
		if err != nil {
			t.Fatal(err)
		}
		return res.Placement
	}
	var (
		meta ObjectMeta
		plan core.Placement
		err  error
	)
	switch entry {
	case "put":
		plan = planned()
		meta, err = e.PutReader(ctx, "c", "k", bytes.NewReader(payload), size, opts)
	case "multipart":
		plan = planned()
		var up UploadInfo
		if up, err = e.CreateUpload(ctx, "c", "k", size, opts); err != nil {
			t.Fatal(err)
		}
		var done []CompletedPart
		for off, n := int64(0), 1; off < size; off, n = off+b.cfg.StripeBytes, n+1 {
			part := payload[off:min(size, off+b.cfg.StripeBytes)]
			info, err := e.UploadPart(ctx, up.UploadID, n, bytes.NewReader(part), int64(len(part)))
			if err != nil {
				t.Fatal(err)
			}
			done = append(done, CompletedPart{PartNumber: n, ETag: info.ETag})
		}
		meta, err = e.CompleteUpload(ctx, up.UploadID, done)
	case "migrate":
		// A sixth provider, in every zone so each rule can use it, sits
		// priced out of the market while the object is written, then
		// undercuts everyone; the object gets traffic and the next
		// Optimize moves it.
		arrival := cloud.CheapStorProvider()
		arrival.Zones = []cloud.Zone{cloud.ZoneEU, cloud.ZoneUS, cloud.ZoneAPAC}
		cheap := arrival.Pricing
		cheap.StorageGBMonth, cheap.BandwidthOutGB = cheap.StorageGBMonth/10, cheap.BandwidthOutGB/2
		arrival.Pricing = cloud.Pricing{StorageGBMonth: 1e3, BandwidthInGB: 1e3, BandwidthOutGB: 1e3, OpsPer1000: 1e3}
		b.Registry().Register(cloud.NewBlobStore(arrival))
		b.Rules().SetContainerRule("c", rule)
		before, err := e.Put(ctx, "c", "k", payload, PutOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.SetProviderPricing(arrival.Name, cheap); err != nil {
			t.Fatal(err)
		}
		b.clock.(*SimClock).Advance(4)
		for r := 0; r < 5; r++ {
			if _, _, err := e.Get(ctx, "c", "k"); err != nil {
				t.Fatal(err)
			}
		}
		if size == 0 {
			// No price pays for moving an empty object: hand migrate the
			// planner's answer directly.
			plan = planned()
			if err := e.migrate(ctx, before, plan); err != nil {
				t.Fatal(err)
			}
		} else if rep, err := b.Optimize(ctx); err != nil || rep.Migrated != 1 {
			t.Fatalf("optimize = %+v, %v; want the object migrated onto %s", rep, err, arrival.Name)
		}
		b.ProcessPendingDeletes(ctx) // the source version's deletes are not part of the reads that follow
		if meta, err = e.Head(ctx, "c", "k"); err != nil {
			t.Fatal(err)
		}
		if meta.UUID == before.UUID {
			t.Fatalf("%v was not migrated", before.Chunks)
		}
		if size > 0 {
			// The optimizer's target is its own; what is known of it is
			// that the arrival is in and someone else is out.
			if !slices.Contains(meta.Chunks, arrival.Name) {
				t.Fatalf("migration turned %v into %v, without %s", before.Chunks, meta.Chunks, arrival.Name)
			}
			return meta
		}
	default:
		t.Fatalf("unknown entry point %q", entry)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Equal(b.livePlacement(meta.M, meta.Chunks)) {
		t.Fatalf("stored on %v (m=%d), planned %v", meta.Chunks, meta.M, plan)
	}
	return meta
}

// TestHealthyReadIsSystematic is the slot invariant, for every path
// that assigns slots: the stored providers are the planned set, the m
// cheapest to read hold slots 0..m-1, and a full read of a healthy
// object reconstructs nothing and is billed the minimum. With the
// provider behind data slot 0 down the same read returns the same bytes
// through a reconstruct of every stripe, and goes back to none when the
// provider returns.
func TestHealthyReadIsSystematic(t *testing.T) {
	sizes := []int{1 << 10, 128 << 10, 1 << 20, 8 << 20, 0}
	for _, entry := range []string{"put", "multipart", "migrate"} {
		for _, rule := range slotRules() {
			for _, size := range sizes {
				if entry == "multipart" && size == 0 {
					continue // an upload has at least one part, and a part at least one byte
				}
				t.Run(fmt.Sprintf("%s/%s/%dK", entry, rule.Name, size>>10), func(t *testing.T) {
					b := newTestBroker(t, Config{Clock: NewSimClock(), MigrationHorizon: 1_000_000})
					payload := testPayload(size)
					meta := putVia(t, b, entry, rule, payload)
					if size == 8<<20 && meta.StripeCount() != 2 {
						t.Fatalf("scenario expects 2 stripes, got %d", meta.StripeCount())
					}
					l, err := b.Engine(0).layoutOf(meta)
					if err != nil {
						t.Fatal(err)
					}
					order, err := l.rank(nil)
					if err != nil {
						t.Fatal(err)
					}
					// Slots were handed out in read order, so on the market
					// of the write rank is the identity and reads 0..m-1.
					if !slices.Equal(order, l.all) {
						t.Fatalf("rank orders the slots of %v as %v, want the data slots 0..%d first", meta.Chunks, order, meta.M-1)
					}
					if d := wantCheapestRead(t, b, meta, payload); d.reconstructed != 0 {
						t.Fatalf("a healthy read reconstructed %d stripes", d.reconstructed)
					}

					blob(t, b, meta.Chunks[0]).SetAvailable(false)
					d := readOnce(t, b, "c", "k")
					if !bytes.Equal(d.body, payload) || d.reconstructed != int64(meta.StripeCount()) {
						t.Fatalf("with %s down: payload equal %v, %d of %d stripes reconstructed",
							meta.Chunks[0], bytes.Equal(d.body, payload), d.reconstructed, meta.StripeCount())
					}
					blob(t, b, meta.Chunks[0]).SetAvailable(true)
					if d := wantCheapestRead(t, b, meta, payload); d.reconstructed != 0 {
						t.Fatalf("after %s came back a read reconstructed %d stripes", meta.Chunks[0], d.reconstructed)
					}
					if n := b.ReadStats().CorruptChunks; n != 0 {
						t.Fatalf("%d chunks failed their sum", n)
					}
				})
			}
		}
	}
}

// TestSwapKeepsSlots: a chunk's content is its slot, so a swap repair
// writes the replacement into the slot it replaces and reorders nothing
// — the object verifies at n and reads correctly whether rank now lands
// on its data slots or, after the replacement reprices, off them.
func TestSwapKeepsSlots(t *testing.T) {
	b := newTestBroker(t, Config{Registry: repairMarket(), StripeBytes: 64 << 10})
	payload, meta := putRepairObject(t, b, "obj", 256<<10)
	stripes := int64(meta.StripeCount())

	blob(t, b, meta.Chunks[0]).SetAvailable(false)
	if rep, err := b.Repair(ctx, RepairActive); err != nil || rep.Swapped != 1 {
		t.Fatalf("repair = %+v, %v", rep, err)
	}
	after, err := b.Engine(0).Head(ctx, "bk", "obj")
	if err != nil {
		t.Fatal(err)
	}
	if after.Chunks[0] == meta.Chunks[0] || !slices.Equal(after.Chunks[1:], meta.Chunks[1:]) {
		t.Fatalf("swap of slot 0 turned %v into %v", meta.Chunks, after.Chunks)
	}
	verified := func() {
		t.Helper()
		if n, err := b.Engine(0).VerifyObject(ctx, "bk", "obj"); err != nil || n != len(after.Chunks) {
			t.Fatalf("VerifyObject = %d, %v; want %d", n, err, len(after.Chunks))
		}
	}
	verified()
	if d := readOnce(t, b, "bk", "obj"); !bytes.Equal(d.body, payload) || d.reconstructed != 0 {
		t.Fatalf("read after the swap: payload equal %v, %d stripes reconstructed", bytes.Equal(d.body, payload), d.reconstructed)
	}

	// The replacement becomes the dearest to read: rank leaves data slot
	// 0 for the parity slot, and the stored object is not re-slotted.
	pr := blob(t, b, after.Chunks[0]).Spec().Pricing
	pr.BandwidthOutGB *= 2
	if _, err := b.SetProviderPricing(after.Chunks[0], pr); err != nil {
		t.Fatal(err)
	}
	if d := readOnce(t, b, "bk", "obj"); !bytes.Equal(d.body, payload) || d.reconstructed != stripes {
		t.Fatalf("read off the data slots: payload equal %v, %d of %d stripes reconstructed", bytes.Equal(d.body, payload), d.reconstructed, stripes)
	}
	verified()
}
