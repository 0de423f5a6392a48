package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/cloud/cloudtest"
	"scalia/internal/core"
	"scalia/internal/crc32c"
	"scalia/internal/erasure"
)

// repairMarket builds a 4-provider market where the rule's lock-in
// forces placement onto the three cheap providers {A, B, C} (m = 2) and
// the expensive D is the only spare — a fully deterministic swap
// scenario.
func repairMarket() *cloud.Registry { return marketOf("A", "B", "C", "D") }

// marketOf builds a market of the named providers, each strictly
// pricier than the one before. {A, B, C} alone is the spare-less market:
// with one of them down no same-(m, n) swap exists, and only a rule
// that tolerates two providers can still be re-placed.
func marketOf(names ...string) *cloud.Registry {
	reg := cloud.NewRegistry()
	for i, name := range names {
		storage := 0.10 + 0.01*float64(i) // D is strictly the priciest
		reg.Register(cloud.NewBlobStore(cloud.Spec{
			Name: name, Durability: 0.9999, Availability: 0.999,
			Zones:   []cloud.Zone{cloud.ZoneUS},
			Pricing: cloud.Pricing{StorageGBMonth: storage, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
		}))
	}
	return reg
}

var repairRule = core.Rule{Name: "wide", Durability: 0.9999, Availability: 0.99, LockIn: 1.0 / 3}

// restripeRule still places (m=2, n=3) on a three-provider market, but
// its looser lock-in lets the planner fall back to (1, 2) on two.
var restripeRule = core.Rule{Name: "wide-or-two", Durability: 0.9999, Availability: 0.99, LockIn: 0.5}

// putRepairObject stores a multi-stripe object under the wide rule and
// returns its payload and metadata. The rule is pinned on the container
// so the repair pass resolves the same rule the write used.
func putRepairObject(t *testing.T, b *Broker, key string, size int) ([]byte, ObjectMeta) {
	t.Helper()
	return putRepairObjectUnder(t, b, repairRule, key, size)
}

func putRepairObjectUnder(t *testing.T, b *Broker, rule core.Rule, key string, size int) ([]byte, ObjectMeta) {
	t.Helper()
	b.Rules().SetContainerRule("bk", rule)
	payload := make([]byte, size)
	rng := rand.New(rand.NewSource(7))
	rng.Read(payload)
	meta, err := b.Engine(0).Put(ctx, "bk", key, payload, PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Chunks) != 3 || meta.M != 2 {
		t.Fatalf("scenario expects (m=2, n=3), got m=%d chunks=%v", meta.M, meta.Chunks)
	}
	if meta.StripeCount() < 2 {
		t.Fatalf("scenario expects a multi-stripe object, got %d stripes", meta.StripeCount())
	}
	return payload, meta
}

// TestRepairSwapPreservesIdentity is the tentpole unit test: a swap
// repair must write only the missing chunks, keep the object version's
// identity (UUID, storage key, per-stripe MD5s), change the chunk map
// at exactly the dead slot, and leave the object bitwise intact —
// parity-verified across all n chunks.
func TestRepairSwapPreservesIdentity(t *testing.T) {
	b := newTestBroker(t, Config{Registry: repairMarket(), StripeBytes: 64 << 10})
	payload, meta := putRepairObject(t, b, "obj", 256<<10)

	deadSlot := 1
	victim := meta.Chunks[deadSlot]
	blob(t, b, victim).SetAvailable(false)

	rep, err := b.Repair(ctx, RepairActive)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Affected != 1 || rep.Repaired != 1 || rep.Swapped != 1 || rep.Restriped != 0 || rep.Skipped != 0 {
		t.Fatalf("repair report = %+v", rep)
	}
	if rep.ChunksWritten != meta.StripeCount() {
		t.Fatalf("swap wrote %d chunks, want %d (one per stripe)", rep.ChunksWritten, meta.StripeCount())
	}
	if rep.BytesWritten <= 0 || rep.BytesWritten >= int64(len(payload)) {
		t.Fatalf("swap wrote %d bytes, want ~size/m = %d", rep.BytesWritten, len(payload)/meta.M)
	}

	after, err := b.Engine(0).Head(ctx, "bk", "obj")
	if err != nil {
		t.Fatal(err)
	}
	if after.UUID != meta.UUID || after.SKey != meta.SKey {
		t.Fatalf("swap must update metadata in place: uuid %s->%s skey %s->%s",
			meta.UUID, after.UUID, meta.SKey, after.SKey)
	}
	if !reflect.DeepEqual(after.Sums, meta.Sums) {
		t.Fatal("a swap must preserve the chunk and payload sums")
	}
	for i, name := range after.Chunks {
		switch {
		case i == deadSlot && (name == victim || name != "D"):
			t.Fatalf("slot %d = %q, want the spare D", i, name)
		case i != deadSlot && name != meta.Chunks[i]:
			t.Fatalf("surviving slot %d changed %q -> %q", i, meta.Chunks[i], name)
		}
	}
	got, _, err := b.Engine(0).Get(ctx, "bk", "obj")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("payload lost in swap repair: %v", err)
	}
	// The replacement chunks must be parity-consistent with the
	// survivors: VerifyObject reads all n chunks (the new set is fully
	// reachable) and checks the erasure parity per stripe.
	reachable, err := b.Engine(0).VerifyObject(ctx, "bk", "obj")
	if err != nil {
		t.Fatalf("post-swap verification: %v", err)
	}
	if reachable != len(after.Chunks) {
		t.Fatalf("reachable = %d, want %d", reachable, len(after.Chunks))
	}
	// Lifetime totals reached the broker stats.
	totals := b.RepairTotals()
	if totals.Passes != 1 || totals.Swapped != 1 || totals.ChunksWritten != rep.ChunksWritten {
		t.Fatalf("repair totals = %+v", totals)
	}
}

// TestRepairSwapQueuesStaleChunkDeletes: the dead provider's copies of
// the replaced chunks are retired by the swap; their deletion must be
// postponed until the provider recovers (§III-D3).
func TestRepairSwapQueuesStaleChunkDeletes(t *testing.T) {
	b := newTestBroker(t, Config{Registry: repairMarket(), StripeBytes: 64 << 10})
	_, meta := putRepairObject(t, b, "obj", 256<<10)
	victim := meta.Chunks[0]
	vs := blob(t, b, victim)
	vs.SetAvailable(false)

	if _, err := b.Repair(ctx, RepairActive); err != nil {
		t.Fatal(err)
	}
	if done := b.ProcessPendingDeletes(ctx); done != 0 {
		t.Fatalf("%d postponed deletes completed with the provider still down", done)
	}
	if got := b.PendingDeletes(); got != meta.StripeCount() {
		t.Fatalf("pending deletes = %d, want %d (one stale chunk per stripe)", got, meta.StripeCount())
	}
	vs.SetAvailable(true)
	if done := b.ProcessPendingDeletes(ctx); done != meta.StripeCount() {
		t.Fatalf("processed %d pending deletes, want %d", done, meta.StripeCount())
	}
	if n := vs.ObjectCount(); n != 0 {
		t.Fatalf("recovered provider still holds %d stale chunks", n)
	}
}

// TestRepairSwapWritesFewerBytesThanRestripe runs the same failure
// twice — on a market with a spare (swap) and on the spare-less market,
// where production falls back to a full re-placement — and asserts the
// acceptance criterion: the swap writes strictly fewer bytes.
func TestRepairSwapWritesFewerBytesThanRestripe(t *testing.T) {
	run := func(reg *cloud.Registry, rule core.Rule) RepairReport {
		b := newTestBroker(t, Config{Registry: reg, StripeBytes: 64 << 10})
		payload, meta := putRepairObjectUnder(t, b, rule, "obj", 256<<10)
		blob(t, b, meta.Chunks[0]).SetAvailable(false)
		rep, err := b.Repair(ctx, RepairActive)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Repaired != 1 {
			t.Fatalf("%s: report %+v", rule.Name, rep)
		}
		if got, _, err := b.Engine(0).Get(ctx, "bk", "obj"); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: payload lost in repair: %v", rule.Name, err)
		}
		return rep
	}
	swap := run(repairMarket(), repairRule)
	restripe := run(marketOf("A", "B", "C"), restripeRule)
	if swap.Swapped != 1 || restripe.Restriped != 1 {
		t.Fatalf("mechanism split wrong: swap=%+v restripe=%+v", swap, restripe)
	}
	if swap.BytesWritten >= restripe.BytesWritten {
		t.Fatalf("swap wrote %d bytes, re-stripe %d — swap must write strictly fewer",
			swap.BytesWritten, restripe.BytesWritten)
	}
	if swap.ChunksWritten >= restripe.ChunksWritten {
		t.Fatalf("swap wrote %d chunks, re-stripe %d", swap.ChunksWritten, restripe.ChunksWritten)
	}
}

// TestRepairSkippedWhenInfeasible: an active pass that cannot repair an
// object reports it skipped, says why, and leaves it readable. With no
// spare and a rule the surviving market cannot satisfy there is no plan;
// a swap whose replacement write fails failed; and a swap whose object is
// overwritten while it copies loses its commit to the write.
func TestRepairSkippedWhenInfeasible(t *testing.T) {
	rule := core.Rule{Name: "all3", Durability: 0.9999, Availability: 0.99, LockIn: 1.0 / 3}
	payload := bytes.Repeat([]byte("x"), 30<<10)
	overwrite := bytes.Repeat([]byte("y"), 20<<10)
	for _, tc := range []struct {
		why    string
		market *cloud.Registry
		// spare arms the spare D's Put hook, if the market has D.
		spare func(b *Broker) func(context.Context, string) error
		want  []byte // what the object reads afterwards
	}{
		{why: "no-plan", market: marketOf("A", "B", "C"), want: payload},
		{why: "io-failed", market: repairMarket(), want: payload,
			spare: func(*Broker) func(context.Context, string) error {
				return func(context.Context, string) error { return errors.New("D refuses the write") }
			}},
		{why: "row-changed", market: repairMarket(), want: overwrite,
			spare: func(b *Broker) func(context.Context, string) error {
				var once atomic.Bool // the overwrite writes to D too
				return func(context.Context, string) error {
					if once.CompareAndSwap(false, true) {
						if _, err := b.Engine(1).Put(ctx, "bk", "obj", overwrite, PutOptions{}); err != nil {
							return err
						}
					}
					return nil
				}
			}},
	} {
		t.Run(tc.why, func(t *testing.T) {
			reg, backends := cloudtest.Wrap(tc.market)
			b := newTestBroker(t, Config{Registry: reg})
			b.Rules().SetContainerRule("bk", rule)
			meta, err := b.Engine(0).Put(ctx, "bk", "obj", payload, PutOptions{})
			if err != nil || meta.Chunks[0] != "A" {
				t.Fatalf("put: on %v, %v; scenario expects A in slot 0", meta.Chunks, err)
			}
			for _, hb := range backends {
				switch hb.Spec().Name {
				case "A":
					hb.SetAvailable(false)
				case "D":
					hb.OnPut = tc.spare(b)
				}
			}
			rep, err := b.Repair(ctx, RepairActive)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Affected != 1 || rep.Skipped != 1 || rep.Repaired != 0 || !reflect.DeepEqual(rep.Skips, map[string]int{tc.why: 1}) {
				t.Fatalf("repair report = %+v, want one skip for %s", rep, tc.why)
			}
			got, _, err := b.Engine(0).Get(ctx, "bk", "obj")
			if err != nil || !bytes.Equal(got, tc.want) {
				t.Fatalf("skipped object must stay readable: %v", err)
			}
		})
	}
}

// TestCancelledRepairSkipsNothing: a pass cancelled partway keeps the
// swaps that committed before the cancellation, counts nothing for the
// object it was in the middle of, and leaves no replacement chunk that
// no live row names.
func TestCancelledRepairSkipsNothing(t *testing.T) {
	const stripe = 1024
	reg, backends := cloudtest.Wrap(repairMarket())
	b := newTestBroker(t, Config{Registry: reg, StripeBytes: stripe, Datacenters: []string{"dc1"}, EnginesPerDC: 1})
	b.Rules().SetContainerRule("bk", repairRule)
	var keys []string
	for i := 0; i < 8; i++ {
		key := fmt.Sprint("s", i)
		if meta, err := b.Engine(0).Put(ctx, "bk", key, testPayload(stripe/2), PutOptions{}); err != nil || meta.Chunks[0] != "A" {
			t.Fatalf("put %s: on %v, %v; scenario expects A in slot 0", key, meta.Chunks, err)
		}
		keys = append(keys, key)
	}
	pass, cancel := context.WithCancel(ctx)
	defer cancel()
	cancelAt := cloudtest.CancelAt(7, cancel)
	var a *cloudtest.Faulty
	for _, hb := range backends {
		hb.OnGet = cancelAt
		if hb.Spec().Name == "A" {
			a = hb
		}
	}
	a.SetAvailable(false)
	rep, err := b.Repair(pass, RepairActive)
	// Two Gets rebuild each object: the three before the cancellation swap.
	if !errors.Is(err, context.Canceled) || rep.Swapped != 3 || rep.Skipped != 0 {
		t.Fatalf("cancelled pass: %+v, %v; want 3 swaps, none skipped", rep, err)
	}
	if totals := b.RepairTotals(); totals.Skipped != 0 || totals.Swapped != rep.Swapped {
		t.Fatalf("repair totals = %+v after %+v", totals, rep)
	}
	a.SetAvailable(true)
	b.ProcessPendingDeletes(ctx)
	named := make(map[string]bool)
	for _, key := range keys {
		meta, err := b.Engine(0).Head(ctx, "bk", key)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range meta.Chunks {
			named[name+"|"+meta.chunkKey(0, i)] = true
		}
	}
	for _, hb := range backends {
		stored, err := hb.List(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range stored {
			if !named[hb.Spec().Name+"|"+key] {
				t.Errorf("%s holds %s, which no live row names", hb.Spec().Name, key)
			}
		}
	}
}

// TestRepairConcurrentWithReads runs GetReader streams against an
// object while it is being swap-repaired (run under -race): every read
// must deliver the exact payload, before, during and after the repair —
// the in-place metadata update never cuts readers off.
func TestRepairConcurrentWithReads(t *testing.T) {
	b := newTestBroker(t, Config{Registry: repairMarket(), StripeBytes: 16 << 10})
	payload, meta := putRepairObject(t, b, "obj", 256<<10)
	blob(t, b, meta.Chunks[2]).SetAvailable(false)

	const readers = 8
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			e := b.Engine(r)
			for {
				select {
				case <-stop:
					return
				default:
				}
				rc, _, err := e.GetReader(ctx, "bk", "obj")
				if err != nil {
					errs <- fmt.Errorf("reader %d open: %w", r, err)
					return
				}
				data, err := io.ReadAll(rc)
				rc.Close()
				if err != nil {
					errs <- fmt.Errorf("reader %d read: %w", r, err)
					return
				}
				if !bytes.Equal(data, payload) {
					errs <- fmt.Errorf("reader %d payload mismatch", r)
					return
				}
			}
		}(r)
	}
	rep, err := b.Repair(ctx, RepairActive)
	close(stop)
	wg.Wait()
	close(errs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swapped != 1 {
		t.Fatalf("repair report = %+v", rep)
	}
	for e := range errs {
		t.Error(e)
	}
}

// TestRebuildProducesOnlyTheReplacedSlots: on a (3, 5) stripe a swap of
// one data slot reads three survivors and produces exactly the
// replacement — the parity slot the fetch skipped and the swap leaves
// where it is stays nil — and that replacement is still held against the
// sum stored for its slot.
func TestRebuildProducesOnlyTheReplacedSlots(t *testing.T) {
	b := newTestBroker(t, Config{Registry: marketOf("A", "B", "C", "D", "E", "F")})
	e := b.Engine(0)
	if _, err := e.Put(ctx, "bk", "obj", testPayload(3000), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	first, err := e.Head(ctx, "bk", "obj")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.migrate(ctx, first, b.livePlacement(3, []string{"A", "B", "C", "D", "E"})); err != nil {
		t.Fatal(err)
	}
	meta, err := e.Head(ctx, "bk", "obj")
	if err != nil || meta.M != 3 || len(meta.Chunks) != 5 {
		t.Fatalf("scenario expects (3, 5), got m=%d on %v (%v)", meta.M, meta.Chunks, err)
	}
	const replaced = 1
	to := slices.Clone(meta.Chunks)
	to[replaced] = "F"
	sw, err := e.planSwap(meta, b.livePlacement(3, to), []int{replaced})
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.rebuild(ctx, sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	chunks := f.chunks
	held, absent := 0, -1
	for i, ch := range chunks {
		if ch != nil {
			held++
		} else {
			absent = i
		}
	}
	if held != meta.M+1 || absent < meta.M {
		t.Fatalf("rebuild holds %d chunks (nil at slot %d), want the %d read, the one replaced and one parity slot left nil", held, absent, meta.M)
	}
	if crc32c.Checksum(chunks[replaced]) != meta.Sums[0].Chunks[replaced] {
		t.Fatal("the replacement does not match its stored sum")
	}
	// A wrong stored sum — of the replaced chunk, or of the payload the
	// chunks read compose — fails the rebuild.
	for name, maim := range map[string]func(*StripeSum){
		"chunk":       func(sum *StripeSum) { sum.Chunks[replaced] ^= 1 },
		"payload bit": func(sum *StripeSum) { sum.Payload ^= 1 },
	} {
		sw.src.sums = slices.Clone(meta.Sums)
		sw.src.sums[0].Chunks = slices.Clone(meta.Sums[0].Chunks)
		maim(&sw.src.sums[0])
		if _, err := e.rebuild(ctx, sw, 0); !errors.Is(err, ErrChecksum) {
			t.Fatalf("rebuild against a wrong stored %s sum: %v, want ErrChecksum", name, err)
		}
	}
}

// TestSwapNeverOverwrites: every provider fails the test on a Put that
// lands on a key it already holds, through every shape of swap — a
// multi-stripe swap, several single-stripe ones, a heal beside the rotten
// chunk, a slot that goes P -> Q -> P while P still holds the copy the
// first swap replaced, and a heal racing a repair pass on the same
// object. Afterwards every object verifies all n chunks and, once
// settled, the providers hold exactly the chunks the live rows name: what
// a swap replaced and what the loser of a race wrote are both gone, and
// nothing else is.
func TestSwapNeverOverwrites(t *testing.T) {
	const stripe = 1024
	type env struct {
		*testing.T
		b    *Broker
		e    *Engine
		prov map[string]*cloudtest.Faulty
		// refuse makes every provider fail its deletes while set.
		refuse atomic.Bool
	}
	put := func(v *env, key string, size int) ObjectMeta {
		v.Helper()
		meta, err := v.e.Put(ctx, "bk", key, testPayload(size), PutOptions{})
		if err != nil || strings.Join(meta.Chunks, "") != "ABC" {
			v.Fatalf("put %s: on %v, %v; scenario expects ABC", key, meta.Chunks, err)
		}
		return meta
	}
	repair := func(v *env, down string, swapped int) {
		v.Helper()
		v.prov[down].SetAvailable(false)
		if rep, err := v.b.Repair(ctx, RepairActive); err != nil || rep.Swapped != swapped {
			v.Fatalf("repair with %s down: %+v, %v; want %d swaps", down, rep, err, swapped)
		}
		v.prov[down].SetAvailable(true)
	}
	// rot flips a bit of a stored chunk behind the hooks' back and has a
	// verification find it.
	rot := func(v *env, meta ObjectMeta, s, slot int) {
		v.Helper()
		store, key := v.prov[meta.Chunks[slot]].BlobStore, meta.chunkKey(s, slot)
		stored, err := store.Get(ctx, key)
		if err != nil {
			v.Fatal(err)
		}
		data := bytes.Clone(stored)
		data[0] ^= 1
		if err := store.Put(ctx, key, data); err != nil {
			v.Fatal(err)
		}
		if n, err := v.e.VerifyObject(ctx, "bk", meta.Key); err != nil || n != len(meta.Chunks)-1 {
			v.Fatalf("VerifyObject = %d, %v with a rotten chunk", n, err)
		}
	}
	for name, run := range map[string]func(v *env) (keys []string){
		"multi-stripe swap": func(v *env) []string {
			put(v, "obj", 4*stripe)
			repair(v, "B", 1)
			return []string{"obj"}
		},
		"single-stripe swaps": func(v *env) []string {
			keys := []string{"s0", "s1", "s2", "s3", "s4"}
			for _, key := range keys {
				put(v, key, stripe/2)
			}
			repair(v, "A", len(keys))
			return keys
		},
		"heal": func(v *env) []string {
			meta := put(v, "obj", 4*stripe)
			rot(v, meta, 2, 1)
			v.b.DrainMaintenance(ctx)
			if after, _ := v.e.Head(ctx, "bk", "obj"); !slices.Equal(after.Chunks, meta.Chunks) || after.chunkKey(2, 1) == meta.chunkKey(2, 1) {
				v.Fatalf("a heal must rewrite slot 1 where it is, under another key: %v %s", after.Chunks, after.chunkKey(2, 1))
			}
			return []string{"obj"}
		},
		"there and back": func(v *env) []string {
			for _, size := range []int{4 * stripe, stripe / 2} { // many stripes, and one
				put(v, fmt.Sprint("o", size), size)
			}
			// Deletes are refused for now, so B keeps the copies the first swap
			// replaced while the second one brings the slot back to it.
			v.refuse.Store(true)
			repair(v, "B", 2) // B -> D
			repair(v, "D", 2) // D -> B
			if v.b.ProcessPendingDeletes(ctx); v.b.PendingDeletes() == 0 {
				v.Fatal("scenario expects B's stale chunks still queued")
			}
			v.refuse.Store(false)
			return []string{fmt.Sprint("o", 4*stripe), fmt.Sprint("o", stripe/2)}
		},
		"heal racing repair": func(v *env) []string {
			// A (3, 5) object — it takes two losses — with slot 1 rotten and
			// noted and slot 0's provider down: the queue's visit and the
			// repair pass both start by healing slot 1, from the same row,
			// behind providers slow enough for the two to overlap.
			first := put(v, "obj", 4*stripe)
			if err := v.e.migrate(ctx, first, v.b.livePlacement(3, []string{"A", "B", "C", "D", "E"})); err != nil {
				v.Fatal(err)
			}
			meta, err := v.e.Head(ctx, "bk", "obj")
			if err != nil || len(meta.Chunks) != 5 {
				v.Fatalf("scenario expects (3, 5), got %v (%v)", meta.Chunks, err)
			}
			rot(v, meta, 0, 1)
			for _, hb := range v.prov {
				hb.GetDelay = time.Millisecond
			}
			v.prov["A"].SetAvailable(false)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				v.b.DrainMaintenance(ctx)
			}()
			if _, err := v.b.Repair(ctx, RepairActive); err != nil {
				v.Error(err)
			}
			wg.Wait()
			// Whoever lost a commit left its object to the next visit.
			v.b.DrainMaintenance(ctx)
			if _, err := v.b.Repair(ctx, RepairActive); err != nil {
				v.Error(err)
			}
			v.prov["A"].SetAvailable(true)
			return []string{"obj"}
		},
	} {
		t.Run(name, func(t *testing.T) {
			reg, backends := cloudtest.Wrap(marketOf("A", "B", "C", "D", "E", "F"))
			v := &env{T: t, prov: make(map[string]*cloudtest.Faulty)}
			for _, hb := range backends {
				hb := hb
				v.prov[hb.Spec().Name] = hb
				hb.OnPut = func(ctx context.Context, key string) error {
					if _, err := hb.BlobStore.Get(ctx, key); err == nil {
						t.Errorf("a write to %s lands on %s, which it holds", hb.Spec().Name, key)
					}
					return nil
				}
				hb.OnDelete = func(context.Context, string) error {
					if v.refuse.Load() {
						return errors.New("injected delete failure")
					}
					return nil
				}
			}
			v.b = newTestBroker(t, Config{Registry: reg, StripeBytes: stripe})
			v.b.Rules().SetContainerRule("bk", repairRule)
			v.e = v.b.Engine(0)
			keys := run(v)

			v.b.ProcessPendingDeletes(ctx)
			if r, n := v.b.Retired(), v.b.PendingDeletes(); r != (RetiredStats{}) || n != 0 {
				t.Errorf("at rest: %+v, %d postponed deletes", r, n)
			}
			referenced := make(map[string]bool)
			for _, key := range keys {
				meta, err := v.e.Head(ctx, "bk", key)
				if err != nil {
					t.Fatal(err)
				}
				if n, err := v.e.VerifyObject(ctx, "bk", key); err != nil || n != len(meta.Chunks) {
					t.Errorf("%s: VerifyObject = %d, %v; want %d", key, n, err, len(meta.Chunks))
				}
				for s := 0; s < meta.StripeCount(); s++ {
					for i, name := range meta.Chunks {
						referenced[name+"|"+meta.chunkKey(s, i)] = true
					}
				}
			}
			held := 0
			for name, hb := range v.prov {
				stored, err := hb.List(ctx, "")
				if err != nil {
					t.Fatal(err)
				}
				for _, key := range stored {
					if held++; !referenced[name+"|"+key] {
						t.Errorf("%s holds %s, which no live row names", name, key)
					}
				}
			}
			if held != len(referenced) {
				t.Errorf("the providers hold %d chunks, the live rows name %d", held, len(referenced))
			}
		})
	}
}

// TestPooledRebuildAcrossSwaps runs swap after swap of (1, 2) and (3, 4)
// objects of several stripes, the victim going round every provider, with
// degraded reads racing each pass. A swap rebuilds into pooled scratch and
// hands it back once the stripe's writes return, a degraded read once the
// stripe drained, and the next stripe, swap or read reuses it; an (1, 2)
// swap writes the survivor itself. Scratch recycled while a Put held it
// fails that Put (cloudtest.Faulty), and so the swap; scratch recycled before
// its chunk was written, or while a read drained it, shows at the end:
// every object must verify all n chunks and read back its payload.
func TestPooledRebuildAcrossSwaps(t *testing.T) {
	const stripe = 4 << 10
	reg, backends := cloudtest.Wrap(marketOf("A", "B", "C", "D", "E", "F"))
	b := newTestBroker(t, Config{Registry: reg, StripeBytes: stripe})
	b.Rules().SetContainerRule("bk", core.Rule{Name: "loose", Durability: 0.9, Availability: 0.9, LockIn: 1})
	prov := make(map[string]*cloudtest.Faulty)
	for _, hb := range backends {
		prov[hb.Spec().Name] = hb
	}
	e := b.Engine(0)
	shapes := []struct {
		m  int
		on []string
	}{{1, []string{"A", "B"}}, {3, []string{"C", "D", "E", "F"}}, {1, []string{"E", "F"}}, {3, []string{"A", "B", "C", "D"}}}
	payloads := make(map[string][]byte)
	for k := 0; k < 8; k++ {
		key, sh := fmt.Sprint("o", k), shapes[k%len(shapes)]
		payload := make([]byte, 3*stripe+100*k) // the last stripe short
		rand.New(rand.NewSource(int64(k))).Read(payload)
		first, err := e.Put(ctx, "bk", key, payload, PutOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.migrate(ctx, first, b.livePlacement(sh.m, sh.on)); err != nil {
			t.Fatal(err)
		}
		payloads[key] = payload
	}
	swapped := 0
	for _, victim := range []string{"A", "C", "E", "B", "D", "F", "A", "D"} {
		prov[victim].SetAvailable(false)
		var wg sync.WaitGroup
		for key, payload := range payloads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, _, err := b.Engine(1).Get(ctx, "bk", key)
				if err != nil || !bytes.Equal(got, payload) {
					t.Errorf("degraded read of %s with %s down: %d bytes, %v", key, victim, len(got), err)
				}
			}()
		}
		rep, err := b.Repair(ctx, RepairActive)
		wg.Wait()
		if err != nil || rep.Skipped != 0 || rep.Restriped != 0 {
			t.Fatalf("repair with %s down: %+v, %v", victim, rep, err)
		}
		swapped += rep.Swapped
		prov[victim].SetAvailable(true)
		b.ProcessPendingDeletes(ctx)
	}
	if swapped < 2*len(payloads) {
		t.Fatalf("%d swaps over the rounds; the scenario expects at least %d", swapped, 2*len(payloads))
	}
	for key, payload := range payloads {
		meta, err := e.Head(ctx, "bk", key)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := e.VerifyObject(ctx, "bk", key); err != nil || n != len(meta.Chunks) {
			t.Errorf("%s (m=%d on %v): VerifyObject = %d, %v", key, meta.M, meta.Chunks, n, err)
		}
		if got, _, err := e.Get(ctx, "bk", key); err != nil || !bytes.Equal(got, payload) {
			t.Errorf("%s reads back wrong after its swaps: %v", key, err)
		}
	}
}

// TestSwapRebuildAllocatesLessThanAChunk: once the scratch pool is warm,
// rebuilding the lost data chunk of a 128 KiB (3, 4) object for a swap —
// a read of three survivors, a rebuild, the sums — allocates less than
// one chunk's bytes: the rebuilt chunk lives in scratch handed back after
// each swap, not in a fresh allocation.
func TestSwapRebuildAllocatesLessThanAChunk(t *testing.T) {
	b := newTestBroker(t, Config{Registry: marketOf("A", "B", "C", "D", "E")})
	e := b.Engine(0)
	first, err := e.Put(ctx, "bk", "obj", testPayload(128<<10), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.migrate(ctx, first, b.livePlacement(3, []string{"A", "B", "C", "D"})); err != nil {
		t.Fatal(err)
	}
	meta, err := e.Head(ctx, "bk", "obj")
	if err != nil || meta.M != 3 || len(meta.Chunks) != 4 || meta.StripeCount() != 1 {
		t.Fatalf("scenario expects one (3, 4) stripe, got m=%d on %v (%v)", meta.M, meta.Chunks, err)
	}
	sw, err := e.planSwap(meta, b.livePlacement(3, []string{"A", "E", "C", "D"}), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	swap := func() {
		f, err := e.rebuild(ctx, sw, 0)
		if err != nil {
			t.Fatal(err)
		}
		erasure.ReleaseScratch(f.scratch)
	}
	swap() // warm the pool
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		swap()
	}
	runtime.ReadMemStats(&after)
	chunk := (128<<10 + 2) / 3
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per rebuild of a %d-byte chunk", per, chunk)
	if per >= uint64(chunk) {
		t.Fatalf("a swap's rebuild allocates %d bytes, want less than one %d-byte chunk", per, chunk)
	}
}
