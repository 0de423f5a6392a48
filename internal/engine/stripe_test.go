package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/cloud/cloudtest"
	"scalia/internal/core"
	"scalia/internal/crc32c"
	"scalia/internal/erasure"
)

// TestFetchReadsExactlyMChunks pins the paper's read rule (§III-B: "the
// m cheapest providers") under provider latency: a healthy stripe costs
// exactly m chunk reads — a worker whose fetch succeeded must not go on
// to claim the spare while its peers are still in flight — and a failed
// read costs exactly one more, from the spare.
func TestFetchReadsExactlyMChunks(t *testing.T) {
	reg, backends := cloudtest.Wrap(cloud.NewPaperRegistry())
	for _, hb := range backends {
		hb.GetDelay = 2 * time.Millisecond
	}
	b := newTestBroker(t, Config{Registry: reg, StripeBytes: 1024})
	b.Rules().SetContainerRule("c", core.PaperRules()[2])
	e := b.Engine(0)
	payload := testPayload(4 * 1024)
	meta, err := e.Put(ctx, "c", "k", payload, PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.M != 4 || len(meta.Chunks) != 5 || meta.StripeCount() != 4 {
		t.Fatalf("scenario expects 4 stripes at (m=4, n=5), got %d at (%d, %d)", meta.StripeCount(), meta.M, len(meta.Chunks))
	}
	read := func() (ok, failed, fallbacks int64) {
		t.Helper()
		for _, hb := range backends {
			hb.Gets.Store(0)
			hb.GetErrs.Store(0)
		}
		before := b.ReadStats().FetchFallbacks
		got, _, err := e.Get(ctx, "c", "k")
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read: %v", err)
		}
		for _, hb := range backends {
			ok += hb.Gets.Load()
			failed += hb.GetErrs.Load()
		}
		return ok, failed, b.ReadStats().FetchFallbacks - before
	}
	if ok, failed, fallbacks := read(); ok != 16 || failed != 0 || fallbacks != 0 {
		t.Fatalf("healthy read: %d chunk reads, %d failed, %d fallbacks; want 16, 0, 0", ok, failed, fallbacks)
	}
	// Break one of the providers the healthy read chose.
	for _, hb := range backends {
		if hb.Gets.Load() > 0 {
			hb.OnGet = func(context.Context, string) error { return errors.New("injected fetch failure") }
			break
		}
	}
	if ok, failed, fallbacks := read(); ok != 16 || failed != 4 || fallbacks != 4 {
		t.Fatalf("read with a faulty provider: %d chunk reads, %d failed, %d fallbacks; want 16, 4, 4", ok, failed, fallbacks)
	}
}

// TestRepairRestripesMultipartObject: a multipart version's Checksum is
// the md5-N composite of its part ETags, not a body MD5, so a migration
// must verify the copy stripe by stripe and carry the composite over —
// not compare a body MD5 against it and skip the object.
func TestRepairRestripesMultipartObject(t *testing.T) {
	b := newTestBroker(t, Config{Registry: marketOf("A", "B", "C"), StripeBytes: 64 << 10})
	b.Rules().SetContainerRule("bk", restripeRule)
	e := b.Engine(0)
	parts := [][]byte{testPayload(128 << 10), testPayload(96 << 10)}
	up, err := e.CreateUpload(ctx, "bk", "mp", int64(len(parts[0])+len(parts[1])), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var done []CompletedPart
	for i, p := range parts {
		info, err := e.UploadPart(ctx, up.UploadID, i+1, bytes.NewReader(p), int64(len(p)))
		if err != nil {
			t.Fatal(err)
		}
		done = append(done, CompletedPart{PartNumber: i + 1, ETag: info.ETag})
	}
	meta, err := e.CompleteUpload(ctx, up.UploadID, done)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Multipart() || len(meta.Chunks) != 3 {
		t.Fatalf("scenario expects a multipart object on all three providers, got %+v", meta)
	}
	blob(t, b, meta.Chunks[0]).SetAvailable(false)

	rep, err := b.Repair(ctx, RepairActive)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restriped != 1 || rep.Skipped != 0 {
		t.Fatalf("repair report = %+v, want the object re-striped", rep)
	}
	after, err := e.Head(ctx, "bk", "mp")
	if err != nil {
		t.Fatal(err)
	}
	if after.Checksum != meta.Checksum || after.UUID == meta.UUID {
		t.Fatalf("re-stripe must write a new version carrying the composite checksum: %+v", after)
	}
	got, _, err := e.Get(ctx, "bk", "mp")
	if err != nil || !bytes.Equal(got, append(parts[0], parts[1]...)) {
		t.Fatalf("payload lost in re-stripe: %v", err)
	}
	if reachable, err := e.VerifyObject(ctx, "bk", "mp"); err != nil || reachable != len(after.Chunks) {
		t.Fatalf("VerifyObject = %d, %v; want %d", reachable, err, len(after.Chunks))
	}
}

// TestStalePostponedDeleteSparesLiveChunk: when slot i moves P -> Q while
// P is down and later back Q -> P, the delete postponed for P's stale copy
// must not destroy the live chunk when it is replayed afterwards — which
// it cannot: the second swap wrote the slot under another generation, so
// the two are different keys. Covers an object of many stripes and one
// of a single stripe.
func TestStalePostponedDeleteSparesLiveChunk(t *testing.T) {
	for name, size := range map[string]int{"multi-stripe": 256 << 10, "single-stripe": 16 << 10} {
		t.Run(name, func(t *testing.T) {
			b := newTestBroker(t, Config{Registry: repairMarket(), StripeBytes: 64 << 10})
			b.Rules().SetContainerRule("bk", repairRule)
			payload := testPayload(size)
			meta, err := b.Engine(0).Put(ctx, "bk", "obj", payload, PutOptions{})
			if err != nil {
				t.Fatal(err)
			}
			const slot = 1
			swapAway := func(from string) string {
				t.Helper()
				blob(t, b, from).SetAvailable(false)
				rep, err := b.Repair(ctx, RepairActive)
				if err != nil || rep.Swapped != 1 {
					t.Fatalf("repair with %s down: %v (%+v)", from, err, rep)
				}
				blob(t, b, from).SetAvailable(true) // recovers; its stale delete stays queued
				after, err := b.Engine(0).Head(ctx, "bk", "obj")
				if err != nil {
					t.Fatal(err)
				}
				return after.Chunks[slot]
			}
			p := meta.Chunks[slot]
			q := swapAway(p)
			if back := swapAway(q); back != p || q == p {
				t.Fatalf("scenario expects slot %d to go %s -> spare -> %s, went -> %s -> %s", slot, p, p, q, back)
			}
			after, err := b.Engine(0).Head(ctx, "bk", "obj")
			if err != nil || after.chunkKey(0, slot) == meta.chunkKey(0, slot) {
				t.Fatalf("back at %s the slot must have a key of its own, has %s again (%v)", p, after.chunkKey(0, slot), err)
			}
			b.ProcessPendingDeletes(ctx)
			if n := b.PendingDeletes(); n != 0 {
				t.Fatalf("%d deletes still pending with every provider up", n)
			}
			if keys, err := blob(t, b, p).List(ctx, meta.SKey); err != nil || len(keys) != meta.StripeCount() || keys[0] != after.chunkKey(0, slot) {
				t.Fatalf("%s holds %v (%v), want the %d live chunks of slot %d", p, keys, err, meta.StripeCount(), slot)
			}
			if reachable, err := b.Engine(0).VerifyObject(ctx, "bk", "obj"); err != nil || reachable != len(meta.Chunks) {
				t.Fatalf("VerifyObject = %d, %v; want %d", reachable, err, len(meta.Chunks))
			}
			if got, _, err := b.Engine(0).Get(ctx, "bk", "obj"); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("object lost to a stale delete: %v", err)
			}
		})
	}
}

// TestStripeEngineTeardown drives every caller of the stripe engine into
// a failure — the providers start failing mid-fan-out, the context is
// cancelled mid-pipeline, the body ends early — at pipe depths 1 and 4,
// and asserts the same post-conditions for all of them: the operation
// failed, no provider holds a chunk live metadata does not reference,
// both budget gauges are back at zero, every goroutine is gone, the
// stripe cache holds only whole, correct stripes, and the objects stored
// before are untouched and readable.
func TestStripeEngineTeardown(t *testing.T) {
	const stripe = 1024
	type fixture struct {
		b       *Broker
		e       *Engine
		ctx     context.Context
		body    func(n int) io.Reader // a body of n declared bytes
		payload []byte                // of bk/obj
		meta    ObjectMeta            // of bk/obj
	}
	// Every op returns whether it failed.
	ops := []struct {
		name  string
		kind  string // the provider op its fan-out makes
		body  bool   // takes a body (the short-body fault applies)
		small bool   // stores five single-stripe objects instead of bk/obj
		down  bool   // provider A goes down first
		run   func(f *fixture) bool
	}{
		{name: "put", kind: "put", body: true, run: func(f *fixture) bool {
			_, err := f.e.PutReader(f.ctx, "bk", "new", f.body(8*stripe), 8*stripe, PutOptions{})
			return err != nil
		}},
		{name: "upload-part", kind: "put", body: true, run: func(f *fixture) bool {
			up, err := f.e.CreateUpload(context.Background(), "bk", "mp", 8*stripe, PutOptions{})
			if err != nil {
				return false
			}
			_, err = f.e.UploadPart(f.ctx, up.UploadID, 1, f.body(8*stripe), 8*stripe)
			return err != nil
		}},
		{name: "get", kind: "get", run: func(f *fixture) bool {
			rc, _, err := f.e.GetReader(f.ctx, "bk", "obj")
			if err == nil {
				_, err = io.Copy(io.Discard, rc)
				rc.Close()
			}
			return err != nil
		}},
		{name: "range-get", kind: "get", run: func(f *fixture) bool {
			rc, _, err := f.e.GetRangeReader(f.ctx, "bk", "obj", stripe/2, 6*stripe)
			if err == nil {
				_, err = io.Copy(io.Discard, rc)
				rc.Close()
			}
			return err != nil
		}},
		{name: "migrate", kind: "put", run: func(f *fixture) bool {
			to := core.Placement{M: 2}
			for _, name := range []string{"B", "C", "D"} {
				s, _ := f.b.Registry().Store(name)
				to.Providers = append(to.Providers, s.Spec())
			}
			return f.e.migrate(f.ctx, f.meta, to) != nil
		}},
		{name: "swap", kind: "put", down: true, run: func(f *fixture) bool {
			// A cancelled pass reports the context error; a failed swap
			// (and the re-stripe tried after it) is merely not counted.
			rep, err := f.b.Repair(f.ctx, RepairActive)
			return rep.Repaired == 0 && rep.Swapped == 0 && (err != nil) == (f.ctx.Err() != nil)
		}},
		{name: "single-stripe-swap", kind: "put", small: true, down: true, run: func(f *fixture) bool {
			// Each object's swap commits on its own: some may land before the fault.
			rep, err := f.b.Repair(f.ctx, RepairActive)
			return err != nil || rep.Repaired < 5
		}},
		{name: "verify", kind: "get", run: func(f *fixture) bool {
			_, err := f.e.VerifyObject(f.ctx, "bk", "obj")
			return err != nil
		}},
	}
	for _, op := range ops {
		for _, fault := range []string{"provider-error", "cancel", "short-body"} {
			if fault == "short-body" && !op.body {
				continue
			}
			for _, depth := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/depth-%d", op.name, fault, depth), func(t *testing.T) {
					reg, backends := cloudtest.Wrap(repairMarket())
					knob := depth // a negative knob is how a deployment asks for depth 1
					if depth == 1 {
						knob = -1
					}
					b := newTestBroker(t, Config{
						Registry: reg, StripeBytes: stripe, CacheBytes: 1 << 20,
						ReadParallelism: knob, PrefetchStripes: knob - 1, WritePipelineDepth: knob,
					})
					b.Rules().SetContainerRule("bk", repairRule)
					store := func(name string) *cloud.BlobStore {
						s, _ := b.Registry().Store(name)
						return s.(*cloudtest.Faulty).BlobStore
					}
					e := b.Engine(0)
					f := &fixture{b: b, e: e, payload: testPayload(8 * stripe)}
					live := []string{"obj"}
					if op.small {
						live = []string{"s0", "s1", "s2", "s3", "s4"}
					}
					for _, key := range live {
						size := len(f.payload)
						if op.small {
							size = stripe / 2
						}
						meta, err := e.Put(ctx, "bk", key, f.payload[:size], PutOptions{})
						if err != nil {
							t.Fatal(err)
						}
						if meta.Chunks[0] != "A" || len(meta.Chunks) != 3 {
							t.Fatalf("scenario expects placement on {A, B, C}, got %v", meta.Chunks)
						}
						f.meta = meta
					}
					if op.down {
						store("A").SetAvailable(false)
					}

					// Arm the fault: after the fan-out's second provider op, every
					// further one fails, or the request context is cancelled.
					cctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					f.ctx = cctx
					f.body = func(n int) io.Reader { return bytes.NewReader(testPayload(n)) }
					var armed atomic.Bool
					var seen atomic.Int64
					hook := func(context.Context, string) error {
						if !armed.Load() || seen.Add(1) <= 2 {
							return nil
						}
						if fault == "cancel" {
							cancel()
							return nil
						}
						return errors.New("injected provider failure")
					}
					if fault == "short-body" {
						f.body = func(n int) io.Reader { return bytes.NewReader(testPayload(n - stripe - 1)) }
					} else {
						for _, hb := range backends {
							if op.kind == "get" {
								hb.OnGet = hook
							} else {
								hb.OnPut = hook
							}
						}
					}
					base := runtime.NumGoroutine()
					armed.Store(true)
					failed := op.run(f)
					armed.Store(false)
					if !failed {
						t.Fatal("the fault did not fail the operation")
					}

					// Post-conditions, the same for every caller.
					store("A").SetAvailable(true)
					b.ProcessPendingDeletes(ctx)
					if rs, ws := b.ReadStats(), b.WriteStats(); rs.BufferedStripes != 0 || ws.StripesInFlight != 0 {
						t.Fatalf("budget slots leaked: reads hold %d, writes %d", rs.BufferedStripes, ws.StripesInFlight)
					}
					for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatalf("goroutines did not settle: %d -> %d", base, runtime.NumGoroutine())
						}
					}
					c := b.Caches().Datacenter(e.Datacenter())
					for s := 0; !op.small && s < f.meta.StripeCount(); s++ {
						if data, ok := c.GetStripe(f.meta.cacheID(), s); ok && !bytes.Equal(data, f.payload[s*stripe:(s+1)*stripe]) {
							t.Fatalf("stripe cache holds a torn stripe %d (%d bytes)", s, len(data))
						}
					}
					referenced := make(map[string]bool)
					for _, key := range live {
						meta, err := e.Head(ctx, "bk", key)
						if err != nil || meta.UUID == "" {
							t.Fatalf("seeded object %s lost: %v", key, err)
						}
						if !op.small && (meta.UUID != f.meta.UUID || !slices.Equal(meta.Chunks, f.meta.Chunks)) {
							t.Fatalf("failed operation changed live metadata: %v -> %v", f.meta.Chunks, meta.Chunks)
						}
						for s := 0; s < meta.StripeCount(); s++ {
							for i, name := range meta.Chunks {
								referenced[name+"|"+meta.chunkKey(s, i)] = true
							}
						}
						got, _, err := e.Get(ctx, "bk", key)
						if err != nil || !bytes.Equal(got, f.payload[:meta.Size]) {
							t.Fatalf("seeded object %s unreadable after the failed operation: %v", key, err)
						}
					}
					if _, err := e.Head(ctx, "bk", "new"); !errors.Is(err, ErrObjectNotFound) {
						t.Fatalf("failed write committed metadata: %v", err)
					}
					for _, hb := range backends {
						keys, err := hb.List(ctx, "")
						if err != nil {
							t.Fatal(err)
						}
						for _, key := range keys {
							if !referenced[hb.Spec().Name+"|"+key] {
								t.Fatalf("orphan chunk %s at %s", key, hb.Spec().Name)
							}
						}
					}
				})
			}
		}
	}
}

// TestStripeSumMatchesTheChunks: the integrity record stripeSum completes
// from the data chunks' payload heads equals CRC-32Cs taken directly over
// every chunk and the payload. The single parity of (m, m+1), m = 1..8,
// and the replicas of (1, 3) are summed by derivation — an even m takes
// the conditioning back — and the rows of (3, 6) past the first are
// summed over their bytes; stripes end on a chunk boundary, inside a
// chunk, and before the last chunks hold any payload.
func TestStripeSumMatchesTheChunks(t *testing.T) {
	codes := [][2]int{{1, 3}, {3, 6}}
	for m := 1; m <= 8; m++ {
		codes = append(codes, [2]int{m, m + 1})
	}
	for _, code := range codes {
		coder, err := erasure.New(code[0], code[1])
		if err != nil {
			t.Fatal(err)
		}
		m := coder.M()
		for _, size := range []int{0, 1, m, 64*m - 1, 64 * m, 64*m + 1, 640*m - 700} {
			size = max(size, 0)
			payload := testPayload(size)
			chunks, err := coder.Encode(payload)
			if err != nil {
				t.Fatal(err)
			}
			c := len(chunks[0])
			heads := make([]uint32, m)
			for i := range heads {
				heads[i] = crc32c.Checksum(chunks[i][:payloadLen(size, c, i)])
			}
			sum := stripeSum(coder, chunks, heads, size)
			if sum.Payload != crc32c.Checksum(payload) {
				t.Fatalf("(%d, %d), %d bytes: payload sum %08x, want %08x", m, coder.N(), size, sum.Payload, crc32c.Checksum(payload))
			}
			for i, chunk := range chunks {
				if want := crc32c.Checksum(chunk); sum.Chunks[i] != want {
					t.Fatalf("(%d, %d), %d bytes: chunk %d sum %08x, want %08x (derived: %v)",
						m, coder.N(), size, i, sum.Chunks[i], want, coder.XORParity(i))
				}
			}
		}
	}
}
