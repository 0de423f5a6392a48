package engine

import (
	"bytes"
	"context"
	"errors"
	"io"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"scalia/internal/cloud"
	"scalia/internal/cloud/cloudtest"
	"scalia/internal/core"
)

// rotBroker is a (4, 5) deployment over the paper's five providers whose
// every chunk read and write is tallied: reads by stripe (the chunk key
// up to its "/chunkNNN"), writes as one count.
type rotBroker struct {
	*Broker
	mu     sync.Mutex
	reads  map[string]int
	writes int
}

func newRotBroker(t *testing.T) *rotBroker {
	reg, backends := cloudtest.Wrap(cloud.NewPaperRegistry())
	rb := &rotBroker{reads: map[string]int{}}
	for _, hb := range backends {
		hb.OnGet = func(_ context.Context, key string) error {
			rb.mu.Lock()
			rb.reads[key[:strings.LastIndex(key, "/chunk")]]++
			rb.mu.Unlock()
			return nil
		}
		hb.OnPut = func(context.Context, string) error {
			rb.mu.Lock()
			rb.writes++
			rb.mu.Unlock()
			return nil
		}
	}
	rb.Broker = newTestBroker(t, Config{Registry: reg, StripeBytes: 1024, CacheBytes: 1 << 20})
	rb.Rules().SetContainerRule("c", core.PaperRules()[2])
	return rb
}

// tally runs op and returns the chunk reads it made, by stripe, and the
// chunk writes.
func (rb *rotBroker) tally(op func()) (reads map[string]int, writes int) {
	rb.mu.Lock()
	clear(rb.reads)
	rb.writes = 0
	rb.mu.Unlock()
	op()
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return maps.Clone(rb.reads), rb.writes
}

// putRotObject stores the 4-stripe object the table rots: plain, or
// assembled from two 2-stripe parts.
func putRotObject(t *testing.T, e *Engine, multipart bool) ([]byte, ObjectMeta) {
	t.Helper()
	payload := testPayload(3*1024 + 500)
	var meta ObjectMeta
	var err error
	if !multipart {
		meta, err = e.Put(ctx, "c", "k", payload, PutOptions{})
	} else {
		var up UploadInfo
		if up, err = e.CreateUpload(ctx, "c", "k", int64(len(payload)), PutOptions{}); err != nil {
			t.Fatal(err)
		}
		var done []CompletedPart
		for i, p := range [][]byte{payload[:2048], payload[2048:]} {
			info, err := e.UploadPart(ctx, up.UploadID, i+1, bytes.NewReader(p), int64(len(p)))
			if err != nil {
				t.Fatal(err)
			}
			done = append(done, CompletedPart{PartNumber: i + 1, ETag: info.ETag})
		}
		meta, err = e.CompleteUpload(ctx, up.UploadID, done)
	}
	if err != nil {
		t.Fatal(err)
	}
	if meta.M != 4 || len(meta.Chunks) != 5 || meta.StripeCount() != 4 || meta.Multipart() != multipart {
		t.Fatalf("scenario expects 4 stripes at (4, 5), got %d at (%d, %d)", meta.StripeCount(), meta.M, len(meta.Chunks))
	}
	return payload, meta
}

// rotChunk flips one bit of the stored chunk at (stripe s, slot i).
func rotChunk(t *testing.T, b *Broker, meta ObjectMeta, s, i int) {
	t.Helper()
	store, _ := b.Registry().Store(meta.Chunks[i])
	stored, err := store.Get(ctx, meta.chunkKey(s, i))
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(stored) // Get's result is read-only
	data[len(data)/2] ^= 0x10
	if err := store.Put(ctx, meta.chunkKey(s, i), data); err != nil {
		t.Fatal(err)
	}
}

// TestBitRotIsAnErasure: one rotten chunk — data or parity — in one
// stripe of a (4, 5) object costs whatever reads it one extra chunk read
// on that stripe and nothing else: GET, range GET, migrate, swap repair
// and VerifyObject all succeed with the payload intact, a stripe whose
// ranked read did not touch the rotten chunk still bills exactly m, no
// read writes anything, nothing rotten enters the stripe cache or a
// replacement chunk, and once the maintenance queue has drained every
// chunk passes its sum again.
func TestBitRotIsAnErasure(t *testing.T) {
	const rotStripe = 2
	type env struct {
		*testing.T
		rb      *rotBroker
		e       *Engine
		payload []byte
		meta    ObjectMeta
		slot    int
		touched bool // the m cheapest providers include the rotten chunk's
	}
	m, n := 4, 5
	// want is the bill of an operation that reads the given stripes through
	// the ranked order: m each, one more where it meets the rotten chunk.
	want := func(v *env, stripes ...int) map[string]int {
		out := map[string]int{}
		for _, s := range stripes {
			key := v.meta.chunkKey(s, 0)
			out[key[:strings.LastIndex(key, "/chunk")]] = m
			if s == rotStripe && v.touched {
				out[key[:strings.LastIndex(key, "/chunk")]] = m + 1
			}
		}
		return out
	}
	verify := func(v *env) int {
		v.Helper()
		reachable, err := v.e.VerifyObject(ctx, "c", "k")
		if err != nil {
			v.Fatalf("VerifyObject: %v", err)
		}
		return reachable
	}
	ops := map[string]func(v *env){
		"GET": func(v *env) {
			reads, writes := v.rb.tally(func() {
				got, _, err := v.e.Get(ctx, "c", "k")
				if err != nil || !bytes.Equal(got, v.payload) {
					v.Fatalf("GET: %v", err)
				}
			})
			if !maps.Equal(reads, want(v, 0, 1, 2, 3)) || writes != 0 {
				v.Fatalf("GET billed %v and wrote %d chunks, want %v and none", reads, writes, want(v, 0, 1, 2, 3))
			}
			cached, ok := v.rb.Caches().GetStripe(v.e.Datacenter(), v.meta.cacheID(), rotStripe)
			if !ok || !bytes.Equal(cached, v.payload[rotStripe*1024:(rotStripe+1)*1024]) {
				v.Fatal("the stripe read around the rotten chunk is not cached intact")
			}
		},
		"range GET": func(v *env) {
			reads, writes := v.rb.tally(func() {
				rc, _, err := v.e.GetRangeReader(ctx, "c", "k", rotStripe*1024+100, 300)
				if err != nil {
					v.Fatal(err)
				}
				defer rc.Close()
				got, err := io.ReadAll(rc)
				if err != nil || !bytes.Equal(got, v.payload[rotStripe*1024+100:rotStripe*1024+400]) {
					v.Fatalf("range GET: %v", err)
				}
			})
			if !maps.Equal(reads, want(v, rotStripe)) || writes != 0 {
				v.Fatalf("range GET billed %v and wrote %d chunks, want %v and none", reads, writes, want(v, rotStripe))
			}
		},
		"migrate": func(v *env) {
			reads, _ := v.rb.tally(func() {
				if err := v.e.migrate(ctx, v.meta, v.rb.livePlacement(m, v.meta.Chunks)); err != nil {
					v.Fatalf("migrate: %v", err)
				}
			})
			if !maps.Equal(reads, want(v, 0, 1, 2, 3)) {
				v.Fatalf("migrate billed %v, want %v", reads, want(v, 0, 1, 2, 3))
			}
			v.touched = false // the version the rot was noted on is gone
		},
		// With n - m = 1 the only swap a stripe with a rotten chunk can
		// still afford is the one that replaces that chunk: the heal.
		"swap repair": func(v *env) {
			v.touched = false // the rotten slot is the one replaced, not read
			var out outcome
			reads, writes := v.rb.tally(func() {
				sw, err := v.e.planSwap(v.meta, v.rb.livePlacement(m, v.meta.Chunks), []int{v.slot})
				if err == nil {
					err = v.e.swapRepair(ctx, sw, &out)
				}
				if err != nil {
					v.Fatalf("swap repair: %v", err)
				}
			})
			if !maps.Equal(reads, want(v, 0, 1, 2, 3)) || writes != 4 || out.swapped != 1 {
				v.Fatalf("swap repair billed %v, wrote %d chunks (%+v); want %v and one chunk per stripe",
					reads, writes, out, want(v, 0, 1, 2, 3))
			}
			if got := verify(v); got != n {
				v.Fatalf("VerifyObject = %d after the rotten slot was rewritten, want %d", got, n)
			}
		},
		"VerifyObject": func(v *env) {
			var got int
			reads, writes := v.rb.tally(func() { got = verify(v) })
			all := want(v, 0, 1, 2, 3)
			for stripe := range all {
				all[stripe] = n
			}
			if got != n-1 || !maps.Equal(reads, all) || writes != 0 {
				v.Fatalf("VerifyObject = %d, billed %v, wrote %d chunks; want %d, %v and none", got, reads, writes, n-1, all)
			}
			v.touched = true // every chunk was read
		},
	}
	for _, multipart := range []bool{false, true} {
		for _, parity := range []bool{false, true} {
			for name, op := range ops {
				kind := map[bool]string{false: "plain", true: "multipart"}[multipart] + "/" +
					map[bool]string{false: "data", true: "parity"}[parity] + "/" + name
				t.Run(kind, func(t *testing.T) {
					rb := newRotBroker(t)
					v := &env{T: t, rb: rb, e: rb.Engine(0)}
					v.payload, v.meta = putRotObject(t, v.e, multipart)
					l, err := v.e.layoutOf(v.meta)
					if err != nil {
						t.Fatal(err)
					}
					order, _ := l.rank(nil)
					// The rotten slot: the cheapest data chunk, which every
					// ranked read touches, or the parity chunk, touched only
					// if its provider is among the m cheapest.
					v.slot = m
					if !parity {
						v.slot = order[slices.IndexFunc(order, func(i int) bool { return i < m })]
					}
					v.touched = slices.Contains(order[:m], v.slot)
					rotChunk(t, rb.Broker, v.meta, rotStripe, v.slot)

					// Rot is counted where it was met, under its own name, and
					// not as a failed provider read.
					met := int64(0)
					if name == "VerifyObject" || (v.touched && name != "swap repair") {
						met = 1
					}
					before := rb.ReadStats()
					op(v)
					after := rb.ReadStats()
					if after.CorruptChunks-before.CorruptChunks != met ||
						rb.metrics.chunkSumFailures.With(v.meta.Chunks[v.slot]).Value() != met {
						t.Fatalf("CorruptChunks rose by %d, want %d, all at %s",
							after.CorruptChunks-before.CorruptChunks, met, v.meta.Chunks[v.slot])
					}
					if after.FetchFallbacks != before.FetchFallbacks {
						t.Fatalf("rot was counted as %d failed provider reads", after.FetchFallbacks-before.FetchFallbacks)
					}
					for _, name := range v.meta.Chunks {
						if rb.metrics.providerErrs.With(name, "get").Value() != 0 {
							t.Fatalf("rot was recorded as a failed get at %s", name)
						}
					}
					// What the operation's reads rejected is healed by one
					// drain of the maintenance queue; rot no ranked read met
					// costs nothing until a verification finds it.
					rb.DrainMaintenance(ctx)
					if !v.touched && name != "migrate" && name != "swap repair" {
						if got := verify(v); got != n-1 {
							t.Fatalf("VerifyObject = %d with the rot not yet met, want %d", got, n-1)
						}
						rb.DrainMaintenance(ctx)
					}
					if got := verify(v); got != n {
						t.Fatalf("VerifyObject = %d after the drain, want %d", got, n)
					}
					if len(rb.rot) != 0 {
						t.Fatalf("noted rot left behind: %v", rb.rot)
					}
					got, _, err := v.e.Get(ctx, "c", "k")
					if err != nil || !bytes.Equal(got, v.payload) {
						t.Fatalf("read after the heal: %v", err)
					}
				})
			}
		}
	}
}

// TestFailedHealDestroysNothing: a heal writes its chunks beside the live
// ones, under a generation of its own, so when it fails part-way its
// rollback takes exactly what it wrote — the object keeps all n chunks of
// every stripe, the provider holds nothing else, and the rot stays noted
// for the next visit.
func TestFailedHealDestroysNothing(t *testing.T) {
	rb := newRotBroker(t)
	e := rb.Engine(0)
	payload, meta := putRotObject(t, e, false)
	const slot = 0
	rotChunk(t, rb.Broker, meta, 2, slot)
	hb, _ := rb.Registry().Store(meta.Chunks[slot])
	stripe3 := strings.TrimSuffix(meta.chunkKey(3, slot), "0") // of any generation
	hb.(*cloudtest.Faulty).OnPut = func(_ context.Context, key string) error {
		if strings.HasPrefix(key, stripe3) {
			return errors.New("injected write failure")
		}
		return nil
	}
	if n, err := e.VerifyObject(ctx, "c", "k"); err != nil || n != 4 { // finds and notes the rot
		t.Fatalf("VerifyObject = %d, %v; want 4", n, err)
	}
	rb.DrainMaintenance(ctx)
	if len(rb.rot) != 1 {
		t.Fatalf("a failed heal must leave the rot noted, have %v", rb.rot)
	}
	// Whichever stripes were rewritten before stripe 3 failed, the rollback
	// took those chunks and no other.
	rb.ProcessPendingDeletes(ctx)
	var want []string
	for s := 0; s < 4; s++ {
		want = append(want, meta.chunkKey(s, slot))
	}
	if keys, err := hb.List(ctx, ""); err != nil || !slices.Equal(keys, want) {
		t.Fatalf("after the failed heal and a settle the provider holds %v (%v), want the live chunks %v", keys, err, want)
	}
	if got, _, err := e.Get(ctx, "c", "k"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read after the failed heal: %v", err)
	}
}

// TestSurvivorHeldToTheLostSlotsSum: a (1, 2) object's lost slot is the
// survivor byte for byte, which fetch takes without summing it again;
// the survivor still has to hold the lost slot's stored sum. With slot
// 0's provider down, a read serves the survivor while the two slots'
// sums agree, and fails with ErrChecksum once slot 0's sum disagrees.
func TestSurvivorHeldToTheLostSlotsSum(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024})
	e := b.Engine(0)
	payload := testPayload(3*1024 + 500)
	meta, err := e.Put(ctx, "c", "k", payload, PutOptions{Rule: &core.PaperRules()[1]})
	if err != nil {
		t.Fatal(err)
	}
	if meta.M != 1 || len(meta.Chunks) != 2 {
		t.Fatalf("scenario expects a (1, 2) object, got (%d, %d)", meta.M, len(meta.Chunks))
	}
	blob(t, b, meta.Chunks[0]).SetAvailable(false)
	if got, _, err := e.Get(ctx, "c", "k"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read with slot 0 down: %v", err)
	}
	bad := meta.clone()
	bad.Sums[2].Chunks[0] ^= 1
	if _, err := e.publish("c", "k", nil, func(*ObjectMeta) (*ObjectMeta, error) { return &bad, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Get(ctx, "c", "k"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("read with slot 0 down and its sum disagreeing = %v, want ErrChecksum", err)
	}
}

// TestMalformedSumsFailClosed: a stripe whose sum record is missing, or
// does not cover exactly its n chunks, is never served, copied or called
// healthy — every path through fetch fails with ErrChecksum before it
// asks a provider, and none panics. Nor is one whose payload sum the
// chunks that pass their own do not compose to, whether the data chunks
// are read as they lie or one of them is rebuilt from parity.
func TestMalformedSumsFailClosed(t *testing.T) {
	for name, maim := range map[string]func(*ObjectMeta){
		"nil":         func(m *ObjectMeta) { m.Sums = nil },
		"short":       func(m *ObjectMeta) { m.Sums = m.Sums[:2] },
		"narrow row":  func(m *ObjectMeta) { m.Sums[3].Chunks = m.Sums[3].Chunks[:4] },
		"wide row":    func(m *ObjectMeta) { m.Sums[3].Chunks = append(m.Sums[3].Chunks, 0) },
		"payload bit": func(m *ObjectMeta) { m.Sums[3].Payload ^= 1 },
	} {
		t.Run(name, func(t *testing.T) {
			rb := newRotBroker(t)
			e := rb.Engine(0)
			_, meta := putRotObject(t, e, false)
			bad := meta
			bad.Sums = slices.Clone(meta.Sums)
			maim(&bad)
			if _, err := e.publish("c", "k", nil, func(*ObjectMeta) (*ObjectMeta, error) { return &bad, nil }); err != nil {
				t.Fatal(err)
			}
			wantChecksum := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrChecksum) {
					t.Fatalf("%s = %v, want ErrChecksum", what, err)
				}
			}
			_, _, err := e.Get(ctx, "c", "k")
			wantChecksum("GET", err)
			rc, _, err := e.GetRangeReader(ctx, "c", "k", 3*1024, 100)
			if err == nil {
				_, err = io.ReadAll(rc)
				rc.Close()
			}
			wantChecksum("range GET of the last stripe", err)
			_, err = e.VerifyObject(ctx, "c", "k")
			wantChecksum("VerifyObject", err)
			wantChecksum("migrate", e.migrate(ctx, bad, rb.livePlacement(bad.M, bad.Chunks)))
			store, _ := rb.Registry().Store(bad.Chunks[0])
			store.(*cloudtest.Faulty).SetAvailable(false) // data slot 0 is rebuilt
			_, _, err = e.Get(ctx, "c", "k")
			store.(*cloudtest.Faulty).SetAvailable(true)
			wantChecksum("GET with data slot 0 down", err)
		})
	}
}
