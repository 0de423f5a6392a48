package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"scalia/internal/cloud/cloudtest"
)

// readOps reads an object through one engine and reports the provider
// operations the read cost. It settles the reaper first, so no delete of a
// superseded version is counted.
func readOps(t *testing.T, b *Broker, e *Engine, container, key string) ([]byte, int64) {
	t.Helper()
	b.ProcessPendingDeletes(ctx)
	before := b.Registry().TotalUsage().Ops
	data, _, err := e.Get(ctx, container, key)
	if err != nil {
		t.Fatalf("%s: Get %s/%s: %v", e.Datacenter(), container, key, err)
	}
	return data, b.Registry().TotalUsage().Ops - before
}

// heldStripes lists the stripes, of the first 16, a datacenter caches of
// one version.
func heldStripes(b *Broker, dc, container, key, uuid string) (held []int) {
	for s := 0; s < 16; s++ {
		if _, ok := b.Caches().GetStripe(dc, ObjectMeta{Container: container, Key: key, UUID: uuid}.cacheID(), s); ok {
			held = append(held, s)
		}
	}
	return held
}

// TestWriteUpdateCoherence: a commit that supersedes a version hands each
// stripe a datacenter caches of it over to the new version, with the new
// bytes; a datacenter that held nothing gets nothing, a write that does
// not commit installs nothing, and at rest no cache names a superseded
// version.
func TestWriteUpdateCoherence(t *testing.T) {
	const stripe = 1024
	newBroker := func(t *testing.T, cfg Config) (*Broker, *Engine, *Engine) {
		cfg.StripeBytes, cfg.CacheBytes = stripe, 1<<20
		b := newTestBroker(t, cfg)
		return b, b.Engine(0), b.Engine(2) // dc1, dc2
	}
	put := func(t *testing.T, e *Engine, key string, payload []byte, opts PutOptions) ObjectMeta {
		t.Helper()
		meta, err := e.Put(ctx, "c", key, payload, opts)
		if err != nil {
			t.Fatal(err)
		}
		return meta
	}

	t.Run("fresh-put-fills-nothing", func(t *testing.T) {
		b, dc1, dc2 := newBroker(t, Config{})
		put(t, dc1, "k", testPayload(3*stripe), PutOptions{})
		put(t, dc2, "k", testPayload(2*stripe), PutOptions{}) // an overwrite of an uncached version
		if st := b.Caches().Stats(); st.Entries != 0 {
			t.Fatalf("writes filled the caches: %+v", st)
		}
	})

	t.Run("holder-updated-other-misses", func(t *testing.T) {
		b, dc1, dc2 := newBroker(t, Config{})
		put(t, dc1, "k", testPayload(2*stripe), PutOptions{})
		readOps(t, b, dc1, "c", "k") // v1 cached in dc1 only
		v2 := bytes.Repeat([]byte("v2"), stripe)
		put(t, dc2, "k", v2, PutOptions{}) // written from the other datacenter
		if got, ops := readOps(t, b, dc1, "c", "k"); ops != 0 || !bytes.Equal(got, v2) {
			t.Fatalf("dc1: %d provider ops, new bytes %v; want 0 ops and v2", ops, bytes.Equal(got, v2))
		}
		if got, ops := readOps(t, b, dc2, "c", "k"); ops == 0 || !bytes.Equal(got, v2) {
			t.Fatalf("dc2: %d provider ops, new bytes %v; want a fetch of v2", ops, bytes.Equal(got, v2))
		}
	})

	t.Run("partial", func(t *testing.T) {
		for _, v2stripes := range []int{4, 2} {
			t.Run(fmt.Sprintf("v2-%d-stripes", v2stripes), func(t *testing.T) {
				b, dc1, _ := newBroker(t, Config{})
				put(t, dc1, "k", testPayload(4*stripe), PutOptions{})
				for _, s := range []int64{1, 3} { // dc1 holds stripes 1 and 3 of v1
					rc, _, err := dc1.GetRangeReader(ctx, "c", "k", s*stripe, stripe)
					if err != nil {
						t.Fatal(err)
					}
					io.Copy(io.Discard, rc) //nolint:errcheck // the fill is what counts
					rc.Close()
				}
				v2 := bytes.Repeat([]byte{0xA5, 0x5A, 0x33}, v2stripes*stripe/3+1)[:v2stripes*stripe]
				meta := put(t, dc1, "k", v2, PutOptions{})
				want := []int{1, 3}[:min(2, v2stripes/2)]
				if held := heldStripes(b, "dc1", "c", "k", meta.UUID); !slices.Equal(held, want) {
					t.Fatalf("dc1 holds stripes %v of v2, want %v", held, want)
				}
				for _, s := range want {
					if got, _ := b.Caches().GetStripe("dc1", meta.cacheID(), s); !bytes.Equal(got, v2[s*stripe:(s+1)*stripe]) {
						t.Fatalf("cached stripe %d is not v2's", s)
					}
				}
				if st := b.Caches().Stats(); st.Entries != int64(len(want)) {
					t.Fatalf("caches hold %d stripes, want %d", st.Entries, len(want))
				}
				fetched := b.ReadStats().StripesFetched
				if got, _ := readOps(t, b, dc1, "c", "k"); !bytes.Equal(got, v2) {
					t.Fatal("dc1 read other bytes than v2")
				}
				if n := b.ReadStats().StripesFetched - fetched; n != int64(v2stripes-len(want)) {
					t.Fatalf("the read fetched %d stripes, want the %d not held", n, v2stripes-len(want))
				}
			})
		}
	})

	t.Run("if-match-veto", func(t *testing.T) {
		reg, backends := cloudtest.Wrap(repairMarket())
		b, dc1, dc2 := newBroker(t, Config{Registry: reg})
		b.Rules().SetContainerRule("c", repairRule)
		v1 := put(t, dc1, "k", testPayload(2*stripe), PutOptions{})
		readOps(t, b, dc1, "c", "k")

		// Vetoed before any chunk traffic: v1 stays cached.
		if _, err := dc1.Put(ctx, "c", "k", testPayload(stripe), PutOptions{IfMatch: "stale"}); !errors.Is(err, ErrPreconditionFailed) {
			t.Fatalf("stale If-Match: %v", err)
		}
		if held := heldStripes(b, "dc1", "c", "k", v1.UUID); !slices.Equal(held, []int{0, 1}) {
			t.Fatalf("after a vetoed write dc1 holds %v of v1, want [0 1]", held)
		}

		// Vetoed at commit: an overwrite from dc2 lands while the
		// conditional write's chunks are out. The winner updates dc1; the
		// loser installs nothing.
		v2 := bytes.Repeat([]byte("v2"), stripe)
		var armed atomic.Bool
		var v2meta ObjectMeta
		var v2err error
		for _, hb := range backends {
			hb.OnPut = func(context.Context, string) error {
				if armed.CompareAndSwap(true, false) {
					v2meta, v2err = dc2.Put(ctx, "c", "k", v2, PutOptions{})
				}
				return nil
			}
		}
		armed.Store(true)
		if _, err := dc1.Put(ctx, "c", "k", testPayload(2*stripe), PutOptions{IfMatch: v1.ETag()}); !errors.Is(err, ErrPreconditionFailed) {
			t.Fatalf("If-Match overtaken by another write: %v", err)
		}
		if v2err != nil {
			t.Fatal(v2err)
		}
		if held := heldStripes(b, "dc1", "c", "k", v2meta.UUID); !slices.Equal(held, []int{0, 1}) {
			t.Fatalf("dc1 holds %v of the winner, want [0 1]", held)
		}
		if st := b.Caches().Stats(); st.Entries != 2 {
			t.Fatalf("caches hold %d stripes, want the winner's two", st.Entries)
		}
		if got, ops := readOps(t, b, dc1, "c", "k"); ops != 0 || !bytes.Equal(got, v2) {
			t.Fatalf("dc1: %d provider ops, winner's bytes %v", ops, bytes.Equal(got, v2))
		}
	})

	t.Run("racing-overwriters", func(t *testing.T) {
		b, dc1, dc2 := newBroker(t, Config{})
		var mu sync.Mutex
		payloads := map[string][]byte{} // UUID -> bytes
		v1 := testPayload(3 * stripe)
		payloads[put(t, dc1, "k", v1, PutOptions{}).UUID] = v1
		readOps(t, b, dc1, "c", "k")
		readOps(t, b, dc2, "c", "k")
		var wg sync.WaitGroup
		for w, e := range []*Engine{dc1, dc2} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < 20; i++ {
					p := make([]byte, stripe+rng.Intn(3*stripe))
					rng.Read(p)
					meta, err := e.Put(ctx, "c", "k", p, PutOptions{})
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					payloads[meta.UUID] = p
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		live, err := dc1.Head(ctx, "c", "k")
		if err != nil {
			t.Fatal(err)
		}
		for _, dc := range []string{"dc1", "dc2"} {
			for uuid, p := range payloads {
				held := heldStripes(b, dc, "c", "k", uuid)
				if uuid != live.UUID && held != nil {
					t.Errorf("%s still caches stripes %v of superseded version %s", dc, held, uuid)
				}
				for _, s := range held {
					got, _ := b.Caches().GetStripe(dc, ObjectMeta{Container: "c", Key: "k", UUID: uuid}.cacheID(), s)
					if !bytes.Equal(got, p[s*stripe:min(len(p), (s+1)*stripe)]) {
						t.Errorf("%s caches other bytes than the live version's at stripe %d", dc, s)
					}
				}
			}
		}
	})
}

// TestMigrationKeepsCachedStripes: a migration re-keys the source
// version's cached stripes to the version it commits, so a cached object
// the optimizer moves is still read from memory; no other datacenter
// gains anything.
func TestMigrationKeepsCachedStripes(t *testing.T) {
	b := newTestBroker(t, Config{Clock: NewSimClock(), MigrationHorizon: 1_000_000, StripeBytes: 256 << 10, CacheBytes: 8 << 20})
	payload := testPayload(1 << 20)
	meta := putVia(t, b, "migrate", slotRules()[0], payload) // five reads through dc1, then Optimize
	if got, ops := readOps(t, b, b.Engine(0), "c", "k"); ops != 0 || !bytes.Equal(got, payload) {
		t.Fatalf("after the migration: %d provider ops, same bytes %v; want 0 ops", ops, bytes.Equal(got, payload))
	}
	if held := heldStripes(b, "dc2", "c", "k", meta.UUID); held != nil {
		t.Fatalf("dc2 gained stripes %v it never read", held)
	}
}

// TestMigrationLosesToOverwrite: a client overwrite that lands while a
// migration copies wins, and the migration re-keys nothing — the
// overwrite's own update of the cache stands.
func TestMigrationLosesToOverwrite(t *testing.T) {
	reg, backends := cloudtest.Wrap(repairMarket())
	b := newTestBroker(t, Config{Registry: reg, StripeBytes: 1024, CacheBytes: 1 << 20})
	_, v1 := putRepairObject(t, b, "obj", 3*1024)
	readOps(t, b, b.Engine(0), "bk", "obj")

	v2 := bytes.Repeat([]byte("v2"), 1024)
	var armed atomic.Bool
	var v2meta ObjectMeta
	var v2err error
	for _, hb := range backends {
		hb.OnPut = func(context.Context, string) error {
			if armed.CompareAndSwap(true, false) {
				v2meta, v2err = b.Engine(2).Put(ctx, "bk", "obj", v2, PutOptions{})
			}
			return nil
		}
	}
	armed.Store(true)
	if err := b.Engine(0).migrate(ctx, v1, b.livePlacement(v1.M, v1.Chunks)); err == nil {
		t.Fatal("a migration overtaken by an overwrite committed")
	}
	if v2err != nil {
		t.Fatal(v2err)
	}
	if held := heldStripes(b, "dc1", "bk", "obj", v2meta.UUID); !slices.Equal(held, []int{0, 1}) {
		t.Fatalf("dc1 holds %v of the overwrite, want [0 1]", held)
	}
	if st := b.Caches().Stats(); st.Entries != 2 {
		t.Fatalf("caches hold %d stripes, want the overwrite's two", st.Entries)
	}
	if got, ops := readOps(t, b, b.Engine(0), "bk", "obj"); ops != 0 || !bytes.Equal(got, v2) {
		t.Fatalf("dc1: %d provider ops, overwrite's bytes %v", ops, bytes.Equal(got, v2))
	}
}
