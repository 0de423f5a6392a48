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
)

// chunksUnder counts the chunks the providers hold under a version's
// storage key.
func chunksUnder(b *Broker, skey string) int {
	n := 0
	for _, s := range b.Registry().Snapshot() {
		keys, _ := s.List(ctx, skey)
		n += len(keys)
	}
	return n
}

// TestHeldStreamSurvivesOverwrite: a GET stream opened on a version pins
// it. An overwrite that lands mid-stream returns without touching the old
// chunks, a settle leaves them alone while the stream is open, the stream
// delivers the old bytes intact, and only its end — drained or closed —
// lets the reaper have them.
func TestHeldStreamSurvivesOverwrite(t *testing.T) {
	const stripe = 1024
	b := newTestBroker(t, Config{Registry: repairMarket(), StripeBytes: stripe})
	b.Rules().SetContainerRule("bk", repairRule)
	e := b.Engine(0)
	old := testPayload(8 * stripe) // well past the read-ahead window
	v1, err := e.Put(ctx, "bk", "obj", old, PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	held := len(v1.Chunks) * v1.StripeCount()

	rc, _, err := e.GetReader(ctx, "bk", "obj")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(old))
	if _, err := io.ReadFull(rc, got[:stripe]); err != nil {
		t.Fatal(err)
	}

	fresh := bytes.Repeat([]byte("new"), 1000)
	if _, err := e.Put(ctx, "bk", "obj", fresh, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	b.ProcessPendingDeletes(ctx)
	if r := b.Retired(); r.Versions != 1 || r.Pinned != 1 || r.Bytes != storedBytes(v1) {
		t.Fatalf("with the stream open: %+v, want the old version (%d bytes) retired and pinned", r, storedBytes(v1))
	}
	var text bytes.Buffer
	b.Metrics().WritePrometheus(&text) //nolint:errcheck
	if g := promValues(t, text.String()); g["scalia_retired_versions"] != 1 || g["scalia_pinned_objects"] != 1 ||
		g["scalia_retired_bytes"] != float64(storedBytes(v1)) {
		t.Fatalf("gauges with the stream open: %v retired, %v bytes, %v pinned", g["scalia_retired_versions"], g["scalia_retired_bytes"], g["scalia_pinned_objects"])
	}
	if n := chunksUnder(b, v1.SKey); n != held {
		t.Fatalf("the settle took %d of the pinned version's %d chunks", held-n, held)
	}

	// All but the last byte: a drained stream lets its pin go as Close
	// does, and the reaper may then take the chunks at any moment.
	if _, err := io.ReadFull(rc, got[stripe:len(old)-1]); err != nil {
		t.Fatalf("stream cut off by the overwrite: %v", err)
	}
	if n := chunksUnder(b, v1.SKey); n != held {
		t.Fatalf("%d of %d old chunks left before Close", n, held)
	}
	if _, err := io.ReadFull(rc, got[len(old)-1:]); err != nil {
		t.Fatalf("stream cut off by the overwrite: %v", err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("the held stream did not deliver the version it was opened on")
	}
	rc.Close()
	b.ProcessPendingDeletes(ctx)
	if n := chunksUnder(b, v1.SKey); n != 0 {
		t.Fatalf("%d old chunks survive the stream's Close and a settle", n)
	}
	if r := b.Retired(); r != (RetiredStats{}) {
		t.Fatalf("at rest: %+v", r)
	}
	if data, _, err := e.Get(ctx, "bk", "obj"); err != nil || !bytes.Equal(data, fresh) {
		t.Fatalf("new version: %d bytes, %v", len(data), err)
	}
}

// TestHeldHitSurvivesEvictionAndOverwrite: a cache hit is the cached slice
// itself, lent to the stream. A stream that holds hits — the stripe it is
// draining and the ones read ahead — while the object is overwritten (its
// cached stripes invalidated) and other reads push the cache past its
// capacity (evicted, their room refilled) still delivers the version it
// was opened on: the cache drops references, it never writes the bytes.
func TestHeldHitSurvivesEvictionAndOverwrite(t *testing.T) {
	const stripe = 1024
	b := newTestBroker(t, Config{StripeBytes: stripe, CacheBytes: 10 * stripe, PrefetchStripes: 2})
	e := b.Engine(0)
	old := testPayload(8 * stripe)
	if _, err := e.Put(ctx, "c", "obj", old, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Get(ctx, "c", "obj"); err != nil { // fill
		t.Fatal(err)
	}
	fetched := b.ReadStats().StripesFetched

	rc, _, err := e.GetReader(ctx, "c", "obj")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	got := make([]byte, len(old))
	if _, err := io.ReadFull(rc, got[:stripe+stripe/2]); err != nil { // half a borrowed stripe in hand
		t.Fatal(err)
	}
	if rs := b.ReadStats(); rs.StripesFetched != fetched {
		t.Fatalf("a stream over a fully cached object fetched %d stripes", rs.StripesFetched-fetched)
	}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("other%d", w)
			if w == 0 {
				key = "obj" // the overwrite
			}
			fill := bytes.Repeat([]byte{byte('A' + w)}, 8*stripe)
			if _, err := e.Put(ctx, "c", key, fill, PutOptions{}); err != nil {
				t.Error(err)
			}
			if data, _, err := e.Get(ctx, "c", key); err != nil || !bytes.Equal(data, fill) {
				t.Errorf("%s: %d bytes, %v", key, len(data), err)
			}
		}(w)
	}
	// The stream drains while the cache churns under it.
	if _, err := io.ReadFull(rc, got[stripe+stripe/2:]); err != nil {
		t.Fatalf("stream cut off: %v", err)
	}
	wg.Wait()
	if !bytes.Equal(got, old) {
		t.Fatal("the held stream did not deliver the version it was opened on")
	}
	if cs := b.Caches().Stats(); cs.Evictions == 0 {
		t.Fatalf("scenario expects evictions: %+v", cs)
	}
	rc.Close()
	if rs := b.ReadStats(); rs.CorruptChunks != 0 || rs.BufferedStripes != 0 {
		t.Fatalf("%d chunks failed their sum, %d budget slots held after Close", rs.CorruptChunks, rs.BufferedStripes)
	}
}

// TestHeldStreamSurvivesSwapThenOutage: a stream ranks its providers once,
// at open. A swap repair that lands mid-stream keeps the version (and the
// stream's pin) but moves a chunk, so when one more provider of the old
// row goes down the ranking the stream holds is short of m although the
// live row is not — and so it is, without any repair, when the provider
// that was down at open is back. The stream re-reads the row and carries
// on.
func TestHeldStreamSurvivesSwapThenOutage(t *testing.T) {
	const stripe = 1024
	for _, repair := range []bool{true, false} {
		t.Run(fmt.Sprintf("repair-%v", repair), func(t *testing.T) {
			b := newTestBroker(t, Config{Registry: repairMarket(), StripeBytes: stripe, PrefetchStripes: -1})
			payload, meta := putRepairObject(t, b, "obj", 6*stripe)
			if got := strings.Join(meta.Chunks, ""); got != "ABC" {
				t.Fatalf("placed on %s, want ABC", got)
			}
			e := b.Engine(0)

			blob(t, b, "A").SetAvailable(false)
			rc, _, err := e.GetReader(ctx, "bk", "obj") // ranks {B, C}
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			got := make([]byte, len(payload))
			if _, err := io.ReadFull(rc, got[:stripe]); err != nil {
				t.Fatal(err)
			}

			row := "ABC"
			if repair {
				row = "DBC"
				if rep, err := b.Repair(ctx, RepairActive); err != nil || rep.Swapped != 1 {
					t.Fatalf("repair: %+v, %v, want one swap", rep, err)
				}
			}
			if cur, err := e.Head(ctx, "bk", "obj"); err != nil || cur.UUID != meta.UUID || strings.Join(cur.Chunks, "") != row {
				t.Fatalf("live row: %s %v (%v), want the same version on %s", cur.UUID, cur.Chunks, err, row)
			}
			blob(t, b, "A").SetAvailable(true)
			b.ProcessPendingDeletes(ctx)
			blob(t, b, "B").SetAvailable(false)

			if _, err := io.ReadFull(rc, got[stripe:]); err != nil {
				t.Fatalf("held stream, with two chunks of the live row reachable: %v", err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("the held stream delivered other bytes than were stored")
			}
			if data, _, err := e.Get(ctx, "bk", "obj"); err != nil || !bytes.Equal(data, payload) {
				t.Fatalf("fresh read: %d bytes, %v", len(data), err)
			}
		})
	}
}

// TestHeldStreamsThroughRepairChurn holds streams open — some stalling
// mid-object — while one provider after another fails, is repaired around
// and recovers. No read fails or returns other bytes than were stored,
// and at rest every object verifies all n chunks. Recovery and the delete
// of the recovered provider's stale chunks run against the open streams
// like the repair pass does: the chunks a swap replaced are held for every
// reader opened on the row that named them, so they cost nobody a slot.
// Only the outage takes the world lock a stripe fetch holds shared: with
// one spare chunk (n - m = 1) a fetch survives the outage that begins
// under it, and its one retry, on the row as it is then, the next; a fetch
// the scheduler parks across a whole round — the race detector on two
// cores does that — would meet a third and fail honestly.
func TestHeldStreamsThroughRepairChurn(t *testing.T) {
	const (
		stripe, objects = 1024, 4
		readers, rounds = 4, 150
	)
	b := newTestBroker(t, Config{Registry: repairMarket(), StripeBytes: stripe, PrefetchStripes: -1})
	payloads := make([][]byte, objects)
	for i := range payloads {
		payloads[i], _ = putRepairObject(t, b, fmt.Sprintf("o%d", i), 6*stripe)
	}

	var world sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(objects)
				world.RLock()
				rc, _, err := b.NextEngine().GetReader(ctx, "bk", fmt.Sprintf("o%d", i))
				world.RUnlock()
				if err != nil {
					t.Errorf("open o%d: %v", i, err)
					continue
				}
				got, stall := make([]byte, 0, 6*stripe), rng.Intn(6)
				for piece := make([]byte, stripe); err == nil; {
					world.RLock()
					n, rerr := rc.Read(piece)
					world.RUnlock()
					got, err = append(got, piece[:n]...), rerr
					if len(got) == (stall+1)*stripe {
						time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
					}
				}
				rc.Close()
				if err != io.EOF || !bytes.Equal(got, payloads[i]) {
					t.Errorf("read o%d: %d bytes, %v", i, len(got), err)
				}
				reads.Add(1)
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < rounds; i++ {
		victim := blob(t, b, string("ABCD"[rng.Intn(4)]))
		world.Lock()
		victim.SetAvailable(false)
		world.Unlock()
		if _, err := b.Repair(ctx, RepairActive); err != nil {
			t.Errorf("round %d: %v", i, err)
		}
		victim.SetAvailable(true)
		b.ProcessPendingDeletes(ctx)
	}
	close(stop)
	wg.Wait()
	t.Logf("%d reads over %d outage rounds", reads.Load(), rounds)
	if n := b.ReadStats().CorruptChunks; n != 0 {
		t.Errorf("%d chunks failed their sum: somebody wrote to bytes it had borrowed", n)
	}

	for i := range payloads {
		if n, err := b.Engine(0).VerifyObject(ctx, "bk", fmt.Sprintf("o%d", i)); err != nil || n != 3 {
			t.Errorf("o%d at rest: %d chunks verify, %v, want 3", i, n, err)
		}
	}
}

// TestSharedKeyHammer races readers (full, ranged, and slow ones that
// hold their stream open), overwriters, a deleter and the optimizer — with price swings that make it migrate — on
// the same few multi-stripe keys, behind providers that take a couple of
// milliseconds per operation. Every version is registered in the oracle
// under the ETag its Put returned; a reader can see a version before its
// Put has returned, so every read is recorded — ETag, offset, bytes — and
// checked once everything is done. Every read that returns bytes
// returns exactly one version's bytes; no read fails with anything but
// ErrObjectNotFound; and at rest the providers hold exactly the live
// versions' chunks. It runs with the stripe caches off and on in both
// datacenters — on, small enough to evict — so overwrites and migrations
// hand cached stripes on (write-update, re-key) under the same races.
func TestSharedKeyHammer(t *testing.T) {
	t.Run("cache-off", func(t *testing.T) { sharedKeyHammer(t, 0, nil) })
	t.Run("cache-on", func(t *testing.T) { sharedKeyHammer(t, 8<<10, nil) })
}

// sharedKeyHammer runs TestSharedKeyHammer's mix on a broker of its own,
// which it returns. watch, if not nil, is started once the keys are
// stored, and the stop function it returns is called when the mix is done.
func sharedKeyHammer(t *testing.T, cacheBytes int64, watch func(b *Broker) (stop func())) *Broker {
	const (
		stripe              = 1024
		readers, writers    = 4, 2
		reads, writes       = 60, 40
		deletes, optimizes  = 12, 12
		latency             = 2 * time.Millisecond
		container, keyCount = "hammer", 3
	)
	reg, backends := cloudtest.Wrap(repairMarket())
	for _, hb := range backends {
		hb.GetDelay, hb.PutDelay, hb.DeleteDelay = latency, latency, latency
	}
	clock := NewSimClock()
	b := newTestBroker(t, Config{Registry: reg, StripeBytes: stripe, Clock: clock, MigrationHorizon: 1_000_000, CacheBytes: cacheBytes})
	b.Rules().SetContainerRule(container, repairRule)

	var oracle sync.Map // the ETag a Put returned -> its payload
	put := func(e *Engine, key string, rng *rand.Rand) error {
		p := make([]byte, 3*stripe+rng.Intn(2*stripe)) // 4 or 5 stripes, ragged tail
		rng.Read(p)
		meta, err := e.Put(ctx, container, key, p, PutOptions{})
		if err == nil {
			oracle.Store(meta.Checksum, p)
		}
		return err
	}
	key := func(rng *rand.Rand) string { return fmt.Sprintf("k%d", rng.Intn(keyCount)) }
	type read struct {
		etag string
		off  int64
		got  []byte
	}
	var (
		seenMu sync.Mutex
		seen   []read
	)
	record := func(meta ObjectMeta, off int64, got []byte) {
		seenMu.Lock()
		seen = append(seen, read{meta.Checksum, off, got})
		seenMu.Unlock()
	}
	for k := 0; k < keyCount; k++ {
		if err := put(b.Engine(0), fmt.Sprintf("k%d", k), rand.New(rand.NewSource(int64(k)))); err != nil {
			t.Fatal(err)
		}
	}

	stopWatch := func() {}
	if watch != nil {
		stopWatch = watch(b)
	}
	var wg sync.WaitGroup
	run := func(n int, seed int64, step func(e *Engine, rng *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				if err := step(b.NextEngine(), rng); err != nil && !errors.Is(err, ErrObjectNotFound) {
					t.Errorf("seed %d step %d: %v", seed, i, err)
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		run(reads, int64(100+r), func(e *Engine, rng *rand.Rand) error {
			if rng.Intn(3) == 0 {
				off := int64(rng.Intn(3 * stripe))
				rc, meta, err := e.GetRangeReader(ctx, container, key(rng), off, int64(1+rng.Intn(2*stripe)))
				if err != nil {
					return err
				}
				defer rc.Close()
				got, err := io.ReadAll(rc)
				if err == nil {
					record(meta, off, got)
				}
				return err
			}
			// A full read, by a client that at times stalls after its first
			// bytes for longer than an overwrite takes to delete what it
			// replaced: the stripes behind the read-ahead window are
			// fetched long after the stream was opened.
			rc, meta, err := e.GetReader(ctx, container, key(rng))
			if err != nil {
				return err
			}
			defer rc.Close()
			stall := rng.Intn(4) == 0
			got := make([]byte, 0, meta.Size)
			for piece := make([]byte, stripe); err == nil; {
				var n int
				n, err = rc.Read(piece)
				got = append(got, piece[:n]...)
				if stall {
					time.Sleep(20 * latency)
					stall = false
				}
			}
			if err != io.EOF {
				return err
			}
			record(meta, 0, got)
			if int64(len(got)) != meta.Size {
				t.Errorf("full read of %s: %d of %d bytes", meta.Checksum, len(got), meta.Size)
			}
			return nil
		})
	}
	for w := 0; w < writers; w++ {
		run(writes, int64(200+w), func(e *Engine, rng *rand.Rand) error {
			return put(e, key(rng), rng)
		})
	}
	run(deletes, 300, func(e *Engine, rng *rand.Rand) error {
		return e.Delete(ctx, container, key(rng))
	})
	var migrated atomic.Int64
	run(optimizes, 400, func(_ *Engine, rng *rand.Rand) error {
		// A provider's storage price jumps or falls back: the event queue
		// re-plans the objects it holds, the optimizer the ones whose
		// trend moved.
		name := []string{"A", "B", "C"}[rng.Intn(3)]
		storage := 0.10
		if rng.Intn(2) == 0 {
			storage = 500
		}
		if _, err := b.SetProviderPricing(ctx, name, cloud.Pricing{StorageGBMonth: storage, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01}); err != nil {
			return err
		}
		clock.Advance(1)
		b.DrainMaintenance(ctx)
		rep, err := b.Optimize(ctx)
		migrated.Add(int64(rep.Migrated))
		return err
	})
	wg.Wait()
	stopWatch()
	for _, r := range seen {
		want, ok := oracle.Load(r.etag)
		if !ok {
			t.Errorf("read returned version %s nobody wrote", r.etag)
		} else if w := want.([]byte)[r.off:]; len(r.got) > len(w) || !bytes.Equal(r.got, w[:len(r.got)]) {
			t.Errorf("read of version %s at %d: %d bytes that are not that version's", r.etag, r.off, len(r.got))
		}
	}

	b.DrainMaintenance(ctx)
	b.ProcessPendingDeletes(ctx)
	t.Logf("migrations: %d by the optimizer, %d by the event queue; stripe caches %+v", migrated.Load(), b.MaintStats().Migrated, b.Caches().Stats())
	var live, used int64
	for k := 0; k < keyCount; k++ {
		meta, err := b.Engine(0).Head(ctx, container, fmt.Sprintf("k%d", k))
		if errors.Is(err, ErrObjectNotFound) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		live += storedBytes(meta)
	}
	for _, s := range b.Registry().Snapshot() {
		used += s.UsedBytes()
	}
	if used != live {
		t.Errorf("providers hold %d bytes at rest, the live versions account for %d", used, live)
	}
	if r := b.Retired(); r != (RetiredStats{}) || b.PendingDeletes() != 0 {
		t.Errorf("at rest: %+v, %d postponed deletes", r, b.PendingDeletes())
	}
	if n := b.ReadStats().CorruptChunks; n != 0 {
		t.Errorf("%d chunks failed their sum: somebody wrote to bytes it had borrowed", n)
	}
	return b
}

// storedVersions remembers every stored ObjectMeta it has seen win its
// row, each with a deep snapshot taken when it first saw it.
type storedVersions struct {
	b    *Broker
	mu   sync.Mutex
	seen map[*ObjectMeta]ObjectMeta
}

// observe snapshots the winning versions it has not seen yet, in every
// datacenter.
func (sv *storedVersions) observe() {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	for _, dc := range sv.b.cfg.Datacenters {
		winners, _ := sv.b.meta.Store(dc).Scan()
		for _, v := range winners {
			if m, err := viewMeta(v); err == nil {
				if _, ok := sv.seen[m]; !ok {
					sv.seen[m] = m.clone()
				}
			}
		}
	}
}

// follow observes until the returned stop is called.
func (sv *storedVersions) follow() (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			sv.observe()
			select {
			case <-done:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	return func() { close(done); <-exited }
}

// TestStoredVersionsStayAsPublished: a stored version is never written
// again, by any engine path. TestSharedKeyHammer's mix — reads, overwrites,
// deletes, migrations by the optimizer and the event queue — runs while
// every version stored on its rows is snapshotted as it appears, and then a
// multipart completion, a repair that swaps chunks and a re-plan that
// migrates run on the same broker. At the end every version seen, stored
// or superseded, must still equal its snapshot.
func TestStoredVersionsStayAsPublished(t *testing.T) {
	sv := &storedVersions{seen: make(map[*ObjectMeta]ObjectMeta)}
	b := sharedKeyHammer(t, 8<<10, func(b *Broker) func() {
		sv.b = b
		return sv.follow()
	})
	e := b.Engine(0)
	for i, name := range []string{"A", "B", "C"} { // the prices repairMarket started with
		if _, err := b.SetProviderPricing(ctx, name, cloud.Pricing{StorageGBMonth: 0.10 + 0.01*float64(i), BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01}); err != nil {
			t.Fatal(err)
		}
	}
	b.DrainMaintenance(ctx)

	up, err := e.CreateUpload(ctx, "hammer", "mp", 3000, PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var parts []CompletedPart
	for i, size := range []int{2048, 952} { // the stripe is 1024 bytes
		p, err := e.UploadPart(ctx, up.UploadID, i+1, bytes.NewReader(testPayload(size)), int64(size))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, CompletedPart{PartNumber: i + 1, ETag: p.ETag})
	}
	mp, err := e.CompleteUpload(ctx, up.UploadID, parts)
	if err != nil {
		t.Fatal(err)
	}
	sv.observe()

	victim := mp.Chunks[0]
	if _, err := b.SetProviderAvailable(ctx, victim, false); err != nil {
		t.Fatal(err)
	}
	if rep, err := b.Repair(ctx, RepairActive); err != nil || rep.Swapped == 0 {
		t.Fatalf("repair with %s down = %+v, %v; want a swap", victim, rep, err)
	}
	if _, err := b.SetProviderAvailable(ctx, victim, true); err != nil {
		t.Fatal(err)
	}
	b.DrainMaintenance(ctx)
	sv.observe()

	swapped, err := e.Head(ctx, "hammer", "mp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.SetProviderPricing(ctx, swapped.Chunks[0], cloud.Pricing{StorageGBMonth: 500, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01}); err != nil {
		t.Fatal(err)
	}
	b.DrainMaintenance(ctx)
	if moved, err := e.Head(ctx, "hammer", "mp"); err != nil || moved.UUID == swapped.UUID {
		t.Fatalf("no migration off the priced-out %s: %v", swapped.Chunks[0], err)
	}
	sv.observe()

	for m, snap := range sv.seen {
		if !reflect.DeepEqual(*m, snap) {
			t.Errorf("stored version %s changed after it was stored:\n now  %+v\n then %+v", snap.UUID, *m, snap)
		}
	}
	t.Logf("%d stored versions checked", len(sv.seen))
}

// TestDeleteRacingOverwriteAcrossDatacentersLeavesNoOrphans: a delete in
// one datacenter that wins against an overwrite in the other hides a live
// version nobody retired. The read that resolves the conflict must hand
// it to the reaper, or its chunks stay at the providers for good. The
// listing reads the conflicted rows before any read has resolved them,
// and must not show the key in either datacenter.
func TestDeleteRacingOverwriteAcrossDatacentersLeavesNoOrphans(t *testing.T) {
	b := newTestBroker(t, Config{Datacenters: []string{"dc1", "dc2"}, EnginesPerDC: 1})
	e1, e2 := b.Engine(0), b.Engine(1)
	if _, err := e1.Put(ctx, "c", "k", bytes.Repeat([]byte{1}, 4096), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	b.Metadata().Partition("dc1", "dc2")
	if _, err := e1.Put(ctx, "c", "k", bytes.Repeat([]byte{2}, 4096), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := e2.Delete(ctx, "c", "k"); err != nil {
		t.Fatal(err)
	}
	b.Metadata().Heal("dc1", "dc2")
	b.Metadata().Flush()

	for _, e := range []*Engine{e1, e2} {
		if res, err := e.List(ctx, "c", ListOptions{}); err != nil || len(res.Keys) != 0 {
			t.Fatalf("%s: List = %v, %v; want the deleted key gone", e.Datacenter(), res.Keys, err)
		}
		if _, _, err := e.Get(ctx, "c", "k"); !errors.Is(err, ErrObjectNotFound) {
			t.Fatalf("%s: Get = %v, want the delete to have won", e.Datacenter(), err)
		}
	}
	b.ProcessPendingDeletes(ctx)
	var used int64
	for _, s := range b.Registry().Snapshot() {
		used += s.UsedBytes()
	}
	if used != 0 {
		t.Errorf("providers hold %d bytes of an object both datacenters report deleted", used)
	}
	if r := b.Retired(); r != (RetiredStats{}) || b.PendingDeletes() != 0 {
		t.Errorf("at rest: %+v, %d postponed deletes", r, b.PendingDeletes())
	}
}

// TestHealedLoserIsRetiredOnce: dc1 is cut off from the other
// datacenters, and each side writes the object once. After the heal every
// datacenter holds both versions and collapses the conflict on its first
// read; each retires the loser, and the reaper deletes it once: its n
// chunks draw exactly n provider deletes, and RetiredStats counts it once
// while a reader opened on the winner holds it.
func TestHealedLoserIsRetiredOnce(t *testing.T) {
	for _, dcs := range [][]string{{"dc1", "dc2"}, {"dc1", "dc2", "dc3"}} {
		t.Run(fmt.Sprintf("%d-datacenters", len(dcs)), func(t *testing.T) {
			reg, providers := cloudtest.Wrap(cloud.NewPaperRegistry())
			var deletes atomic.Int64
			for _, f := range providers {
				f.OnDelete = func(context.Context, string) error { deletes.Add(1); return nil }
			}
			b := newTestBroker(t, Config{Registry: reg, Datacenters: dcs, EnginesPerDC: 1})
			for _, dc := range dcs[1:] {
				b.Metadata().Partition("dc1", dc)
			}
			var written []ObjectMeta
			for _, e := range []*Engine{b.Engine(0), b.Engine(1)} {
				meta, err := e.Put(ctx, "c", "k", testPayload(4096), PutOptions{})
				if err != nil {
					t.Fatal(err)
				}
				written = append(written, meta)
			}
			for _, dc := range dcs[1:] {
				b.Metadata().Heal("dc1", dc)
			}
			b.Metadata().Flush()

			rc, winner, err := b.Engine(0).GetReader(ctx, "c", "k") // pins what the collapse retires
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range b.Engines()[1:] {
				if meta, err := e.Head(ctx, "c", "k"); err != nil || meta.UUID != winner.UUID {
					t.Fatalf("%s: Head = %s, %v; want the winner %s", e.Datacenter(), meta.UUID, err, winner.UUID)
				}
			}
			loser := written[0]
			if loser.UUID == winner.UUID {
				loser = written[1]
			}
			if r := b.Retired(); r.Versions != 1 || r.Bytes != storedBytes(loser) {
				t.Errorf("with the winner open: %+v, want the loser (%d bytes) retired once", r, storedBytes(loser))
			}
			rc.Close()
			b.ProcessPendingDeletes(ctx)
			if n, want := deletes.Load(), int64(len(loser.Chunks)*loser.StripeCount()); n != want {
				t.Errorf("%d provider deletes, want the loser's %d chunks", n, want)
			}
			if n := chunksUnder(b, loser.SKey); n != 0 {
				t.Errorf("%d chunks of the loser left", n)
			}
			if r := b.Retired(); r != (RetiredStats{}) {
				t.Errorf("at rest: %+v", r)
			}
		})
	}
}

// TestMigrateGivesUpOnAMovedRow: a migration decided on a version that has
// since been overwritten, or swap-repaired to new generations, opens the
// object by name, finds a row other than the one it planned from, and
// gives up: the row it found stays live and byte-exact, and once the
// reaper has settled the providers hold that row's chunks and nothing of
// a copy.
func TestMigrateGivesUpOnAMovedRow(t *testing.T) {
	for _, name := range []string{"overwrite", "swap"} {
		t.Run(name, func(t *testing.T) {
			b := newTestBroker(t, Config{Registry: repairMarket(), StripeBytes: 1024})
			e := b.Engine(0)
			want, planned := putRepairObject(t, b, "obj", 3*1024)
			if name == "overwrite" {
				want = bytes.Repeat([]byte("v2"), 1500)
				if _, err := e.Put(ctx, "bk", "obj", want, PutOptions{}); err != nil {
					t.Fatal(err)
				}
			} else {
				to := slices.Clone(planned.Chunks)
				for _, spare := range []string{"A", "B", "C", "D"} {
					if !slices.Contains(to, spare) {
						to[0] = spare
					}
				}
				sw, err := e.planSwap(planned, b.livePlacement(planned.M, to), []int{0})
				if err == nil {
					err = e.swapRepair(ctx, sw, &outcome{})
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := e.migrate(ctx, planned, b.livePlacement(planned.M, planned.Chunks)); err == nil {
				t.Fatal("a migration of a row that has moved on committed")
			}
			got, live, err := e.Get(ctx, "bk", "obj")
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("after the migration: %d bytes, same %v (%v)", len(got), bytes.Equal(got, want), err)
			}
			b.ProcessPendingDeletes(ctx)
			stored := 0
			for _, s := range b.Registry().Snapshot() {
				keys, _ := s.List(ctx, "")
				stored += len(keys)
			}
			if n := chunksUnder(b, live.SKey); stored != n || n != len(live.Chunks)*live.StripeCount() {
				t.Fatalf("providers hold %d chunks, %d of the live row; want only its %d", stored, n, len(live.Chunks)*live.StripeCount())
			}
		})
	}
}

// TestRetiredBacklogBoundReapsInline: past the backlog bound the
// committing request reaps before it returns, as every commit did before
// the reaper — every delete of the version an overwrite retired has landed
// by the time the overwrite returns, with no settle call.
func TestRetiredBacklogBoundReapsInline(t *testing.T) {
	reg, backends := cloudtest.Wrap(repairMarket())
	var inPut atomic.Bool
	var duringPut, afterPut atomic.Int64
	for _, hb := range backends {
		hb.OnDelete = func(_ context.Context, key string) error {
			time.Sleep(time.Millisecond) // a provider round trip: a background delete would outlast the Put
			if inPut.Load() {
				duringPut.Add(1)
			} else {
				afterPut.Add(1)
			}
			return nil
		}
	}
	b := newTestBroker(t, Config{Registry: reg, StripeBytes: 1024})
	b.reaper.bound = 0
	b.Rules().SetContainerRule("bk", repairRule)
	e := b.Engine(0)
	v1, err := e.Put(ctx, "bk", "obj", testPayload(4*1024), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inPut.Store(true)
	_, err = e.Put(ctx, "bk", "obj", testPayload(1024), PutOptions{})
	inPut.Store(false)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(v1.Chunks) * v1.StripeCount()); duringPut.Load() != want || afterPut.Load() != 0 {
		t.Fatalf("%d deletes landed before the overwrite returned and %d after, want all %d before", duringPut.Load(), afterPut.Load(), want)
	}
	if r := b.Retired(); r.Versions != 0 || chunksUnder(b, v1.SKey) != 0 {
		t.Fatalf("after the overwrite returned: %+v, %d old chunks", r, chunksUnder(b, v1.SKey))
	}
}

// TestReaperReplaysPostponedDeletesOnRecovery: nobody has to call
// ProcessPendingDeletes for a recovered provider to lose its garbage — the
// registry's event is enough — and the next settle reports the replays.
func TestReaperReplaysPostponedDeletesOnRecovery(t *testing.T) {
	b := newTestBroker(t, Config{Registry: repairMarket(), StripeBytes: 1024})
	b.Rules().SetContainerRule("bk", repairRule)
	meta, err := b.Engine(0).Put(ctx, "bk", "obj", testPayload(4*1024), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	victim := blob(t, b, meta.Chunks[0])
	victim.SetAvailable(false)
	if err := b.Engine(0).Delete(ctx, "bk", "obj"); err != nil {
		t.Fatal(err)
	}
	if done := b.ProcessPendingDeletes(ctx); done != 0 || b.PendingDeletes() != meta.StripeCount() {
		t.Fatalf("with the victim down: %d replayed, %d postponed, want 0 and %d", done, b.PendingDeletes(), meta.StripeCount())
	}
	victim.SetAvailable(true)
	for deadline := time.Now().Add(5 * time.Second); b.PendingDeletes() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d deletes still postponed after the provider recovered", b.PendingDeletes())
		}
	}
	if n := victim.ObjectCount(); n != 0 {
		t.Fatalf("recovered provider still holds %d chunks", n)
	}
	if done := b.ProcessPendingDeletes(ctx); done != meta.StripeCount() {
		t.Fatalf("settle reported %d replays, want %d", done, meta.StripeCount())
	}
}

// TestRefusedDeleteStaysQueued: a chunk leaves the reaper's list only when
// its delete succeeded or found nothing. A provider that answers a delete
// with anything else — the private store's transport errors and 5xx are
// not ErrUnavailable — keeps the chunk queued as a postponed delete, it is
// tried again at every settle and not in between, and once the provider
// takes the delete the providers hold exactly the live version's chunks.
func TestRefusedDeleteStaysQueued(t *testing.T) {
	reg, backends := cloudtest.Wrap(repairMarket())
	b := newTestBroker(t, Config{Registry: reg, StripeBytes: 1024})
	b.Rules().SetContainerRule("bk", repairRule)
	e := b.Engine(0)
	v1, err := e.Put(ctx, "bk", "obj", testPayload(4*1024), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var refuse atomic.Bool
	var asked atomic.Int64
	doomed := v1.chunkKey(2, 0)
	for _, hb := range backends {
		hb.OnDelete = func(_ context.Context, key string) error {
			if key == doomed && refuse.Load() {
				asked.Add(1)
				return errors.New("injected delete failure: 503 from the private store")
			}
			return nil
		}
	}
	refuse.Store(true)
	v2, err := e.Put(ctx, "bk", "obj", testPayload(1024), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for settle := 1; settle <= 2; settle++ {
		// The first pass over the version and one retry; then a retry a settle.
		if done := b.ProcessPendingDeletes(ctx); done != 0 || b.PendingDeletes() != 1 || asked.Load() != int64(settle+1) {
			t.Fatalf("settle %d: %d completed, %d postponed, the provider asked %d times; want 0, 1, %d",
				settle, done, b.PendingDeletes(), asked.Load(), settle+1)
		}
	}
	if r := b.Retired(); r != (RetiredStats{}) || chunksUnder(b, v1.SKey) != 1 {
		t.Fatalf("with one delete refused: %+v, %d old chunks; want the version through its pass and one chunk left", r, chunksUnder(b, v1.SKey))
	}
	refuse.Store(false)
	if done := b.ProcessPendingDeletes(ctx); done != 1 || b.PendingDeletes() != 0 {
		t.Fatalf("with the provider answering again: %d completed, %d postponed; want 1, 0", done, b.PendingDeletes())
	}
	var used int64
	for _, s := range b.Registry().Snapshot() {
		used += s.UsedBytes()
	}
	if used != storedBytes(v2) {
		t.Fatalf("providers hold %d bytes at rest, the live version accounts for %d", used, storedBytes(v2))
	}
}

// TestCloseStopsReaper: Close leaves no reaper goroutine behind, and
// reaps what the reaper had not got to.
func TestCloseStopsReaper(t *testing.T) {
	base := runtime.NumGoroutine()
	b := NewBroker(Config{Registry: repairMarket(), StripeBytes: 1024})
	e := b.Engine(0)
	var first ObjectMeta
	for i := 0; i < 5; i++ {
		meta, err := e.Put(ctx, "bk", "obj", testPayload(3*1024+i), PutOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = meta
		}
	}
	b.Close()
	if r := b.Retired(); r.Versions != 0 || chunksUnder(b, first.SKey) != 0 {
		t.Fatalf("after Close: %+v, %d chunks of the first version", r, chunksUnder(b, first.SKey))
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			stacks := string(buf[:runtime.Stack(buf, true)])
			t.Fatalf("goroutines %d -> %d after Close (reaper present: %v)", base, runtime.NumGoroutine(), strings.Contains(stacks, "(*reaper)"))
		}
	}
}

// BenchmarkReapBehindAnOutage is one retire and one pass that takes it
// during an outage, over a backlog of sets earlier passes left behind at
// the down provider. A pass that is no retry visits only the sets waiting
// for their first pass, so its cost does not follow the backlog.
func BenchmarkReapBehindAnOutage(b *testing.B) {
	for _, backlog := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprint("behind-", backlog), func(b *testing.B) {
			br := NewBroker(Config{Registry: marketOf("A", "B", "C"), StripeBytes: 1024})
			b.Cleanup(br.Close)
			e := br.Engine(0)
			meta, err := e.Put(ctx, "c", "k", testPayload(1024), PutOptions{})
			if err != nil {
				b.Fatal(err)
			}
			l, _ := e.layoutOf(meta)
			s, _ := br.Registry().Store(meta.Chunks[0])
			s.(*cloud.BlobStore).SetAvailable(false)
			down, up := []int{0}, []int{1}
			for i := 0; i < backlog; i++ {
				e.discard(l, l.stripes, down)
			}
			br.ProcessPendingDeletes(ctx)
			if n := br.PendingDeletes(); n != backlog*l.stripes {
				b.Fatalf("%d deletes left behind, want %d", n, backlog*l.stripes)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.discard(l, l.stripes, up)
				br.reaper.reap(false)
			}
		})
	}
}
