package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/cloud/cloudtest"
)

// testPayload builds a deterministic, position-dependent payload so a
// misordered or misaligned stripe cannot compare equal by accident.
func testPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i/251)
	}
	return p
}

// TestStripeCacheServesRepeatGet asserts the acceptance criterion: a
// repeat GET of a multi-stripe object is served entirely from the
// stripe-granular cache — zero provider traffic, hit counters moving.
func TestStripeCacheServesRepeatGet(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024, CacheBytes: 1 << 20})
	e := b.Engine(0)
	payload := testPayload(8*1024 + 123) // 9 stripes
	meta, err := e.Put(ctx, "big", "obj", payload, PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.StripeCount() < 8 {
		t.Fatalf("stripes = %d, want a multi-stripe object", meta.StripeCount())
	}

	got, _, err := e.Get(ctx, "big", "obj")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("first read: %v", err)
	}
	before := b.Registry().TotalUsage().Ops
	fetchedBefore := b.ReadStats().StripesFetched

	got, _, err = e.Get(ctx, "big", "obj")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("repeat read: %v", err)
	}
	if after := b.Registry().TotalUsage().Ops; after != before {
		t.Fatalf("repeat read hit providers: ops %d -> %d", before, after)
	}
	rs := b.ReadStats()
	if rs.StripesFetched != fetchedBefore {
		t.Fatalf("repeat read fetched stripes: %d -> %d", fetchedBefore, rs.StripesFetched)
	}
	if rs.StripesFromCache < int64(meta.StripeCount()) {
		t.Fatalf("stripes from cache = %d, want >= %d", rs.StripesFromCache, meta.StripeCount())
	}
	if cs := b.Caches().Stats(); cs.Hits < int64(meta.StripeCount()) {
		t.Fatalf("cache hits = %d, want >= %d", cs.Hits, meta.StripeCount())
	}
}

// TestPartiallyCachedObjectFetchesOnlyMissingStripes: a ranged read
// caches the stripes it touched; the following full read must fetch
// only the others.
func TestPartiallyCachedObjectFetchesOnlyMissingStripes(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024, CacheBytes: 1 << 20})
	e := b.Engine(0)
	payload := testPayload(8 * 1024) // 8 stripes
	if _, err := e.Put(ctx, "big", "obj", payload, PutOptions{}); err != nil {
		t.Fatal(err)
	}

	// Bytes [2048, 4096) live exactly in stripes 2 and 3.
	rc, _, err := e.GetRangeReader(ctx, "big", "obj", 2048, 2048)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, payload[2048:4096]) {
		t.Fatalf("range read mismatch: %v (%d bytes)", err, len(got))
	}
	if rs := b.ReadStats(); rs.StripesFetched != 2 {
		t.Fatalf("range read fetched %d stripes, want 2", rs.StripesFetched)
	}

	full, _, err := e.Get(ctx, "big", "obj")
	if err != nil || !bytes.Equal(full, payload) {
		t.Fatalf("full read after partial cache: %v", err)
	}
	rs := b.ReadStats()
	if rs.StripesFetched != 8 {
		t.Fatalf("total stripes fetched = %d, want 8 (2 ranged + 6 missing)", rs.StripesFetched)
	}
	if rs.StripesFromCache != 2 {
		t.Fatalf("stripes from cache = %d, want the 2 ranged ones", rs.StripesFromCache)
	}
}

func TestGetRangeReader(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024})
	e := b.Engine(0)
	payload := testPayload(8*1024 + 300)
	if _, err := e.Put(ctx, "c", "k", payload, PutOptions{}); err != nil {
		t.Fatal(err)
	}

	read := func(off, length int64) []byte {
		t.Helper()
		rc, _, err := e.GetRangeReader(ctx, "c", "k", off, length)
		if err != nil {
			t.Fatalf("GetRangeReader(%d, %d): %v", off, length, err)
		}
		defer rc.Close()
		got, err := io.ReadAll(rc)
		if err != nil {
			t.Fatalf("drain(%d, %d): %v", off, length, err)
		}
		return got
	}

	cases := []struct{ off, length int64 }{
		{0, 1},                       // first byte
		{0, int64(len(payload))},     // whole object
		{1500, 1000},                 // mid-stripe start and end
		{1024, 1024},                 // exactly stripe 1
		{int64(len(payload)) - 1, 1}, // last byte
		{8 * 1024, 1 << 20},          // clamped tail
	}
	for _, c := range cases {
		want := payload[c.off:]
		if c.off+c.length < int64(len(payload)) {
			want = payload[c.off : c.off+c.length]
		}
		if got := read(c.off, c.length); !bytes.Equal(got, want) {
			t.Fatalf("range (%d, %d): got %d bytes, want %d", c.off, c.length, len(got), len(want))
		}
	}

	// length -1 = "to the object end", matching the remote client.
	if got := read(3000, -1); !bytes.Equal(got, payload[3000:]) {
		t.Fatalf("open-ended range: got %d bytes, want %d", len(got), len(payload)-3000)
	}

	if _, _, err := e.GetRangeReader(ctx, "c", "k", int64(len(payload)), 10); !errors.Is(err, ErrRangeNotSatisfiable) {
		t.Fatalf("offset past end: %v, want ErrRangeNotSatisfiable", err)
	}
	if _, _, err := e.GetRangeReader(ctx, "c", "k", -1, 10); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("negative offset: %v, want ErrInvalidArgument", err)
	}
	if _, _, err := e.GetRangeReader(ctx, "c", "k", 0, 0); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("zero length: %v, want ErrInvalidArgument", err)
	}
	if _, _, err := e.GetRangeReader(ctx, "c", "k", 0, -2); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("length -2: %v, want ErrInvalidArgument", err)
	}
}

// TestGetReaderCancelTeardown is the read-path teardown test:
// cancelling a multi-stripe GET mid-stream must stop the prefetcher and
// every in-flight chunk fetch without leaking goroutines, and must not
// poison the stripe cache with partial entries.
func TestGetReaderCancelTeardown(t *testing.T) {
	gate := make(chan struct{})
	// Stripe 0 flows; every later stripe's chunks block on the gate.
	gateKey := func(key string) bool {
		return strings.Contains(key, "/s") && !strings.Contains(key, "/s00000/")
	}
	reg, backends := cloudtest.Wrap(cloud.NewPaperRegistry())
	for _, hb := range backends {
		hb.OnGet = cloudtest.Stall(gateKey, nil, gate)
	}
	b := newTestBroker(t, Config{
		Registry: reg, StripeBytes: 1024, CacheBytes: 1 << 20,
		ReadParallelism: 4, PrefetchStripes: 4,
	})
	e := b.Engine(0)
	payload := testPayload(16 * 1024) // 16 stripes
	if _, err := e.Put(ctx, "big", "obj", payload, PutOptions{}); err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	cctx, cancel := context.WithCancel(context.Background())
	rc, _, err := e.GetReader(cctx, "big", "obj")
	if err != nil {
		t.Fatal(err)
	}
	// Drain the eagerly fetched first stripe; the prefetcher is now
	// blocked inside the gated chunk fetches of stripe 1.
	buf := make([]byte, 1024)
	if _, err := io.ReadFull(rc, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload[:1024]) {
		t.Fatal("first stripe mismatch")
	}

	cancel()
	rc.Close()

	// Every read-path goroutine (prefetcher + fetch workers) must wind
	// down without the gate ever opening — cancellation alone tears the
	// pipeline apart.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d -> %d", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The stripe cache must hold only complete stripes: a full re-read
	// (gate open) must reproduce the payload bit for bit, and every
	// cached entry must be a whole stripe.
	close(gate)
	if c := b.Caches().Datacenter(e.Datacenter()); c != nil {
		if st := c.Stats(); st.UsedBytes != st.Entries*1024 {
			t.Fatalf("cache holds partial stripes: %d bytes over %d entries", st.UsedBytes, st.Entries)
		}
	}
	got, _, err := e.Get(ctx, "big", "obj")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read after teardown: %v", err)
	}
}

// TestCancelMidStreamReturnsContextError: a reader consuming a
// cancelled stream must surface context.Canceled, not a payload error.
func TestCancelMidStreamReturnsContextError(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024, PrefetchStripes: -1})
	e := b.Engine(0)
	if _, err := e.Put(ctx, "c", "k", testPayload(8*1024), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	rc, _, err := e.GetReader(cctx, "c", "k")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	buf := make([]byte, 1024)
	if _, err := io.ReadFull(rc, buf); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := io.ReadAll(rc); !errors.Is(err, context.Canceled) {
		t.Fatalf("read after cancel = %v, want context.Canceled", err)
	}
}

// TestFullyCachedObjectReadableDuringOutage: the stripe cache must
// absorb reads of popular objects even when too many providers are down
// to reconstruct (the cache exists exactly for the objects that would
// be most expensive to lose).
func TestFullyCachedObjectReadableDuringOutage(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024, CacheBytes: 1 << 20})
	e := b.Engine(0)
	payload := testPayload(4 * 1024)
	meta, err := e.Put(ctx, "c", "k", payload, PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Get(ctx, "c", "k"); err != nil {
		t.Fatal(err) // fills the stripe cache
	}
	for _, name := range meta.Chunks {
		blob(t, b, name).SetAvailable(false)
	}
	got, _, err := e.Get(ctx, "c", "k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("cached read during outage: %v", err)
	}
}

// corruptStripe rots every stored chunk of one stripe, so whichever m
// chunks the read picks, the decode output is wrong.
func corruptStripe(t *testing.T, b *Broker, meta ObjectMeta, s int) {
	t.Helper()
	for i := range meta.Chunks {
		rotChunk(t, b, meta, s, i)
	}
}

// TestCorruptStripeNeverEntersCache: bitrot at the providers must fail
// the read with ErrChecksum — before the stripe cache is filled, so a
// repeat read cannot be served corrupted bytes from cache. Covers both
// the full read and a ranged read that never sees the whole object.
func TestCorruptStripeNeverEntersCache(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024, CacheBytes: 1 << 20})
	e := b.Engine(0)
	payload := testPayload(4 * 1024)
	meta, err := e.Put(ctx, "c", "k", payload, PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	corruptStripe(t, b, meta, 2)

	for i := 0; i < 2; i++ { // the repeat read must not hit a poisoned cache
		if _, _, err := e.Get(ctx, "c", "k"); !errors.Is(err, ErrChecksum) {
			t.Fatalf("read %d of corrupt object = %v, want ErrChecksum", i, err)
		}
	}
	// A ranged read touching only the corrupt stripe fails too, even
	// though the whole-object checksum chain never runs.
	rc, _, err := e.GetRangeReader(ctx, "c", "k", 2*1024, 1024)
	if err == nil {
		_, err = io.ReadAll(rc)
		rc.Close()
	}
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("ranged read of corrupt stripe = %v, want ErrChecksum", err)
	}
	// Nothing corrupt may be cached: every entry still in the cache
	// must serve healthy stripes only (stripes 0, 1, 3 at most).
	if c := b.Caches().Datacenter(e.Datacenter()); c != nil {
		if data, ok := c.GetStripe(meta.cacheID(), 2); ok {
			t.Fatalf("corrupt stripe cached: %d bytes", len(data))
		}
	}
}

// TestSlowReaderCannotPoisonNewVersion is the regression test for the
// invalidate-then-fill race: a reader still streaming the old version
// when a Put commits a new one keeps filling the cache — but under the
// old version's keys, so reads of the new version can never be served
// stale stripes.
func TestSlowReaderCannotPoisonNewVersion(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024, CacheBytes: 1 << 20})
	e := b.Engine(0)
	v1 := testPayload(4 * 1024)
	if _, err := e.Put(ctx, "c", "k", v1, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	// Open a stream of v1 (first stripe fetched eagerly), then commit
	// v2 while the stream is still in flight.
	rc, _, err := e.GetReader(ctx, "c", "k")
	if err != nil {
		t.Fatal(err)
	}
	v2 := bytes.Repeat([]byte("NEWVERSION!!"), 512) // 6 KiB, different layout
	if _, err := e.Put(ctx, "c", "k", v2, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	// The v1 stream drains after the invalidation, re-filling the cache
	// with v1 stripes — the race the versioned keys exist for. The old
	// chunks are deleted by the update, so the drain may also fail;
	// either way it must not poison v2's reads.
	io.Copy(io.Discard, rc) //nolint:errcheck
	rc.Close()

	got, _, err := e.Get(ctx, "c", "k")
	if err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("read after overlapped update: %v (%d bytes, want v2's %d)", err, len(got), len(v2))
	}
	// And the repeat read — now cache-served — must still be v2.
	got, _, err = e.Get(ctx, "c", "k")
	if err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("cached read after overlapped update: %v", err)
	}
}

// TestSequentialModeMatchesParallel pins the knob semantics: negative
// knobs select the sequential, unpipelined path and it still serves
// correct bytes.
func TestSequentialModeMatchesParallel(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024, ReadParallelism: -1, PrefetchStripes: -1})
	e := b.Engine(0)
	payload := testPayload(8*1024 + 5)
	if _, err := e.Put(ctx, "c", "k", payload, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	got, _, err := e.Get(ctx, "c", "k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("sequential read: %v", err)
	}
	if rs := b.ReadStats(); rs.PrefetchedStripes != 0 {
		t.Fatalf("sequential mode prefetched %d stripes", rs.PrefetchedStripes)
	}
}

// TestPrefetchPipelineDelivers asserts the pipeline actually runs ahead
// of the consumer under default knobs.
func TestPrefetchPipelineDelivers(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024})
	e := b.Engine(0)
	if _, err := e.Put(ctx, "c", "k", testPayload(8*1024), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Get(ctx, "c", "k"); err != nil {
		t.Fatal(err)
	}
	if rs := b.ReadStats(); rs.PrefetchedStripes == 0 {
		t.Fatal("prefetcher delivered no stripes on a multi-stripe read")
	}
}

// TestConcurrentMultiStripeReads hammers one hot object from many
// goroutines under the parallel pipeline; run with -race this guards
// the fan-out and cache-fill synchronization.
func TestConcurrentMultiStripeReads(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024, CacheBytes: 1 << 20})
	e := b.Engine(0)
	payload := testPayload(8 * 1024)
	if _, err := e.Put(ctx, "c", "k", payload, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, _, err := e.Get(ctx, "c", "k")
				if err != nil || !bytes.Equal(got, payload) {
					t.Errorf("concurrent read: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReadBufferBudgetBoundsConcurrentGets is the read half of the
// MaxBufferBytes budget: with a 3-stripe budget and many concurrent large GETs, the
// broker must never hold more than 3 fetched stripe buffers at once,
// deliver every byte intact, and return every slot when the streams
// drain.
func TestReadBufferBudgetBoundsConcurrentGets(t *testing.T) {
	const stripe = 16 << 10
	b := newTestBroker(t, Config{
		StripeBytes:     stripe,
		MaxBufferBytes:  3 * stripe, // 3 slots across the whole broker
		PrefetchStripes: 2,
	})
	const objects = 6
	payloads := make([][]byte, objects)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 8*stripe)
		key := fmt.Sprintf("o%d", i)
		if _, err := b.Engine(0).Put(ctx, "c", key, payloads[i], PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, objects)
	for i := 0; i < objects; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rc, _, err := b.Engine(i).GetReader(ctx, "c", fmt.Sprintf("o%d", i))
			if err != nil {
				errs <- err
				return
			}
			defer rc.Close()
			data, err := io.ReadAll(rc)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(data, payloads[i]) {
				errs <- fmt.Errorf("object %d corrupted", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if peak := b.readBuf.peak.Load(); peak < 1 || peak > 3 {
		t.Fatalf("buffered-stripe peak = %d, want within (0, 3]", peak)
	}
	// Every slot must return to the budget once the streams drain (the
	// prefetchers tear down asynchronously).
	deadline := time.Now().Add(2 * time.Second)
	for b.readBuf.inUse.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if held := b.readBuf.inUse.Load(); held != 0 {
		t.Fatalf("%d stripe slots leaked after the streams drained", held)
	}
	if b.ReadStats().BufferedStripesPeak != b.readBuf.peak.Load() {
		t.Fatal("BufferedStripesPeak not surfaced on ReadStats")
	}
}

// TestReadBufferBudgetReleasedOnEarlyClose closes a pipelined stream
// mid-flight: the slots held by the current stripe, the pipe buffer and
// the in-flight producers must all come back.
func TestReadBufferBudgetReleasedOnEarlyClose(t *testing.T) {
	const stripe = 16 << 10
	b := newTestBroker(t, Config{
		StripeBytes:     stripe,
		MaxBufferBytes:  4 * stripe,
		PrefetchStripes: 3,
	})
	payload := bytes.Repeat([]byte("z"), 12*stripe)
	if _, err := b.Engine(0).Put(ctx, "c", "big", payload, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	rc, _, err := b.Engine(0).GetReader(ctx, "c", "big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(rc, make([]byte, stripe/2)); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	deadline := time.Now().Add(2 * time.Second)
	for b.readBuf.inUse.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if held := b.readBuf.inUse.Load(); held != 0 {
		t.Fatalf("%d stripe slots leaked after early Close", held)
	}
}

// TestReadBufferBudgetUnbounded: a negative knob removes the bound — no
// semaphore — while the gauges keep counting, as on the write side.
func TestReadBufferBudgetUnbounded(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 16 << 10, MaxBufferBytes: -1})
	if b.bufSem != nil {
		t.Fatal("negative MaxBufferBytes must disable the budget")
	}
	payload := bytes.Repeat([]byte("u"), 64<<10)
	if _, err := b.Engine(0).Put(ctx, "c", "k", payload, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	got, _, err := b.Engine(0).Get(ctx, "c", "k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("unbounded read failed: %v", err)
	}
	if rs := b.ReadStats(); rs.BufferedStripesPeak < 1 || rs.BufferedStripes != 0 {
		t.Fatalf("read gauges with unbounded budget = %+v", rs)
	}
}
