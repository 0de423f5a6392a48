package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"scalia/internal/cloud"
	"scalia/internal/cloud/cloudtest"
	"scalia/internal/core"
)

var ctx = context.Background()

// blob fetches a simulated provider for failure injection and
// inspection in tests.
func blob(t *testing.T, b *Broker, name string) *cloud.BlobStore {
	t.Helper()
	s, ok := b.Registry().Store(name)
	if !ok {
		t.Fatalf("unknown provider %q", name)
	}
	return s.(*cloud.BlobStore)
}

func newTestBroker(t *testing.T, cfg Config) *Broker {
	t.Helper()
	b := NewBroker(cfg)
	t.Cleanup(b.Close)
	return b
}

func TestPutGetRoundTrip(t *testing.T) {
	b := newTestBroker(t, Config{})
	e := b.Engine(0)
	payload := bytes.Repeat([]byte("scalia"), 1000)
	meta, err := e.Put(ctx, "pics", "vacation.gif", payload, PutOptions{MIME: "image/gif"})
	if err != nil {
		t.Fatal(err)
	}
	if meta.M < 1 || len(meta.Chunks) < meta.M {
		t.Fatalf("bad placement meta: %+v", meta)
	}
	got, gotMeta, err := e.Get(ctx, "pics", "vacation.gif")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
	if gotMeta.Checksum != meta.Checksum {
		t.Fatal("checksum mismatch")
	}
}

func TestGetMissing(t *testing.T) {
	b := newTestBroker(t, Config{})
	if _, _, err := b.Engine(0).Get(ctx, "c", "nope"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestPutValidation(t *testing.T) {
	b := newTestBroker(t, Config{})
	if _, err := b.Engine(0).Put(ctx, "", "k", nil, PutOptions{}); err == nil {
		t.Fatal("empty container must fail")
	}
	if _, err := b.Engine(0).Put(ctx, "c", "", nil, PutOptions{}); err == nil {
		t.Fatal("empty key must fail")
	}
}

func TestChunksLandOnDistinctProviders(t *testing.T) {
	b := newTestBroker(t, Config{})
	meta, err := b.Engine(0).Put(ctx, "c", "k", make([]byte, 4096), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, name := range meta.Chunks {
		if seen[name] {
			t.Fatalf("provider %s holds two chunks", name)
		}
		seen[name] = true
		store := blob(t, b, name)
		if store.ObjectCount() == 0 {
			t.Fatalf("provider %s holds no data", name)
		}
	}
}

func TestUpdateReplacesChunks(t *testing.T) {
	b := newTestBroker(t, Config{})
	e := b.Engine(0)
	m1, err := e.Put(ctx, "c", "k", []byte("version-one"), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := e.Put(ctx, "c", "k", []byte("version-two"), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m1.SKey == m2.SKey {
		t.Fatal("update must write under a fresh skey")
	}
	// Old chunks must be gone once the reaper has settled.
	b.ProcessPendingDeletes(ctx)
	for i, name := range m1.Chunks {
		store, _ := b.Registry().Store(name)
		if _, err := store.Get(ctx, m1.chunkKey(0, i)); err == nil {
			t.Fatalf("stale chunk %d at %s survived the update", i, name)
		}
	}
	got, _, err := e.Get(ctx, "c", "k")
	if err != nil || string(got) != "version-two" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestDeleteRemovesEverything(t *testing.T) {
	b := newTestBroker(t, Config{})
	e := b.Engine(0)
	meta, _ := e.Put(ctx, "c", "k", []byte("payload"), PutOptions{})
	if err := e.Delete(ctx, "c", "k"); err != nil {
		t.Fatal(err)
	}
	// The statistics database folds the lifetime into the class and then
	// forgets the object: deleted keys must not pile up there or be
	// scanned by the next optimization round.
	if h := b.Stats().History("c/k"); h != nil || len(b.Stats().AccessedSince(0)) != 0 {
		t.Fatalf("deleted object still in the statistics: history %v, accessed %v", h, b.Stats().AccessedSince(0))
	}
	if n := b.Stats().Classes().Class(meta.Class).Lifetimes().Count(); n != 1 {
		t.Fatalf("class lifetime observations = %d, want 1", n)
	}
	if rep, err := b.Optimize(ctx); err != nil || rep.Scanned != 0 || b.ProviderIndex().Len() != 0 {
		t.Fatalf("after the delete: optimize scanned %d (%v), %d objects indexed", rep.Scanned, err, b.ProviderIndex().Len())
	}
	if _, _, err := e.Get(ctx, "c", "k"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("Get after delete: %v", err)
	}
	b.ProcessPendingDeletes(ctx)
	if r := b.Retired(); r != (RetiredStats{}) {
		t.Fatalf("after the settle: %+v", r)
	}
	for i, name := range meta.Chunks {
		store, _ := b.Registry().Store(name)
		if _, err := store.Get(ctx, meta.chunkKey(0, i)); err == nil {
			t.Fatalf("chunk %d at %s survived deletion", i, name)
		}
	}
	page, _ := e.List(ctx, "c", ListOptions{})
	if len(page.Keys) != 0 {
		t.Fatalf("List after delete = %v", page.Keys)
	}
	if err := e.Delete(ctx, "c", "k"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestListContainer(t *testing.T) {
	b := newTestBroker(t, Config{})
	e := b.Engine(0)
	e.Put(ctx, "c", "b-key", []byte("1"), PutOptions{})
	e.Put(ctx, "c", "a-key", []byte("2"), PutOptions{})
	e.Put(ctx, "other", "x", []byte("3"), PutOptions{})
	page, err := e.List(ctx, "c", ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if keys := page.Keys; len(keys) != 2 || keys[0] != "a-key" || keys[1] != "b-key" {
		t.Fatalf("List = %v", keys)
	}
}

func TestCacheServesSecondRead(t *testing.T) {
	b := newTestBroker(t, Config{CacheBytes: 1 << 20})
	e := b.Engine(0)
	payload := make([]byte, 10000)
	e.Put(ctx, "c", "k", payload, PutOptions{})

	if _, _, err := e.Get(ctx, "c", "k"); err != nil {
		t.Fatal(err)
	}
	before := b.Registry().TotalUsage().Ops
	if _, _, err := e.Get(ctx, "c", "k"); err != nil {
		t.Fatal(err)
	}
	after := b.Registry().TotalUsage().Ops
	if after != before {
		t.Fatalf("cached read hit providers: ops %d -> %d", before, after)
	}
}

func TestCacheInvalidatedOnUpdate(t *testing.T) {
	b := newTestBroker(t, Config{CacheBytes: 1 << 20})
	e := b.Engine(0)
	e.Put(ctx, "c", "k", []byte("old"), PutOptions{})
	e.Get(ctx, "c", "k") // fill cache
	e.Put(ctx, "c", "k", []byte("new"), PutOptions{})
	got, _, err := e.Get(ctx, "c", "k")
	if err != nil || string(got) != "new" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestReadSurvivesProviderOutage(t *testing.T) {
	b := newTestBroker(t, Config{})
	e := b.Engine(0)
	meta, err := e.Put(ctx, "c", "k", make([]byte, 50000), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Chunks) <= meta.M {
		t.Skipf("placement %v has no failure slack", meta.Chunks)
	}
	blob(t, b, meta.Chunks[0]).SetAvailable(false)
	got, _, err := e.Get(ctx, "c", "k")
	if err != nil {
		t.Fatalf("read during outage: %v", err)
	}
	if len(got) != 50000 {
		t.Fatal("payload mismatch")
	}
}

func TestReadFailsWhenTooManyProvidersDown(t *testing.T) {
	b := newTestBroker(t, Config{})
	e := b.Engine(0)
	meta, _ := e.Put(ctx, "c", "k", make([]byte, 1000), PutOptions{})
	downed := 0
	for _, name := range meta.Chunks {
		blob(t, b, name).SetAvailable(false)
		downed++
		if downed > len(meta.Chunks)-meta.M {
			break
		}
	}
	if _, _, err := e.Get(ctx, "c", "k"); !errors.Is(err, ErrNotEnoughChunks) {
		t.Fatalf("err = %v, want ErrNotEnoughChunks", err)
	}
}

func TestWriteExcludesFaultyProvider(t *testing.T) {
	b := newTestBroker(t, Config{})
	blob(t, b, cloud.NameS3Low).SetAvailable(false)
	meta, err := b.Engine(0).Put(ctx, "c", "k", make([]byte, 1000), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range meta.Chunks {
		if name == cloud.NameS3Low {
			t.Fatal("faulty provider received a chunk")
		}
	}
}

func TestDeletepostponedAtFaultyProvider(t *testing.T) {
	b := newTestBroker(t, Config{})
	e := b.Engine(0)
	meta, _ := e.Put(ctx, "c", "k", make([]byte, 1000), PutOptions{})
	victim := meta.Chunks[0]
	vs := blob(t, b, victim)
	vs.SetAvailable(false)
	if err := e.Delete(ctx, "c", "k"); err != nil {
		t.Fatal(err)
	}
	// The settle reaps the deleted version; the victim refuses its chunk's
	// delete, which is postponed.
	if done := b.ProcessPendingDeletes(ctx); done != 0 || b.PendingDeletes() == 0 {
		t.Fatalf("expected a postponed delete, none replayed: %d pending, %d replayed", b.PendingDeletes(), done)
	}
	vs.SetAvailable(true)
	if done := b.ProcessPendingDeletes(ctx); done == 0 {
		t.Fatal("pending delete must complete after recovery")
	}
	if _, err := vs.Get(ctx, meta.chunkKey(0, 0)); err == nil {
		t.Fatal("chunk must be gone after postponed delete")
	}
}

func TestMultiDatacenterReadAfterReplication(t *testing.T) {
	b := newTestBroker(t, Config{Datacenters: []string{"dc1", "dc2"}, EnginesPerDC: 1})
	e1, e2 := b.Engine(0), b.Engine(1)
	if e1.Datacenter() == e2.Datacenter() {
		t.Fatal("engines must live in different DCs")
	}
	e1.Put(ctx, "c", "k", []byte("cross-dc"), PutOptions{})
	got, _, err := e2.Get(ctx, "c", "k")
	if err != nil || string(got) != "cross-dc" {
		t.Fatalf("cross-DC read = %q, %v", got, err)
	}
}

func TestConcurrentUpdateConflictResolution(t *testing.T) {
	// Fig. 10: concurrent updates in two DCs; the freshest wins and the
	// loser's chunks are garbage-collected on the next read. Every commit
	// replicates before it returns, so "concurrent" has to be staged: the
	// link is severed while both datacenters write.
	b := newTestBroker(t, Config{Datacenters: []string{"dc1", "dc2"}, EnginesPerDC: 1})
	e1, e2 := b.Engine(0), b.Engine(1)
	b.Metadata().Partition("dc1", "dc2")
	m1, _ := e1.Put(ctx, "c", "k", []byte("from-dc1"), PutOptions{})
	m2, _ := e2.Put(ctx, "c", "k", []byte("from-dc2"), PutOptions{})
	if m1.UUID == "" || m2.UUID == "" {
		t.Fatalf("conflict not staged: %q %q", m1.UUID, m2.UUID)
	}
	if seen, err := e2.Head(ctx, "c", "k"); err != nil || seen.UUID != m2.UUID {
		t.Fatalf("dc2 serves %q (%v) across the partition, want only its own %q", seen.UUID, err, m2.UUID)
	}
	b.Metadata().Heal("dc1", "dc2")
	b.Metadata().Flush()

	got, _, err := e1.Get(ctx, "c", "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "from-dc2" {
		t.Fatalf("winner = %q, want the freshest write", got)
	}
}

// TestReturnedMetaIsTheCallers: what Head and GetReader return is the
// caller's own copy of the stored version; writing to it does not change
// what the next Head reads.
func TestReturnedMetaIsTheCallers(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024})
	e := b.Engine(0)
	rule := core.Rule{Name: "pinned", Durability: 0.9999, Availability: 0.99, LockIn: 1, Zones: []cloud.Zone{cloud.ZoneEU, cloud.ZoneUS}}
	if _, err := e.Put(ctx, "c", "k", testPayload(3000), PutOptions{Rule: &rule}); err != nil {
		t.Fatal(err)
	}
	want, err := e.Head(ctx, "c", "k")
	if err != nil {
		t.Fatal(err)
	}
	want = want.clone()
	scribble := func(m ObjectMeta) {
		m.Chunks[0], m.Sums[0].Chunks[0], m.Sums[1] = "scribbled", 1, StripeSum{}
		m.Rule.Name, m.Rule.Zones[0] = "scribbled", cloud.ZoneAPAC
	}
	head, err := e.Head(ctx, "c", "k")
	if err != nil {
		t.Fatal(err)
	}
	scribble(head)
	rc, meta, err := e.GetReader(ctx, "c", "k")
	if err != nil {
		t.Fatal(err)
	}
	scribble(meta)
	rc.Close()
	rc, meta, err = e.GetRangeReader(ctx, "c", "k", 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	scribble(meta)
	rc.Close()
	if got, err := e.Head(ctx, "c", "k"); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Head after the caller wrote to returned metas = %+v (%v), want %+v", got, err, want)
	}
}

// TestNextEngineCounterOwnsItsCacheLine: every request writes NextEngine's
// counter, so no other Broker field may share its 64-byte cache line,
// wherever the broker lies in memory: none may lie within 56 bytes of it.
func TestNextEngineCounterOwnsItsCacheLine(t *testing.T) {
	typ := reflect.TypeOf(Broker{})
	next, _ := typ.FieldByName("next")
	counter, ok := next.Type.FieldByName("Uint64")
	if !ok {
		t.Fatalf("Broker.next is a %s, not a padded counter", next.Type)
	}
	const line = 64
	lo := next.Offset + counter.Offset
	hi := lo + counter.Type.Size()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "next" {
			continue
		}
		if end := f.Offset + f.Type.Size(); end > hi-line && f.Offset < lo+line {
			t.Errorf("Broker.%s [%d, %d) can share a cache line with the counter at [%d, %d)", f.Name, f.Offset, end, lo, hi)
		}
	}
}

func TestHeadDoesNotTouchProviders(t *testing.T) {
	b := newTestBroker(t, Config{})
	e := b.Engine(0)
	e.Put(ctx, "c", "k", make([]byte, 1000), PutOptions{})
	before := b.Registry().TotalUsage().Ops
	meta, err := e.Head(ctx, "c", "k")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Size != 1000 {
		t.Fatalf("Size = %d", meta.Size)
	}
	if b.Registry().TotalUsage().Ops != before {
		t.Fatal("Head must not touch providers")
	}
}

func TestVerifyObject(t *testing.T) {
	b := newTestBroker(t, Config{})
	e := b.Engine(0)
	meta, _ := e.Put(ctx, "c", "k", make([]byte, 5000), PutOptions{})
	// Verification traffic is provider traffic: it must show up in the
	// per-provider get series like any other chunk read.
	providerGets := func() (n uint64) {
		for _, h := range b.Metrics().Histograms(metricProviderOp) {
			if h.Labels["op"] == "get" {
				n += h.Snapshot.Count
			}
		}
		return n
	}
	before := providerGets()
	reachable, err := e.VerifyObject(ctx, "c", "k")
	if err != nil {
		t.Fatal(err)
	}
	if reachable != len(meta.Chunks) {
		t.Fatalf("reachable = %d, want %d", reachable, len(meta.Chunks))
	}
	if got := providerGets() - before; got != uint64(len(meta.Chunks)) {
		t.Fatalf("verification recorded %d provider gets, want %d", got, len(meta.Chunks))
	}
}

// TestVerifyObjectPinsItsVersion: VerifyObject pins the version it
// checks, so an overwrite and a settle that land during its first chunk
// fetch take none of the chunks it is reading.
func TestVerifyObjectPinsItsVersion(t *testing.T) {
	reg, backends := cloudtest.Wrap(repairMarket())
	b := newTestBroker(t, Config{Registry: reg, StripeBytes: 1024})
	b.Rules().SetContainerRule("c", repairRule)
	e := b.Engine(0)
	meta, err := e.Put(ctx, "c", "k", testPayload(5000), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	for _, hb := range backends {
		hb.OnGet = func(context.Context, string) error {
			once.Do(func() {
				if _, err := e.Put(ctx, "c", "k", testPayload(3000), PutOptions{}); err != nil {
					t.Error(err)
				}
				b.ProcessPendingDeletes(ctx)
			})
			return nil
		}
	}
	if n, err := e.VerifyObject(ctx, "c", "k"); err != nil || n != len(meta.Chunks) {
		t.Fatalf("VerifyObject = %d, %v; want %d", n, err, len(meta.Chunks))
	}
}

func TestRuleResolutionPrecedence(t *testing.T) {
	b := newTestBroker(t, Config{})
	rs := b.Rules()
	contRule := core.Rule{Name: "container", Durability: 0.9999, Availability: 0.999, LockIn: 1}
	objRule := core.Rule{Name: "object", Durability: 0.99999, Availability: 0.9999, LockIn: 0.5}
	rs.SetContainerRule("c", contRule)
	if got := rs.Resolve("c", nil); got.Name != "container" {
		t.Fatalf("container rule not applied: %v", got.Name)
	}
	if got := rs.Resolve("c", &objRule); got.Name != "object" {
		t.Fatalf("object rule not applied: %v", got.Name)
	}
	if got := rs.Resolve("other", nil); got.Name != "default" {
		t.Fatalf("default rule not applied: %v", got.Name)
	}
}

// TestContainerNamesCannotCollide: a row is MD5(container | key) and the
// maintenance passes name an object container/key, so a container may
// hold neither '|' (two containers would share a row) nor '/' (its
// objects would never be maintained). Keys keep every character.
func TestContainerNamesCannotCollide(t *testing.T) {
	for _, tc := range []struct{ container, key, twinContainer, twinKey string }{
		{"a|b", "c", "a", "b|c"}, // the same row
		{"x/y", "k", "x", "y/k"}, // the same object name
	} {
		t.Run(tc.container, func(t *testing.T) {
			b := newTestBroker(t, Config{})
			e := b.Engine(0)
			if _, err := e.Put(ctx, tc.twinContainer, tc.twinKey, []byte("first"), PutOptions{}); err != nil {
				t.Fatal(err)
			}
			before := b.Registry().TotalUsage().Ops
			_, err := e.Put(ctx, tc.container, tc.key, []byte("second"), PutOptions{})
			if !errors.Is(err, ErrInvalidArgument) {
				t.Fatalf("put into container %q: %v, want ErrInvalidArgument", tc.container, err)
			}
			if _, err := e.CreateUpload(ctx, tc.container, tc.key, 0, PutOptions{}); !errors.Is(err, ErrInvalidArgument) {
				t.Fatalf("upload into container %q: %v, want ErrInvalidArgument", tc.container, err)
			}
			if err := b.SetContainerRule(tc.container, DefaultRule); !errors.Is(err, ErrInvalidArgument) {
				t.Fatalf("rule for container %q: %v, want ErrInvalidArgument", tc.container, err)
			}
			if ops := b.Registry().TotalUsage().Ops - before; ops != 0 {
				t.Fatalf("the refused writes cost %v provider ops", ops)
			}
			if got, _, err := e.Get(ctx, tc.twinContainer, tc.twinKey); err != nil || string(got) != "first" {
				t.Fatalf("%s/%s reads %q, %v; want first", tc.twinContainer, tc.twinKey, got, err)
			}
			// The key holding both characters is maintained like any other.
			meta, err := e.Put(ctx, "c", "a|b/c", []byte("third"), PutOptions{})
			if err != nil {
				t.Fatal(err)
			}
			blob(t, b, meta.Chunks[0]).SetAvailable(false)
			on := b.ProviderIndex().Count(meta.Chunks[0])
			if rep, err := b.Repair(ctx, RepairWait); err != nil || rep.Checked != on || rep.Affected != on {
				t.Fatalf("repair with %d objects down = %+v, %v; want all checked and affected", on, rep, err)
			}
		})
	}
}

// TestConditionalWritesAreAtomic races conditional operations on one
// key: exactly one create-only write may win, and exactly one If-Match
// update against a given ETag may win. The row lock serializes the
// check-and-commit step, so the losers fail with ErrPreconditionFailed
// instead of silently clobbering the winner.
func TestConditionalWritesAreAtomic(t *testing.T) {
	b := newTestBroker(t, Config{})
	e := b.Engine(0)

	const racers = 8
	var wg sync.WaitGroup
	var created atomic.Int32
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := e.Put(ctx, "c", "once", []byte(fmt.Sprintf("writer-%d", i)),
				PutOptions{IfAbsent: true})
			switch {
			case err == nil:
				created.Add(1)
			case errors.Is(err, ErrPreconditionFailed):
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if got := created.Load(); got != 1 {
		t.Fatalf("create-only writes succeeded %d times, want exactly 1", got)
	}

	meta, err := e.Head(ctx, "c", "once")
	if err != nil {
		t.Fatal(err)
	}
	var updated atomic.Int32
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := e.Put(ctx, "c", "once", []byte(fmt.Sprintf("update-%d", i)),
				PutOptions{IfMatch: meta.ETag()})
			switch {
			case err == nil:
				updated.Add(1)
			case errors.Is(err, ErrPreconditionFailed):
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if got := updated.Load(); got != 1 {
		t.Fatalf("If-Match updates succeeded %d times, want exactly 1", got)
	}
	// No loser may have leaked chunks: once the version the winner replaced
	// is reaped, the sole live version accounts for every stored chunk.
	b.ProcessPendingDeletes(ctx)
	after, err := e.Head(ctx, "c", "once")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range b.Registry().Snapshot() {
		if bs, ok := s.(*cloud.BlobStore); ok {
			total += bs.ObjectCount()
		}
	}
	if want := len(after.Chunks) * after.StripeCount(); total != want {
		t.Fatalf("provider chunk count = %d, want %d (orphans from losing writers?)", total, want)
	}
}

// --- Optimization ---

func TestOptimizeMigratesOnFlashCrowd(t *testing.T) {
	clock := NewSimClock()
	b := newTestBroker(t, Config{Clock: clock, DecisionPeriod: 24})
	e := b.Engine(0)
	payload := make([]byte, 1<<20) // 1 MB, as in §IV-B
	rule := core.Rule{Name: "slashdot", Durability: 0.99999, Availability: 0.9999, LockIn: 1}
	meta, err := e.Put(ctx, "web", "page", payload, PutOptions{Rule: &rule})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := b.CurrentPlacement("web/page")
	_ = meta

	// Two quiet days, then the flash crowd.
	for h := 0; h < 48; h++ {
		clock.Advance(1)
	}
	for h := 0; h < 6; h++ {
		clock.Advance(1)
		for r := 0; r < 150; r++ {
			if _, _, err := e.Get(ctx, "web", "page"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := b.Optimize(ctx); err != nil {
			t.Fatal(err)
		}
	}
	after, ok := b.CurrentPlacement("web/page")
	if !ok {
		t.Fatal("placement lost")
	}
	if after.Equal(before) {
		t.Fatalf("hot object not migrated: still %v", after)
	}
	if after.M != 1 {
		t.Fatalf("hot placement %v, want m:1 (read-optimized)", after)
	}
	// Data must survive the migration.
	got, _, err := e.Get(ctx, "web", "page")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("data lost in migration: %v", err)
	}
}

func TestOptimizeSkipsQuietObjects(t *testing.T) {
	clock := NewSimClock()
	b := newTestBroker(t, Config{Clock: clock})
	e := b.Engine(0)
	for i := 0; i < 10; i++ {
		e.Put(ctx, "c", fmt.Sprintf("k%d", i), make([]byte, 100), PutOptions{})
	}
	// Settle: histories exist, no further access.
	clock.Advance(10)
	if _, err := b.Optimize(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Advance(10)
	rep, err := b.Optimize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 0 {
		t.Fatalf("quiet objects scanned: %+v", rep)
	}
}

func TestOptimizeLeaderElection(t *testing.T) {
	b := newTestBroker(t, Config{EnginesPerDC: 2})
	rep, err := b.Optimize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leader != "engine0" {
		t.Fatalf("leader = %s, want engine0", rep.Leader)
	}
}

func TestRepairActiveMovesChunks(t *testing.T) {
	clock := NewSimClock()
	b := newTestBroker(t, Config{Clock: clock})
	e := b.Engine(0)
	rule := core.Rule{Name: "backup", Durability: 0.9999999, Availability: 0.99, LockIn: 0.5}
	payload := make([]byte, 40<<10)
	if _, err := e.Put(ctx, "bk", "obj", payload, PutOptions{Rule: &rule}); err != nil {
		t.Fatal(err)
	}
	meta, _ := e.Head(ctx, "bk", "obj")
	victim := meta.Chunks[0]
	vs := blob(t, b, victim)
	vs.SetAvailable(false)

	rep, err := b.Repair(ctx, RepairActive)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Affected != 1 || rep.Repaired != 1 {
		t.Fatalf("repair report = %+v", rep)
	}
	newMeta, _ := e.Head(ctx, "bk", "obj")
	for _, name := range newMeta.Chunks {
		if name == victim {
			t.Fatal("repaired object still references the down provider")
		}
	}
	got, _, err := e.Get(ctx, "bk", "obj")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("data lost in repair: %v", err)
	}
}

func TestRepairWaitLeavesChunks(t *testing.T) {
	b := newTestBroker(t, Config{})
	e := b.Engine(0)
	e.Put(ctx, "c", "k", make([]byte, 1000), PutOptions{})
	meta, _ := e.Head(ctx, "c", "k")
	blob(t, b, meta.Chunks[0]).SetAvailable(false)
	rep, err := b.Repair(ctx, RepairWait)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Affected != 1 || rep.Waited != 1 || rep.Repaired != 0 {
		t.Fatalf("repair report = %+v", rep)
	}
	after, _ := e.Head(ctx, "c", "k")
	if after.SKey != meta.SKey {
		t.Fatal("wait policy must not rewrite the object")
	}
}

func TestProviderArrivalTriggersCheaperPlacement(t *testing.T) {
	// §IV-D: CheapStor arrives and the optimizer migrates to include it.
	clock := NewSimClock()
	// A long migration horizon lets slow-payback storage savings justify
	// the chunk move, as the paper's §IV-D scenario does.
	b := newTestBroker(t, Config{Clock: clock, DecisionPeriod: 4, MigrationHorizon: 5000})
	e := b.Engine(0)
	rule := core.Rule{Name: "lockin", Durability: 0.99999, Availability: 0.99, LockIn: 0.2}
	payload := make([]byte, 40<<20) // 40 MB backup object
	if _, err := e.Put(ctx, "bk", "o", payload, PutOptions{Rule: &rule}); err != nil {
		t.Fatal(err)
	}
	before, _ := b.CurrentPlacement("bk/o")
	if before.Has(cloud.NameCheapStor) {
		t.Fatal("CheapStor not registered yet")
	}
	b.Registry().Register(cloud.NewBlobStore(cloud.CheapStorProvider()))
	// Keep the object minimally warm so it appears in the accessed set.
	clock.Advance(1)
	e.Get(ctx, "bk", "o")
	clock.Advance(1)
	e.Get(ctx, "bk", "o")
	for i := 0; i < 6; i++ {
		clock.Advance(1)
		if _, err := b.Optimize(ctx); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := b.CurrentPlacement("bk/o")
	if !after.Has(cloud.NameCheapStor) {
		t.Fatalf("placement %v ignores the cheaper provider", after)
	}
}

// TestOptimizeReportsPlannerEffectiveness asserts the satellite
// requirement that OptimizeReport surfaces the shared planner's cache
// counters and the sets-evaluated ablation metric.
func TestOptimizeReportsPlannerEffectiveness(t *testing.T) {
	clock := NewSimClock()
	b := newTestBroker(t, Config{Clock: clock})
	e := b.Engine(0)
	const objects = 8
	for i := 0; i < objects; i++ {
		if _, err := e.Put(ctx, "c", fmt.Sprintf("k%d", i), make([]byte, 2048), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Quiet periods, then a read burst: the SMA momentum gate fires for
	// every object, forcing a placement recomputation per object.
	clock.Advance(4)
	for i := 0; i < objects; i++ {
		for r := 0; r < 40; r++ {
			if _, _, err := e.Get(ctx, "c", fmt.Sprintf("k%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep, err := b.Optimize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recomputed != objects {
		t.Fatalf("recomputed = %d, want %d", rep.Recomputed, objects)
	}
	// Every recomputation must have planned through the shared planner:
	// the market did not change since the Puts prepared the search, so
	// the round is all hits and zero misses.
	if rep.PlannerMisses != 0 {
		t.Fatalf("stable market must not rebuild searches: %+v", rep)
	}
	if rep.PlannerHits == 0 {
		t.Fatalf("optimization did not use the planner: %+v", rep)
	}
	// The paper market has 26 feasible sets per search (Fig. 13); every
	// recomputed object examines at least those.
	if rep.Evaluated < 26*rep.Recomputed {
		t.Fatalf("evaluated = %d, want >= %d", rep.Evaluated, 26*rep.Recomputed)
	}

	// A market event invalidates: the next round must rebuild (miss).
	b.Registry().Register(cloud.NewBlobStore(cloud.CheapStorProvider()))
	clock.Advance(4)
	for i := 0; i < objects; i++ {
		for r := 0; r < 40; r++ {
			if _, _, err := e.Get(ctx, "c", fmt.Sprintf("k%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep2, err := b.Optimize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Recomputed == 0 {
		t.Fatalf("burst after the arrival did not recompute: %+v", rep2)
	}
	if rep2.PlannerMisses == 0 {
		t.Fatalf("market change must force a planner rebuild: %+v", rep2)
	}
}

// TestRepairShardsAcrossEngines exercises the parallel repair fan-out:
// with several engines alive and many affected objects, every shard
// must run and the union must repair everything.
func TestRepairShardsAcrossEngines(t *testing.T) {
	b := newTestBroker(t, Config{EnginesPerDC: 2})
	e := b.Engine(0)
	rule := core.Rule{Name: "backup", Durability: 0.9999999, Availability: 0.99, LockIn: 0.5}
	const objects = 12
	for i := 0; i < objects; i++ {
		if _, err := e.Put(ctx, "bk", fmt.Sprintf("o%d", i), make([]byte, 8192), PutOptions{Rule: &rule}); err != nil {
			t.Fatal(err)
		}
	}
	// Down one provider that holds chunks of every object (lock-in 0.5
	// with the 5-provider market stripes wide, so any provider works).
	meta, err := e.Head(ctx, "bk", "o0")
	if err != nil {
		t.Fatal(err)
	}
	victim := meta.Chunks[0]
	if _, err := b.Registry().UpdateAvailability(victim, false); err != nil {
		t.Fatal(err)
	}
	rep, err := b.Repair(ctx, RepairActive)
	if err != nil {
		t.Fatal(err)
	}
	// Shards in other datacenters wrote migrated metadata through their
	// own nodes; engine 0 reads it back below.
	if rep.Checked != objects {
		t.Fatalf("checked = %d, want %d", rep.Checked, objects)
	}
	if rep.Repaired != rep.Affected || rep.Affected == 0 {
		t.Fatalf("repair report = %+v", rep)
	}
	// Every object must be readable and off the victim.
	for i := 0; i < objects; i++ {
		key := fmt.Sprintf("o%d", i)
		m, err := e.Head(ctx, "bk", key)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range m.Chunks {
			if name == victim {
				t.Fatalf("%s still references the down provider", key)
			}
		}
		if _, _, err := e.Get(ctx, "bk", key); err != nil {
			t.Fatalf("read after repair: %v", err)
		}
	}
}
