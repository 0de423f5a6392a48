package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/cloud/cloudtest"
	"scalia/internal/core"
)

// maintMarket builds a small four-provider market with one designated
// victim, all feasible under the default rule.
func maintMarket() *cloud.Registry {
	reg := cloud.NewRegistry()
	for i, name := range []string{"A", "B", "C", "V"} {
		reg.Register(cloud.NewBlobStore(cloud.Spec{
			Name: name, Durability: 0.99999, Availability: 0.999,
			Zones: []cloud.Zone{cloud.ZoneUS, cloud.ZoneEU},
			Pricing: cloud.Pricing{
				StorageGBMonth: 0.08 + 0.01*float64(i),
				BandwidthInGB:  0.05, BandwidthOutGB: 0.12, OpsPer1000: 0.01,
			},
		}))
	}
	return reg
}

// TestRepairIndexedOutage1M is the tentpole acceptance test: a
// metadata-only synthetic store of 1,000,000 objects where only 10,000
// hold a chunk on the failed provider. The repair pass must enumerate
// its candidates through the provider→objects index — touching exactly
// the affected objects (a 100x reduction, well past the required 10x).
func TestRepairIndexedOutage1M(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-object synthetic store is not a -short test")
	}
	reg := maintMarket()
	b := newTestBroker(t, Config{Registry: reg})
	e0 := b.Engine(0)

	// 990k unaffected objects: on healthy providers only, entered in the
	// inverted index as a commit would. No metadata rows exist for them:
	// an O(affected) repair never looks.
	const total, affected = 1_000_000, 10_000
	for i := 0; i < total-affected; i++ {
		b.provIndex.Set(fmt.Sprintf("bulk/obj%07d", i), []string{"A", "B", "C"})
	}
	// 10k affected objects: a chunk on the victim, plus real metadata
	// rows so the pass can Head them.
	ts := b.clock.Timestamp()
	for i := 0; i < affected; i++ {
		key := fmt.Sprintf("obj%07d", i)
		uuid := NewUUID()
		meta := ObjectMeta{
			Container: "hot", Key: key, Size: 64, M: 2,
			Chunks: []string{"V", "A", "B"},
			UUID:   uuid, SKey: StorageKey("hot", key, uuid),
		}
		if err := b.meta.Put(e0.dc, RowKey("hot", key), rowVersion(meta, ts)); err != nil {
			t.Fatal(err)
		}
		b.provIndex.Set("hot/"+key, meta.Chunks)
	}
	if got := b.ProviderIndex().Len(); got != total {
		t.Fatalf("indexed objects = %d, want %d", got, total)
	}

	reg.UpdateAvailability("V", false)

	indexed0 := b.metrics.repairIndexed.Value()
	rep, err := b.Repair(ctx, RepairWait)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != affected || rep.Affected != affected || rep.Waited != affected {
		t.Fatalf("repair touched the wrong population: %+v", rep)
	}
	if got := b.metrics.repairIndexed.Value() - indexed0; got != affected {
		t.Fatalf("repair.objectsIndexed = %d, want %d", got, affected)
	}
	// The acceptance ratio: indexed enumeration touches >= 10x fewer
	// objects than a full scan of the store would.
	if ratio := total / rep.Checked; ratio < 10 {
		t.Fatalf("indexed repair touched 1/%d of the store, want >= 1/10", ratio)
	}
}

// TestMaintQueueDrainsInvalidatedSet asserts the event-driven
// reoptimization contract: a pricing bump on one provider enqueues
// exactly the objects holding a chunk there (deduplicated) and the drain
// re-plans exactly that set.
func TestMaintQueueDrainsInvalidatedSet(t *testing.T) {
	b := newTestBroker(t, Config{})
	e := b.Engine(0)
	for i := 0; i < 24; i++ {
		if _, err := e.Put(ctx, "c", fmt.Sprintf("k%02d", i), []byte(strings.Repeat("x", 256)), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	// Pick the provider carrying the most chunks; its object set is the
	// invalidated population.
	var victim string
	for _, name := range b.ProviderIndex().ProviderNames() {
		if victim == "" || b.ProviderIndex().Count(name) > b.ProviderIndex().Count(victim) {
			victim = name
		}
	}
	invalidated := b.ProviderIndex().Objects(victim)
	if len(invalidated) == 0 {
		t.Fatal("no objects indexed on any provider")
	}

	st0 := b.MaintStats()
	if _, err := b.Registry().UpdatePricing(victim, cloud.Pricing{
		StorageGBMonth: 5, BandwidthInGB: 1, BandwidthOutGB: 1, OpsPer1000: 1,
	}); err != nil {
		t.Fatal(err)
	}
	st1 := b.MaintStats()
	if got := st1.Enqueued - st0.Enqueued; got != int64(len(invalidated)) {
		t.Fatalf("enqueued %d, want exactly the %d invalidated objects", got, len(invalidated))
	}
	if st1.QueueDepth != len(invalidated) || st1.Events-st0.Events != 1 {
		t.Fatalf("queue state after bump: %+v", st1)
	}
	// A second bump before draining is fully deduplicated.
	if _, err := b.Registry().UpdatePricing(victim, cloud.Pricing{
		StorageGBMonth: 6, BandwidthInGB: 1, BandwidthOutGB: 1, OpsPer1000: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if st2 := b.MaintStats(); st2.Enqueued != st1.Enqueued {
		t.Fatalf("duplicate invalidations enqueued: %+v", st2)
	}

	if n := b.DrainMaintenance(ctx); n != len(invalidated) {
		t.Fatalf("drained %d, want %d", n, len(invalidated))
	}
	st3 := b.MaintStats()
	if st3.QueueDepth != 0 || st3.Drained-st0.Drained != int64(len(invalidated)) {
		t.Fatalf("queue state after drain: %+v", st3)
	}
}

// TestMaintQueueConcurrentMutations runs market events against
// concurrent Put/Delete traffic with background drain workers enabled;
// under -race this asserts the index/queue/commit-hook locking. After
// the dust settles every accepted invalidation must have drained.
func TestMaintQueueConcurrentMutations(t *testing.T) {
	b := newTestBroker(t, Config{ReoptWorkers: 2})
	e := b.Engine(0)
	seed := func(i int) string { return fmt.Sprintf("k%03d", i) }
	for i := 0; i < 8; i++ {
		if _, err := e.Put(ctx, "c", seed(i), []byte("seed"), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	victim := b.ProviderIndex().ProviderNames()[0]

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 8; i < 40; i++ {
			if _, err := e.Put(ctx, "c", seed(i), []byte("churn"), PutOptions{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := e.Delete(ctx, "c", seed(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := b.Registry().UpdatePricing(victim, cloud.Pricing{
				StorageGBMonth: 0.1 + 0.01*float64(i),
				BandwidthInGB:  0.05, BandwidthOutGB: 0.12, OpsPer1000: 0.01,
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := waitMaintIdle(waitCtx, b); err != nil {
		t.Fatalf("queue never went idle: %v", err)
	}
	st := b.MaintStats()
	if st.QueueDepth != 0 || st.Drained != st.Enqueued {
		t.Fatalf("idle queue should have drained every accepted invalidation: %+v", st)
	}
	if st.Dropped != 0 {
		t.Fatalf("default queue depth dropped invalidations: %+v", st)
	}
}

// TestGatewayAsyncJobs is the jobs-API e2e: POST /v1/repair and
// /v1/optimize answer 202 with a job resource and Location header, the
// job is pollable to completion with its final report attached,
// ?wait=true preserves the old synchronous 200 contract, and GET
// /v1/jobs pages with the object-listing shape.
func TestGatewayAsyncJobs(t *testing.T) {
	_, ts := newGatewayServer(t, Config{})
	client := ts.Client()

	resp := doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/c/k", []byte("jobs"), nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put = %d", resp.StatusCode)
	}

	poll := func(t *testing.T, loc string) JobView {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp := doReq(t, client, http.MethodGet, ts.URL+loc, nil, nil)
			var job JobView
			if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("poll %s = %d", loc, resp.StatusCode)
			}
			if job.State != JobRunning {
				return job
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still running: %+v", loc, job)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Async repair: 202 + Location, poll to done, report attached.
	resp = doReq(t, client, http.MethodPost, ts.URL+"/v1/repair?policy=active", nil, nil)
	var dispatched JobView
	if err := json.NewDecoder(resp.Body).Decode(&dispatched); err != nil {
		t.Fatal(err)
	}
	loc := resp.Header.Get("Location")
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || dispatched.ID == "" || loc != "/v1/jobs/"+dispatched.ID {
		t.Fatalf("dispatch repair = %d, job %+v, location %q", resp.StatusCode, dispatched, loc)
	}
	if dispatched.Kind != JobRepair || dispatched.Policy != "active" {
		t.Fatalf("dispatched job = %+v", dispatched)
	}
	job := poll(t, loc)
	if job.State != JobDone || job.Repair == nil || job.FinishedAt == nil || job.Error != "" {
		t.Fatalf("finished repair job = %+v", job)
	}
	if job.Processed != int64(job.Repair.Checked) {
		t.Fatalf("progress counter %d != checked %d", job.Processed, job.Repair.Checked)
	}

	// Async optimize: same lifecycle, optimize report attached.
	resp = doReq(t, client, http.MethodPost, ts.URL+"/v1/optimize", nil, nil)
	if err := json.NewDecoder(resp.Body).Decode(&dispatched); err != nil {
		t.Fatal(err)
	}
	loc = resp.Header.Get("Location")
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || dispatched.Kind != JobOptimize {
		t.Fatalf("dispatch optimize = %d, %+v", resp.StatusCode, dispatched)
	}
	job = poll(t, loc)
	if job.State != JobDone || job.Optimize == nil || job.Optimize.Leader == "" {
		t.Fatalf("finished optimize job = %+v", job)
	}

	// ?wait=true keeps the pre-jobs synchronous contract: 200 + report.
	resp = doReq(t, client, http.MethodPost, ts.URL+"/v1/repair?wait=true&policy=active", nil, nil)
	var rep RepairReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait=true repair = %d", resp.StatusCode)
	}

	// Listing: three jobs exist (wait=true runs inline, minting none);
	// page size 1 walks them in creation order via the cursor.
	var ids []string
	after := ""
	for {
		resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/jobs?limit=1&after="+after, nil, nil)
		var page JobList
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(page.Jobs) > 1 {
			t.Fatalf("limit=1 page returned %d jobs", len(page.Jobs))
		}
		for _, j := range page.Jobs {
			ids = append(ids, j.ID)
		}
		if !page.Truncated {
			break
		}
		after = page.Next
	}
	if len(ids) != 2 || ids[0] >= ids[1] {
		t.Fatalf("paged job IDs = %v, want 2 ascending", ids)
	}

	// Unknown jobs are typed 404s.
	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/jobs/j99999999", nil, nil)
	if resp.StatusCode != http.StatusNotFound || errCode(t, resp) != "job_not_found" {
		t.Fatalf("unknown job = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// storeObjects puts n objects of size bytes and returns the provider
// carrying the most of them.
func storeObjects(t *testing.T, b *Broker, n, size int) (busiest string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := b.NextEngine().Put(ctx, "c", fmt.Sprintf("k%02d", i), make([]byte, size), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range b.ProviderIndex().ProviderNames() {
		if busiest == "" || b.ProviderIndex().Count(name) > b.ProviderIndex().Count(busiest) {
			busiest = name
		}
	}
	return busiest
}

// wantVisibleEverywhere asserts that every one of the n objects reads
// back through every engine of every datacenter, on none of the avoid
// providers: committed maintenance must not be visible in one datacenter
// only (the others would still point at chunks the commit deleted).
func wantVisibleEverywhere(t *testing.T, b *Broker, n, size int, avoid string) {
	t.Helper()
	for _, e := range b.Engines() {
		for i := 0; i < n; i++ {
			data, meta, err := e.Get(ctx, "c", fmt.Sprintf("k%02d", i))
			if err != nil || len(data) != size {
				t.Fatalf("%s (%s): k%02d: %d bytes, %v", e.ID(), e.Datacenter(), i, len(data), err)
			}
			for _, p := range meta.Chunks {
				if p == avoid {
					t.Fatalf("%s: k%02d still holds a chunk on %s: %v", e.ID(), i, avoid, meta.Chunks)
				}
			}
		}
	}
}

// TestPriceRiseMigratesOffProvider is the paper's own market event — "a
// provider suddenly increasing its pricing policy": every object on the
// provider must be re-planned against the NEW price sheet and move, and
// the moves must be readable from every datacenter — with an explicit
// drain and with background workers, neither of which has a front-end to
// flush metadata for it.
func TestPriceRiseMigratesOffProvider(t *testing.T) {
	const n, size = 24, 1 << 20
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			b := newTestBroker(t, Config{MigrationHorizon: 1_000_000, ReoptWorkers: workers})
			victim := storeObjects(t, b, n, size)
			invalidated := len(b.ProviderIndex().Objects(victim))
			raisePrices(t, b, victim)
			if workers == 0 {
				if got := b.DrainMaintenance(ctx); got != invalidated {
					t.Fatalf("drained %d, want %d", got, invalidated)
				}
			} else if err := waitMaintIdle(ctx, b); err != nil {
				t.Fatal(err)
			}
			if st := b.MaintStats(); st.Migrated != int64(invalidated) || invalidated == 0 {
				t.Fatalf("migrated %d of %d invalidated objects: %+v", st.Migrated, invalidated, st)
			}
			if cur, ok := b.CurrentPlacement("c/k00"); !ok || cur.Has(victim) {
				t.Fatalf("CurrentPlacement = %v, %v", cur, ok)
			}
			wantVisibleEverywhere(t, b, n, size, victim)
		})
	}
}

// wantIndexedAsStored asserts that the provider index and CurrentPlacement
// both say what the object's live metadata row says.
func wantIndexedAsStored(t *testing.T, b *Broker, container, key string) {
	t.Helper()
	meta, err := b.Engine(0).Head(ctx, container, key)
	if err != nil {
		t.Fatal(err)
	}
	stored := slices.Clone(meta.Chunks)
	slices.Sort(stored)
	obj := objectName(container, key)
	var indexed []string
	for _, name := range b.ProviderIndex().ProviderNames() {
		if slices.Contains(b.ProviderIndex().Objects(name), obj) {
			indexed = append(indexed, name)
		}
	}
	cur, _ := b.CurrentPlacement(obj)
	if !slices.Equal(indexed, stored) || !slices.Equal(cur.Names(), stored) || cur.M != meta.M {
		t.Fatalf("live row is on %v (m:%d), the index says %v, CurrentPlacement %v", stored, meta.M, indexed, cur)
	}
}

// TestProviderIndexFollowsCommitOrder: two overwrites of one key must
// index in the order they commit. PUT A commits, and the deletes of the
// version it superseded stall; PUT B (a wider rule) commits over it. An
// index updated after that cleanup would end on A's providers while
// the live row is B's — and Repair, which enumerates through the index,
// would never see an outage of B's other providers. Then the same at rest,
// after a hammer of concurrent overwrites (run under -race).
func TestProviderIndexFollowsCommitOrder(t *testing.T) {
	reg, backends := cloudtest.Wrap(cloud.NewPaperRegistry())
	b := newTestBroker(t, Config{Registry: reg})
	narrow := core.Rule{Name: "narrow", Durability: 0.9999, Availability: 0.99, LockIn: 1}
	wide := core.Rule{Name: "wide", Durability: 0.9999, Availability: 0.99, LockIn: 0.25}
	put := func(e *Engine, body string, rule *core.Rule) error {
		_, err := e.Put(ctx, "c", "k", []byte(body), PutOptions{Rule: rule})
		return err
	}
	v0, err := b.Engine(0).Put(ctx, "c", "k", []byte("v0"), PutOptions{Rule: &narrow})
	if err != nil {
		t.Fatal(err)
	}
	stalled, release := make(chan struct{}, len(v0.Chunks)), make(chan struct{})
	stall := cloudtest.Stall(func(key string) bool { return strings.HasPrefix(key, v0.SKey) }, stalled, release)
	for _, hb := range backends {
		hb.OnDelete = stall
	}
	aDone := make(chan error, 1)
	go func() { aDone <- put(b.Engine(0), "A", &narrow) }()
	<-stalled // A is committed: v0 is retired and its deletes have begun
	if err := put(b.Engine(0), "B", &wide); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	wantIndexedAsStored(t, b, "c", "k")

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if err := put(b.Engine(w), fmt.Sprint(w, i), []*core.Rule{&narrow, &wide}[(w+i)%2]); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	wantIndexedAsStored(t, b, "c", "k")
}

// TestMaintQueueOverflowLeftToOptimize: the queue is bounded; what does
// not fit is dropped and counted, and the periodic optimization is the
// backstop that still reaches those objects.
func TestMaintQueueOverflowLeftToOptimize(t *testing.T) {
	const n, bound, size = 10, 4, 1 << 20 // big enough that storage, not operations, prices the object
	clock := NewSimClock()
	b := newTestBroker(t, Config{Clock: clock, MigrationHorizon: 1_000_000})
	b.maint.depth = bound
	victim := storeObjects(t, b, n, size)
	if on := b.ProviderIndex().Count(victim); on != n {
		t.Fatalf("scenario expects all %d objects on %s, got %d", n, victim, on)
	}
	raisePrices(t, b, victim)
	if st := b.MaintStats(); st.Enqueued != bound || st.Dropped != n-bound || st.QueueDepth != bound {
		t.Fatalf("queue of %d fed %d invalidations: %+v", bound, n, st)
	}
	if got := b.DrainMaintenance(ctx); got != bound || b.ProviderIndex().Count(victim) != n-bound {
		t.Fatalf("drained %d, %d objects still on %s", got, b.ProviderIndex().Count(victim), victim)
	}
	// The dropped objects get traffic; the trend gate admits them.
	clock.Advance(4)
	for _, obj := range b.ProviderIndex().Objects(victim) {
		_, key, _ := splitObjectName(obj)
		for r := 0; r < 5; r++ {
			if _, _, err := b.Engine(0).Get(ctx, "c", key); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep, err := b.Optimize(ctx)
	if err != nil || rep.Migrated != n-bound {
		t.Fatalf("optimize = %+v, %v; want the %d dropped objects migrated", rep, err, n-bound)
	}
	wantVisibleEverywhere(t, b, n, size, victim)
}

// TestMaintQueueWorkersAndDrainCountAlike: background workers and an
// explicit drain run one loop, so the same event leaves the same counters.
func TestMaintQueueWorkersAndDrainCountAlike(t *testing.T) {
	run := func(workers int) MaintStats {
		b := newTestBroker(t, Config{MigrationHorizon: 1_000_000, ReoptWorkers: workers})
		victim := storeObjects(t, b, 12, 1<<20)
		raisePrices(t, b, victim)
		b.DrainMaintenance(ctx)
		if err := waitMaintIdle(ctx, b); err != nil {
			t.Fatal(err)
		}
		st := b.MaintStats()
		st.Workers = 0
		return st
	}
	if drained, worked := run(0), run(2); drained != worked || drained.Migrated == 0 || drained.Drained != drained.Enqueued {
		t.Fatalf("explicit drain left %+v, workers left %+v", drained, worked)
	}
}

// TestDrainLosesNothingItTook: a drain takes the whole queue, so a pass
// cut short must put back what it did not get through, and count only
// the rest. A drain cancelled mid-pass leaves those queued for the next,
// which moves every object off the victim.
func TestDrainLosesNothingItTook(t *testing.T) {
	const n, size = 12, 1 << 20
	t.Run("cancelled", func(t *testing.T) {
		reg, backends := cloudtest.Wrap(cloud.NewPaperRegistry())
		b := newTestBroker(t, Config{Registry: reg, MigrationHorizon: 1_000_000})
		victim := storeObjects(t, b, n, size)
		invalidated := b.ProviderIndex().Count(victim)
		raisePrices(t, b, victim)
		pass, cancel := context.WithCancel(ctx)
		defer cancel()
		cancelAt := cloudtest.CancelAt(5, cancel)
		for _, hb := range backends {
			hb.OnGet = cancelAt
		}
		first := b.DrainMaintenance(pass)
		st := b.MaintStats()
		if first >= invalidated || st.Drained != int64(first) || first+st.QueueDepth != invalidated {
			t.Fatalf("cancelled drain re-planned %d and left %+v; want the other %d queued", first, st, invalidated-first)
		}
		if got := b.DrainMaintenance(ctx); got != invalidated-first {
			t.Fatalf("second drain re-planned %d, want %d", got, invalidated-first)
		}
		if st := b.MaintStats(); st.Drained != st.Enqueued || st.Drained != int64(invalidated) {
			t.Fatalf("after both drains: %+v, want %d enqueued and drained", st, invalidated)
		}
		if on := b.ProviderIndex().Count(victim); on != 0 {
			t.Fatalf("%d objects still on %s after the second drain", on, victim)
		}
		wantVisibleEverywhere(t, b, n, size, victim)
	})
}

// TestCloseWaitsForJobs: Close returns only once every async job has
// finished, a provider call that outlives the cancellation included, and
// a job started after Close ends at once with the closed context.
func TestCloseWaitsForJobs(t *testing.T) {
	reg, backends := cloudtest.Wrap(cloud.NewPaperRegistry())
	b := newTestBroker(t, Config{Registry: reg})
	meta, err := b.Engine(0).Put(ctx, "c", "k", testPayload(4096), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	for _, hb := range backends {
		hb.OnGet = func(ctx context.Context, _ string) error {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-ctx.Done()
			time.Sleep(50 * time.Millisecond)
			return ctx.Err()
		}
	}
	if _, err := b.SetProviderAvailable(meta.Chunks[0], false); err != nil {
		t.Fatal(err)
	}
	job := b.StartRepair(RepairActive)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the repair job never read a chunk")
	}
	b.Close()
	if got, _ := b.Job(job.ID); got.State == JobRunning {
		t.Fatalf("job state right after Close: %s", got.State)
	}

	late := b.StartRepair(RepairActive)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		got, _ := b.Job(late.ID)
		if got.State != JobRunning {
			if got.State != JobFailed || !strings.Contains(got.Error, context.Canceled.Error()) {
				t.Fatalf("job started after Close: %+v", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a job started after Close still runs")
		}
	}
}

// TestDrainSeesTheWriteItFollows: a drain right after a PUT sees the
// PUT's access statistics — a drain has nothing to flush first, so an
// object the event invalidated is never skipped for want of a history.
func TestDrainSeesTheWriteItFollows(t *testing.T) {
	b := newTestBroker(t, Config{MigrationHorizon: 1_000_000})
	victim := storeObjects(t, b, 1, 1<<20)
	raisePrices(t, b, victim)
	b.DrainMaintenance(ctx)
	if on := b.ProviderIndex().Count(victim); on != 0 {
		t.Fatalf("object still on %s after the drain (%+v)", victim, b.MaintStats())
	}
}

// raisePrices multiplies a provider's storage, egress and operation
// prices by 1000 — the paper's "provider suddenly increasing its pricing
// policy".
func raisePrices(t *testing.T, b *Broker, provider string) {
	t.Helper()
	store, _ := b.Registry().Store(provider)
	p := store.Spec().Pricing
	p.StorageGBMonth, p.BandwidthOutGB, p.OpsPer1000 = p.StorageGBMonth*1000, p.BandwidthOutGB*1000, p.OpsPer1000*1000
	if _, err := b.SetProviderPricing(provider, p); err != nil {
		t.Fatal(err)
	}
}

// TestCurrentPlacementCarriesLivePrices: the placement view resolves its
// specs when asked, so it cannot hand out a pre-event price sheet.
func TestCurrentPlacementCarriesLivePrices(t *testing.T) {
	b := newTestBroker(t, Config{})
	victim := storeObjects(t, b, 1, 4096)
	if _, err := b.SetProviderPricing(victim, cloud.Pricing{StorageGBMonth: 7}); err != nil {
		t.Fatal(err)
	}
	cur, _ := b.CurrentPlacement("c/k00")
	for _, spec := range cur.Providers {
		if spec.Name == victim && spec.Pricing.StorageGBMonth != 7 {
			t.Fatalf("CurrentPlacement prices %s at %+v after the event", victim, spec.Pricing)
		}
	}
}

// TestDirectRepairVisibleEverywhere: a repair run on the broker itself —
// no facade, no gateway — still replicates what it commits.
func TestDirectRepairVisibleEverywhere(t *testing.T) {
	const n, size = 24, 64 << 10
	b := newTestBroker(t, Config{})
	victim := storeObjects(t, b, n, size)
	if _, err := b.SetProviderAvailable(victim, false); err != nil {
		t.Fatal(err)
	}
	rep, err := b.Repair(ctx, RepairActive)
	if err != nil || rep.Repaired == 0 || rep.Repaired != rep.Affected {
		t.Fatalf("repair = %+v, %v", rep, err)
	}
	wantVisibleEverywhere(t, b, n, size, victim)
}

// waitMaintIdle waits until the maintenance queue is empty and no pass
// holds an object, or ctx ends.
func waitMaintIdle(ctx context.Context, b *Broker) error {
	for {
		m := b.maint
		m.mu.Lock()
		idle := len(m.queue) == 0 && m.taken == 0
		m.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}
