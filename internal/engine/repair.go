package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/obs"
	"scalia/internal/stats"
)

// This file is the production repair path (§IV-E). A repair pass scans
// for objects with chunks at unreachable providers and, under the
// active policy, fixes each one the cheapest way the market allows:
//
//  1. chunk swap — when a same-(m,n) replacement set is feasible, m
//     surviving chunks are read, ONLY the missing chunks are re-encoded
//     and written to the swap targets, and the metadata is updated in
//     place ("only the faulty chunk needs to be written, which
//     corresponds to the cheapest case");
//  2. re-stripe — otherwise the object is fully re-placed through the
//     planner and migrated, rewriting every chunk.
//
// Swap plans come from core.Planner.Repair — the same entry point the
// cost simulator uses — so simulated and production repair decisions
// provably agree.

// RepairReport summarizes an active-repair pass (§IV-E).
type RepairReport struct {
	Checked  int
	Affected int // objects with chunks at unreachable providers
	Repaired int
	Waited   int // objects left for the provider to recover (wait policy)
	// Swapped and Restriped split Repaired by mechanism: same-(m,n)
	// chunk swaps versus full re-placements.
	Swapped   int
	Restriped int
	// Skipped counts active-policy objects left unrepaired: no feasible
	// plan on the current market, or the repair write failed.
	Skipped int
	// ChunksWritten and BytesWritten total the replacement chunks the
	// pass wrote — a swap writes only the missing chunks, a re-stripe
	// all n of every stripe.
	ChunksWritten int
	BytesWritten  int64
}

// RepairPolicy selects how to treat chunks at failed providers.
type RepairPolicy int

// Repair policies: wait for recovery, or actively move chunks.
const (
	RepairWait RepairPolicy = iota
	RepairActive
)

// String returns the policy's wire name ("wait" or "active").
func (p RepairPolicy) String() string {
	if p == RepairActive {
		return "active"
	}
	return "wait"
}

// ParseRepairPolicy is the inverse of RepairPolicy.String; the empty
// name selects RepairWait.
func ParseRepairPolicy(name string) (RepairPolicy, error) {
	switch name {
	case "", "wait":
		return RepairWait, nil
	case "active":
		return RepairActive, nil
	}
	return RepairWait, fmt.Errorf("%w: repair policy must be wait or active", ErrInvalidArgument)
}

// RepairTotals accumulates repair activity over the broker's lifetime;
// the gateway surfaces it on GET /v1/stats.
type RepairTotals struct {
	Passes        int   `json:"passes"`
	Repaired      int   `json:"repaired"`
	Swapped       int   `json:"swapped"`
	Restriped     int   `json:"restriped"`
	Skipped       int   `json:"skipped"`
	ChunksWritten int   `json:"chunksWritten"`
	BytesWritten  int64 `json:"bytesWritten"`
}

// RepairTotals returns the cumulative repair counters.
func (b *Broker) RepairTotals() RepairTotals {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.repairTotals
}

// recordRepair folds one pass's report into the lifetime totals.
func (b *Broker) recordRepair(rep RepairReport) {
	b.mu.Lock()
	b.repairTotals.Passes++
	b.repairTotals.Repaired += rep.Repaired
	b.repairTotals.Swapped += rep.Swapped
	b.repairTotals.Restriped += rep.Restriped
	b.repairTotals.Skipped += rep.Skipped
	b.repairTotals.ChunksWritten += rep.ChunksWritten
	b.repairTotals.BytesWritten += rep.BytesWritten
	b.mu.Unlock()
}

// Repair applies the policy to objects with chunks at unreachable
// providers. The candidate set is enumerated through the provider→
// objects inverted index — only objects holding a chunk on an
// unreachable (or deregistered) provider are examined, so a
// single-provider outage costs O(affected), not O(store). Under
// RepairActive each affected object is repaired by the cheapest
// feasible mechanism — chunk swap first, full re-placement as the
// fallback. Like Optimize, the scan is sharded across all alive engines
// and runs in parallel.
func (b *Broker) Repair(ctx context.Context, policy RepairPolicy) (RepairReport, error) {
	affected := b.provIndex.ObjectsOn(b.unreachableProviders())
	b.metrics.repairIndexed.Add(int64(len(affected)))
	return b.repairScan(ctx, policy, affected)
}

// unreachableProviders returns the indexed providers that are currently
// unregistered or unavailable — the providers whose objects a repair
// pass must examine. Cost is O(providers carrying data), not O(objects).
func (b *Broker) unreachableProviders() []string {
	var down []string
	for _, name := range b.provIndex.ProviderNames() {
		s, ok := b.registry.Store(name)
		if !ok || !s.Available() {
			down = append(down, name)
		}
	}
	return down
}

// repairScan runs one repair pass over the given candidate objects.
func (b *Broker) repairScan(ctx context.Context, policy RepairPolicy, objs []string) (RepairReport, error) {
	// One pass at a time: swap repairs reuse the live version's chunk
	// keys, so two concurrent passes planning the same deterministic
	// swap would race commit-vs-rollback on the same keys. (The commit
	// failure path additionally refuses to roll back chunks the live
	// version references — see commitSwap — but serializing the passes
	// keeps the race from arising at all.)
	b.repairMu.Lock()
	defer b.repairMu.Unlock()
	defer b.observeStage(obs.TraceFrom(ctx), "repair", time.Now())
	leader := b.electLeader()
	if leader == nil {
		return RepairReport{}, ErrNoLeader
	}
	b.FlushStats()
	now := b.clock.Period()

	alive := b.aliveEngines()
	shards := shardObjects(objs, len(alive))

	var report RepairReport
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, e := range alive {
		if len(shards[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(e *Engine, objs []string) {
			defer wg.Done()
			local := e.repairShard(ctx, objs, policy, now)
			mu.Lock()
			report.Checked += local.Checked
			report.Affected += local.Affected
			report.Repaired += local.Repaired
			report.Waited += local.Waited
			report.Swapped += local.Swapped
			report.Restriped += local.Restriped
			report.Skipped += local.Skipped
			report.ChunksWritten += local.ChunksWritten
			report.BytesWritten += local.BytesWritten
			mu.Unlock()
		}(e, shards[i])
	}
	wg.Wait()
	b.recordRepair(report)
	return report, ctx.Err()
}

// repairShard applies the repair policy to one engine's share of the
// object population.
func (e *Engine) repairShard(ctx context.Context, objs []string, policy RepairPolicy, now int64) (report RepairReport) {
	aliveFn := func(name string) bool {
		s, ok := e.b.registry.Store(name)
		return ok && s.Available()
	}
	// Single-stripe swaps are batched per target provider so many small
	// objects repaired onto the same spare cost one provider round-trip
	// per batch. The deferred flush writes into the named return value,
	// so swaps still pending at loop exit are counted.
	batch := swapBatcher{e: e}
	defer batch.flush(ctx, &report)
	for _, obj := range objs {
		if ctx.Err() != nil {
			break
		}
		noteProgress(ctx, 1)
		container, key, ok := splitObjectName(obj)
		if !ok {
			continue
		}
		meta, err := e.Head(ctx, container, key)
		if err != nil {
			continue
		}
		report.Checked++
		affected := false
		for _, name := range meta.Chunks {
			if !aliveFn(name) {
				affected = true
				break
			}
		}
		if !affected {
			continue
		}
		report.Affected++
		if policy == RepairWait {
			report.Waited++
			continue
		}
		rule := e.b.rules.Resolve(container, key, meta.Class)
		h := e.b.statsDB.History(obj)
		sum := stats.Summary{Periods: 1, StorageBytes: float64(meta.Size)}
		if h != nil {
			sum = h.Summary(now, e.decisionWindow(obj, now))
			sum.StorageBytes = float64(meta.Size)
		}
		// Plan through the shared planner — the same entry point the
		// simulator uses: a same-(m,n) swap when feasible, the best full
		// re-placement otherwise.
		var restripeTo core.Placement
		epoch, specs, free := e.b.market()
		plan, perr := e.b.planner.Repair(epoch, specs, rule,
			e.b.livePlacement(meta.M, meta.Chunks), aliveFn, sum, meta.Size, free)
		if perr == nil && plan.Mode == core.RepairSwap {
			// A multi-stripe object's replacement chunks are written at
			// once; a single-stripe object's are reconstructed now and
			// their writes deferred to the per-provider batch.
			sw, serr := e.planSwap(meta, plan)
			if serr == nil && sw.src.stripes > 1 {
				serr = e.swapRepair(ctx, sw, &report)
			} else if serr == nil {
				serr = batch.add(ctx, sw, &report)
			}
			if serr == nil {
				continue
			}
			if ctx.Err() != nil {
				break
			}
			// The swap failed (a survivor or target died mid-copy, rot);
			// fall through to the full re-placement.
		} else if perr == nil && e.placementReachable(plan.Placement) {
			// Reuse the planner's re-stripe plan rather than running the
			// same search again; the reachability re-check mirrors
			// placeWithRetry's.
			restripeTo = plan.Placement
		}
		if restripeTo.N() == 0 {
			// placeWithRetry plans through the shared planner and
			// guarantees every chosen provider is reachable right now.
			res, err := e.placeWithRetry(rule, sum, meta.Size)
			if err != nil {
				report.Skipped++
				continue
			}
			restripeTo = res.Placement
		}
		if err := e.migrate(ctx, meta, restripeTo); err != nil {
			if ctx.Err() != nil {
				break
			}
			report.Skipped++
			continue
		}
		e.b.setPlacement(obj, restripeTo)
		report.Repaired++
		report.Restriped++
		chunks, wbytes := restripeWritten(meta, restripeTo)
		report.ChunksWritten += chunks
		report.BytesWritten += wbytes
	}
	return report
}

// placementReachable reports whether every provider of p is currently
// registered and available — the re-check placeWithRetry performs on
// freshly planned placements.
func (e *Engine) placementReachable(p core.Placement) bool {
	for _, spec := range p.Providers {
		s, ok := e.b.registry.Store(spec.Name)
		if !ok || !s.Available() {
			return false
		}
	}
	return true
}

// restripeWritten accounts the chunk writes of a full re-placement:
// every stripe is re-encoded under the target (m, n) and all n chunks
// are written.
func restripeWritten(meta ObjectMeta, to core.Placement) (chunks int, bytes int64) {
	stripes := meta.StripeCount()
	chunks = stripes * to.N()
	for s := 0; s < stripes; s++ {
		c := (meta.stripeLen(s) + int64(to.M) - 1) / int64(to.M)
		if c == 0 {
			c = 1 // zero-length stripes still produce 1-byte chunks
		}
		bytes += c * int64(to.N())
	}
	return chunks, bytes
}

// swap is one validated chunk-swap repair: the stored layout (src), the
// same layout with the replaced slots moved to the swap targets (dst),
// and the read order over the surviving slots. chunks holds stripe 0 of
// a single-stripe object between reconstruction and its batched write.
type swap struct {
	meta     ObjectMeta
	plan     core.RepairPlan
	src, dst *stripeLayout
	order    []int
	chunks   [][]byte
}

// planSwap validates a chunk-swap plan against the stored layout and
// resolves both sides of it. The object version's identity (UUID,
// storage key, per-stripe MD5s) is preserved by a swap, so src and dst
// share chunk keys and differ only in the providers of the replaced
// slots. The repair read follows the serving path's "m cheapest
// providers" ranking, with the replaced slots excluded.
func (e *Engine) planSwap(meta ObjectMeta, plan core.RepairPlan) (*swap, error) {
	n := len(meta.Chunks)
	if plan.Placement.N() != n || plan.Placement.M != meta.M || len(plan.Replaced) == 0 {
		return nil, fmt.Errorf("engine: swap plan does not match the stored layout")
	}
	moved := meta
	moved.Chunks = slices.Clone(meta.Chunks)
	for _, i := range plan.Replaced {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("engine: swap plan slot %d out of range", i)
		}
		moved.Chunks[i] = plan.Placement.Providers[i].Name
	}
	sw := &swap{meta: meta, plan: plan}
	var err error
	if sw.src, err = e.layoutOf(meta); err != nil {
		return nil, err
	}
	if sw.dst, err = e.layoutOf(moved); err != nil {
		return nil, err
	}
	for _, i := range plan.Replaced {
		if st := sw.dst.stores[i]; st == nil || !st.Available() {
			return nil, fmt.Errorf("%w: swap target %s", cloud.ErrUnavailable, sw.dst.names[i])
		}
	}
	sw.order, err = sw.src.rank(meta.Size, plan.Replaced)
	return sw, err
}

// rebuild fetches m surviving chunks of stripe s and returns the
// stripe's full chunk set, the replaced slots reconstructed and the
// payload verified against its stored MD5.
func (e *Engine) rebuild(ctx context.Context, sw *swap, s int) ([][]byte, error) {
	_, chunks, _, err := e.fetch(ctx, sw.src, s, sw.order, sw.meta.M)
	if err == nil {
		err = sw.src.coder.Reconstruct(chunks) // the parity slots the fetch left out
	}
	return chunks, err
}

// swapRepair executes a multi-stripe chunk swap: stripes are
// independent, so whole stripes run through a pipe — each one rebuilt
// and its replacement chunks written to the swap targets — instead of
// serializing one provider round-trip after another; then the metadata
// is updated in place under the row lock. Only the MVCC version
// advances, so concurrent readers are never cut off: pre-commit readers
// fall back from the dead provider to the survivors, post-commit
// readers find the replacement chunk already written. On any failure,
// including ctx cancellation mid-swap, every replacement chunk already
// written is rolled back and the old metadata stays live.
func (e *Engine) swapRepair(ctx context.Context, sw *swap, report *RepairReport) error {
	wrote := make([]int64, sw.src.stripes)
	p := e.b.newStripePipe(ctx, nil, e.b.cfg.ReadParallelism, 0, sw.src.stripes,
		func(ctx context.Context, s int) (func() (stripeOut, error), error) {
			return func() (stripeOut, error) {
				chunks, err := e.rebuild(ctx, sw, s)
				if err == nil {
					err = e.writeChunks(ctx, sw.dst, s, chunks, sw.plan.Replaced)
					wrote[s] = sw.replacedBytes(chunks)
				}
				return stripeOut{}, err
			}, nil
		})
	if err := p.drain(); err != nil {
		e.dropChunks(sw.dst, p.next, sw.plan.Replaced, nil)
		return err
	}
	var bytes int64
	for _, w := range wrote {
		bytes += w
	}
	return e.commitSwap(sw, bytes, report, true)
}

// replacedBytes totals the replacement chunks of one rebuilt stripe.
func (sw *swap) replacedBytes(chunks [][]byte) (n int64) {
	for _, i := range sw.plan.Replaced {
		n += int64(len(chunks[i]))
	}
	return n
}

// commitSwap installs a completed chunk swap's metadata under the row
// lock, and only if the version repaired is still the live one: a
// client write or delete that landed while the replacement chunks were
// copying must win. On failure every replacement chunk is rolled back;
// on success the swap is counted into report and the dead providers'
// stale copies become postponed deletes (§III-D3). replicate is false
// inside a batch, which replicates once after its last commit.
func (e *Engine) commitSwap(sw *swap, bytesWritten int64, report *RepairReport, replicate bool) error {
	meta, stripes, replaced := sw.meta, sw.src.stripes, sw.plan.Replaced
	row := RowKey(meta.Container, meta.Key)
	cur, err := e.publish(row, replicate, func(cur *ObjectMeta, ts int64) error {
		if cur == nil || cur.UUID != meta.UUID || cur.SKey != meta.SKey || !slices.Equal(cur.Chunks, meta.Chunks) {
			return fmt.Errorf("engine: swap repair: object changed mid-repair")
		}
		newMeta := *cur
		newMeta.Chunks = sw.dst.names
		version, err := encodeMeta(newMeta, ts)
		if err == nil {
			if err = e.b.meta.Put(e.dc, row, version); err != nil {
				err = fmt.Errorf("engine: swap repair metadata write: %w", err)
			}
		}
		return err
	})
	if err != nil {
		// Roll back only slots the live version does not reference: if a
		// concurrent pass committed the same swap (same version, same chunk
		// keys), deleting "our" replacement chunks would destroy the chunks
		// its metadata now points at. (After a failed metadata write the
		// live version is still the one repaired, which references none.)
		e.dropChunks(sw.dst, stripes, replaced, func(slot int) bool {
			return cur == nil || cur.UUID != meta.UUID || cur.SKey != meta.SKey ||
				cur.Chunks[slot] != sw.dst.names[slot]
		})
		return err
	}
	// The dead providers' stale copies of the replaced chunks: deletion
	// is postponed until the provider recovers (§III-D3).
	e.dropChunks(sw.src, stripes, replaced, nil)
	e.b.setPlacement(objectName(meta.Container, meta.Key), sw.plan.Placement)
	report.Repaired++
	report.Swapped++
	report.ChunksWritten += stripes * len(replaced)
	report.BytesWritten += bytesWritten
	return nil
}

// --- batched swap writes ---

// swapBatchSize is how many single-stripe swaps a repair pass groups
// into one batched write per target provider.
const swapBatchSize = 16

// swapBatcher accumulates rebuilt single-stripe swaps and flushes their
// replacement-chunk writes grouped per target provider: one PutBatch
// round-trip per provider per flush, instead of one Put per chunk.
// Metadata commits stay per-object (row lock, live-version check) after
// the writes land.
type swapBatcher struct {
	e    *Engine
	pend []*swap
}

// add rebuilds a single-stripe swap's replacement chunks and queues
// their writes, flushing when the batch is full.
func (sb *swapBatcher) add(ctx context.Context, sw *swap, report *RepairReport) (err error) {
	if sw.chunks, err = sb.e.rebuild(ctx, sw, 0); err != nil {
		return err
	}
	if sb.pend = append(sb.pend, sw); len(sb.pend) >= swapBatchSize {
		sb.flush(ctx, report)
	}
	return nil
}

// flush writes every pending replacement chunk, one batch per target
// provider, then commits each object whose writes all landed. An object
// with a failed target has the chunks that did land rolled back and is
// counted Skipped.
func (sb *swapBatcher) flush(ctx context.Context, report *RepairReport) {
	pend := sb.pend
	sb.pend = nil
	if len(pend) == 0 {
		return
	}
	groups := make(map[string][]cloud.BatchItem)
	for _, sw := range pend {
		for _, i := range sw.plan.Replaced {
			name := sw.dst.names[i]
			groups[name] = append(groups[name], cloud.BatchItem{Key: sw.dst.key(0, i), Data: sw.chunks[i]})
		}
	}
	landed := make(map[pendingDelete]bool) // (provider, chunk key) written
	failed := make(map[string]bool)
	for name, items := range groups {
		n, err := sb.e.putBatch(ctx, name, items)
		for _, it := range items[:n] {
			landed[pendingDelete{name, it.Key}] = true
		}
		failed[name] = err != nil
	}
	for _, sw := range pend {
		wrote := func(slot int) bool { return landed[pendingDelete{sw.dst.names[slot], sw.dst.key(0, slot)}] }
		if slices.ContainsFunc(sw.plan.Replaced, func(i int) bool { return failed[sw.dst.names[i]] }) {
			sb.e.dropChunks(sw.dst, 1, sw.plan.Replaced, wrote)
			report.Skipped++
		} else if sb.e.commitSwap(sw, sw.replacedBytes(sw.chunks), report, false) != nil {
			report.Skipped++
		}
	}
	sb.e.b.replicate()
}

// putBatch writes one provider's batch — through cloud.BatchWriter when
// the backend supports it (one round-trip, all or nothing), item by item
// otherwise — and reports how many items landed. Like writeChunks it
// first cancels the postponed deletes of the keys it writes.
func (e *Engine) putBatch(ctx context.Context, provider string, items []cloud.BatchItem) (landed int, err error) {
	st, ok := e.b.registry.Store(provider)
	if !ok {
		return 0, fmt.Errorf("%w: %s", cloud.ErrUnavailable, provider)
	}
	for _, it := range items {
		e.b.cancelPendingDelete(provider, it.Key)
	}
	t0 := time.Now()
	if bw, isBatch := st.(cloud.BatchWriter); isBatch {
		if err = bw.PutBatch(ctx, items); err == nil {
			landed = len(items)
		}
	} else {
		for _, it := range items {
			if err = st.Put(ctx, it.Key, it.Data); err != nil {
				break
			}
			landed++
		}
	}
	e.b.observeProviderOp(provider, "put-batch", t0, err)
	return landed, err
}
