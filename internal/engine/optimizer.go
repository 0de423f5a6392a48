package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"scalia/internal/core"
	"scalia/internal/obs"
	"scalia/internal/stats"
	"scalia/internal/trend"
)

// OptimizeReport summarizes one periodic optimization procedure
// (paper Fig. 7).
type OptimizeReport struct {
	Leader       string
	Scanned      int // |A|: objects accessed since the last round
	TrendChanged int // objects whose access pattern changed
	Recomputed   int // placements recomputed (Algorithm 1 runs)
	Migrated     int // objects actually moved
	MigrationUSD float64
	// Evaluated counts candidate provider sets examined across every
	// placement search of the round (the Fig. 13 ablation metric),
	// including decision-period coupling probes.
	Evaluated int
	// PlannerHits/PlannerMisses count prepared-search cache lookups
	// served from (hit) or built into (miss) the shared planner during
	// the round. A steady market yields misses only on the first round
	// per rule.
	PlannerHits   uint64
	PlannerMisses uint64
}

// ErrNoLeader is returned when no engine is alive to lead a round.
var ErrNoLeader = errors.New("engine: no alive engine for leader election")

// Optimize runs one optimization procedure: a leader elected among all
// engines retrieves the set A of objects accessed since the last round,
// splits it evenly across engines, and each engine recomputes placement
// only for objects whose access trend changed (§III-A3). Migration
// happens only when the projected savings over the decision period
// exceed the migration cost. Cancelling ctx stops the shard scans;
// objects not yet examined are picked up by a later round.
func (b *Broker) Optimize(ctx context.Context) (OptimizeReport, error) {
	defer b.observeStage(obs.TraceFrom(ctx), "optimize", time.Now())
	leader := b.electLeader()
	if leader == nil {
		return OptimizeReport{}, ErrNoLeader
	}
	b.FlushStats()

	b.mu.Lock()
	since := b.lastOpt
	now := b.clock.Period()
	b.lastOpt = now
	b.mu.Unlock()

	accessed := b.statsDB.AccessedSince(since)
	report := OptimizeReport{Leader: leader.id, Scanned: len(accessed)}
	if len(accessed) == 0 {
		// Quiet round: nothing to shard, skip the fan-out machinery (the
		// common case for a broker ticking every sampling period).
		b.recordOptimize(report)
		return report, nil
	}
	planner0 := b.planner.Stats()

	// Fan out over alive engines (step 3-4 of Fig. 7).
	alive := b.aliveEngines()
	shards := shardObjects(accessed, len(alive))

	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, e := range alive {
		if len(shards[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(e *Engine, objs []string) {
			defer wg.Done()
			local := e.optimizeShard(ctx, objs, now)
			mu.Lock()
			report.TrendChanged += local.TrendChanged
			report.Recomputed += local.Recomputed
			report.Migrated += local.Migrated
			report.MigrationUSD += local.MigrationUSD
			report.Evaluated += local.Evaluated
			mu.Unlock()
		}(e, shards[i])
	}
	wg.Wait()
	planner1 := b.planner.Stats()
	report.PlannerHits = planner1.Hits - planner0.Hits
	report.PlannerMisses = planner1.Misses - planner0.Misses
	b.recordOptimize(report)
	return report, ctx.Err()
}

// aliveEngines returns the engines participating in fan-out work.
func (b *Broker) aliveEngines() []*Engine {
	var alive []*Engine
	for _, e := range b.engines {
		if e.Alive() {
			alive = append(alive, e)
		}
	}
	return alive
}

// shardObjects splits the object list round-robin across n workers.
func shardObjects(objs []string, n int) [][]string {
	shards := make([][]string, n)
	for i, obj := range objs {
		shards[i%n] = append(shards[i%n], obj)
	}
	return shards
}

// electLeader picks the alive engine with the lowest identifier — a
// deterministic stand-in for the paper's leader election among engines
// of all datacenters.
func (b *Broker) electLeader() *Engine {
	var leader *Engine
	for _, e := range b.engines {
		if !e.Alive() {
			continue
		}
		if leader == nil || e.id < leader.id {
			leader = e
		}
	}
	return leader
}

// optimizeShard processes one engine's share of the accessed-object set.
func (e *Engine) optimizeShard(ctx context.Context, objs []string, now int64) OptimizeReport {
	var report OptimizeReport
	for _, obj := range objs {
		if ctx.Err() != nil {
			break
		}
		noteProgress(ctx, 1)
		if !e.detectTrendChange(obj, now) {
			continue
		}
		report.TrendChanged++
		migrated, cost, recomputed, evaluated := e.reoptimizeObject(ctx, obj, now)
		report.Evaluated += evaluated
		if recomputed {
			report.Recomputed++
		}
		if migrated {
			report.Migrated++
			report.MigrationUSD += cost
		}
	}
	return report
}

// detectTrendChange applies the momentum detector statelessly over the
// object's recorded history: it compares the SMA of the last w periods
// against the SMA of the preceding w periods.
func (e *Engine) detectTrendChange(obj string, now int64) bool {
	h := e.b.statsDB.History(obj)
	if h == nil {
		return false
	}
	w := e.b.cfg.DetectWindow
	series := h.OpsSeries(now, w+1)
	if len(series) < w+1 {
		return true // young object: history shorter than the window
	}
	var prev, cur float64
	for i := 0; i < w; i++ {
		prev += series[i]
		cur += series[i+1]
	}
	prev /= float64(w)
	cur /= float64(w)
	return trend.Momentum(prev, cur) > e.b.cfg.DetectLimit
}

// reoptimizeObject recomputes an object's placement from its access
// history over the adaptive decision period, migrating when worthwhile.
// evaluated counts the candidate sets examined by this object's
// searches (placement plus coupling probes).
func (e *Engine) reoptimizeObject(ctx context.Context, obj string, now int64) (migrated bool, cost float64, recomputed bool, evaluated int) {
	container, key, ok := splitObjectName(obj)
	if !ok {
		return false, 0, false, 0
	}
	meta, err := e.Head(ctx, container, key)
	if err != nil {
		return false, 0, false, 0
	}
	h := e.b.statsDB.History(obj)
	if h == nil {
		return false, 0, false, 0
	}
	rule := e.b.rules.Resolve(container, key, meta.Class)

	d, coupleEval := e.updateDecisionPeriod(obj, meta, h, rule, now)
	evaluated += coupleEval
	sum := h.Summary(now, d)
	sum.StorageBytes = float64(meta.Size)

	// placeWithRetry (not a bare planner call): the planned providers are
	// re-verified as reachable, so a backend that died without a registry
	// event (no epoch bump) is excluded instead of poisoning the
	// migration target until the next market change.
	res, err := e.placeWithRetry(rule, sum, meta.Size)
	evaluated += res.Evaluated
	if err != nil {
		return false, 0, true, evaluated
	}
	// Price staying put against the live market: the stored chunk
	// locations with the registry's current price sheets, so a provider
	// that raised its prices makes its objects look as expensive as they
	// now are.
	cur := e.b.livePlacement(meta.M, meta.Chunks)
	if res.Placement.Equal(cur) {
		return false, 0, true, evaluated
	}
	// Migrate only if the savings over the benefit horizon cover the
	// migration cost (§III-A3). The horizon is the decision period,
	// stretched to the object's expected remaining lifetime and the
	// configured minimum.
	horizon := d
	if ttl := e.ttlPeriods(obj, meta, now); ttl > horizon {
		horizon = ttl
	}
	if e.b.cfg.MigrationHorizon > horizon {
		horizon = e.b.cfg.MigrationHorizon
	}
	curPrice := core.PeriodCost(cur, sum, e.b.cfg.PeriodHours)
	saving := (curPrice - res.Price) * float64(horizon)
	migCost := core.MigrationCost(cur, res.Placement, float64(meta.Size)/1e9)
	if saving <= migCost {
		return false, 0, true, evaluated
	}
	if err := e.migrate(ctx, meta, res.Placement); err != nil {
		return false, 0, true, evaluated
	}
	e.b.setPlacement(obj, res.Placement)
	return true, migCost, true, evaluated
}

// updateDecisionPeriod runs the coupling evaluation (D/2, D, 2D) when
// the object's controller is due, returning the decision period to use
// and the number of candidate sets the probes examined. The coupling
// probes share one prepared search: the market does not change between
// the D/2, D and 2D evaluations.
func (e *Engine) updateDecisionPeriod(obj string, meta ObjectMeta, h *stats.History, rule core.Rule, now int64) (int, int) {
	e.b.mu.Lock()
	ctl, ok := e.b.decisions[obj]
	if !ok {
		initial := e.b.cfg.DecisionPeriod
		// Seed from the class's expected lifetime when available: a
		// short-lived class should not be optimized with a long horizon.
		if ttl, ok := e.b.statsDB.Classes().ExpectedTTL(meta.Class, e.b.statsDB.AgeHours(obj, now)); ok {
			if p := int(ttl / e.b.cfg.PeriodHours); p >= core.MinDecisionPeriod && p < initial {
				initial = p
			}
		}
		ctl = core.NewDecisionController(initial, 0)
		e.b.decisions[obj] = ctl
	}
	due := ctl.Tick()
	e.b.mu.Unlock()
	if !due {
		return ctl.D(), 0
	}

	// limit = min(TTL_obj, |H_obj|) in sampling periods.
	limit := h.Span(now)
	if ttl := e.ttlPeriods(obj, meta, now); ttl > 0 && ttl < limit {
		limit = ttl
	}
	cands := ctl.Candidates(limit)
	epoch, specs, free := e.b.market()
	evaluated := 0
	search, err := e.b.planner.Search(epoch, specs, rule)
	bestIdx, bestPrice := 1, 0.0
	if err == nil {
		for i, d := range cands {
			sum := h.Summary(now, d)
			sum.StorageBytes = float64(meta.Size)
			res := search.Best(sum, meta.Size, free)
			evaluated += res.Evaluated
			if !res.Feasible {
				continue
			}
			if i == 0 || res.Price < bestPrice {
				bestIdx, bestPrice = i, res.Price
			}
		}
	}
	e.b.mu.Lock()
	ctl.Update(bestIdx, cands)
	d := ctl.D()
	e.b.mu.Unlock()
	return d, evaluated
}

// ttlPeriods resolves the object's time left to live in sampling
// periods: the user hint first, then the class lifetime statistics.
func (e *Engine) ttlPeriods(obj string, meta ObjectMeta, now int64) int {
	age := e.b.statsDB.AgeHours(obj, now)
	if meta.TTLHours > 0 {
		left := meta.TTLHours - age
		if left < 0 {
			left = 0
		}
		return int(left / e.b.cfg.PeriodHours)
	}
	if ttl, ok := e.b.statsDB.Classes().ExpectedTTL(meta.Class, age); ok {
		return int(ttl / e.b.cfg.PeriodHours)
	}
	return 0
}

// migrate moves an object to a new placement, streaming stripe by
// stripe: each stripe is reconstructed from the current chunks,
// re-encoded for the target placement and written out while the next
// ones are read, so migration of a large object never buffers it whole.
// The superseded chunks are deleted once the new metadata is committed.
func (e *Engine) migrate(ctx context.Context, meta ObjectMeta, to core.Placement) error {
	src, err := e.openObjectRange(ctx, meta, 0, meta.StripeCount()-1, false)
	if err != nil {
		return fmt.Errorf("engine: migrate read: %w", err)
	}
	defer src.Close()
	newMeta := meta
	newMeta.UUID = NewUUID()
	newMeta.SKey = StorageKey(meta.Container, meta.Key, newMeta.UUID)
	newMeta.M = to.M
	newMeta.Chunks = slotNames(to)
	l, err := e.layoutOf(newMeta)
	if err != nil {
		return err
	}
	bodySum, err := e.writeStripes(ctx, l, src)
	if err != nil {
		return fmt.Errorf("engine: migrate write: %w", err)
	}
	// End-to-end check of the copy: every stripe's MD5 must come out as
	// stored, and so must the body MD5 — except for a multipart version,
	// whose Checksum is the md5-N composite of its part ETags, not a body
	// MD5, and is carried over unchanged.
	if !meta.Multipart() {
		newMeta.Checksum = bodySum
	}
	if !slices.Equal(l.sums, meta.StripeSums) || newMeta.Checksum != meta.Checksum {
		e.deleteChunks(newMeta)
		return fmt.Errorf("engine: migrate: %w", ErrChecksum)
	}
	// Commit only if the version we migrated is still the live one: a
	// client write (or delete) that landed while the chunks were copying
	// must win — a background migration may never clobber an acknowledged
	// update or resurrect a tombstone.
	row := RowKey(meta.Container, meta.Key)
	if _, err := e.publish(row, true, func(cur *ObjectMeta, ts int64) error {
		if cur == nil || cur.UUID != meta.UUID {
			return fmt.Errorf("engine: migrate: object changed mid-migration")
		}
		version, err := encodeMeta(newMeta, ts)
		if err != nil {
			return err
		}
		return e.b.meta.Put(e.dc, row, version)
	}); err != nil {
		e.deleteChunks(newMeta)
		return err
	}
	e.deleteChunks(meta)
	e.invalidateCached(meta)
	return nil
}

// VerifyObject checks that an object's stored chunks are sufficient,
// decode to the stored per-stripe checksums and are parity-consistent
// across every stripe, returning the minimum number of reachable chunks
// over the stripes. Verification reads every reachable chunk from its
// provider (never the stripe cache — a cached stripe proves nothing
// about chunk health).
func (e *Engine) VerifyObject(ctx context.Context, container, key string) (reachable int, err error) {
	meta, err := e.Head(ctx, container, key)
	if err != nil {
		return 0, err
	}
	l, err := e.layoutOf(meta)
	if err != nil {
		return 0, err
	}
	n := len(meta.Chunks)
	// Fewer than m reachable is reported by the fetch, with the count.
	order, _ := l.rank(meta.Size, nil)
	// Per-stripe reachable counts; a stripe never read, or cut short by
	// another stripe's failure, does not lower the minimum.
	got := make([]int, l.stripes)
	for s := range got {
		got[s] = n
	}
	p := e.b.newStripePipe(ctx, nil, e.b.cfg.ReadParallelism, 0, l.stripes,
		func(ctx context.Context, s int) (func() (stripeOut, error), error) {
			return func() (stripeOut, error) {
				_, chunks, g, err := e.fetch(ctx, l, s, order, len(order))
				if ctx.Err() == nil {
					got[s] = g
				}
				if err == nil && g == n {
					var ok bool
					if ok, err = l.coder.Verify(chunks); err == nil && !ok {
						err = ErrChecksum
					}
				}
				return stripeOut{}, err
			}, nil
		})
	err = p.drain()
	return slices.Min(got), err
}

// splitObjectName parses "container/key" (keys may contain slashes).
func splitObjectName(obj string) (container, key string, ok bool) {
	i := strings.IndexByte(obj, '/')
	if i <= 0 || i == len(obj)-1 {
		return "", "", false
	}
	return obj[:i], obj[i+1:], true
}
