package engine

import (
	"context"
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
	Scanned      int // objects of A (accessed since the last round) examined; all unless ctx ended
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

// Optimize runs one optimization procedure: a leader elected among all
// engines retrieves the set A of objects accessed since the last round,
// splits it evenly across engines, and each engine recomputes placement
// only for objects whose access trend changed (§III-A3). Migration
// happens only when the projected savings over the decision period
// exceed the migration cost. Cancelling ctx stops the shard scans;
// objects not yet examined are picked up by a later round.
func (b *Broker) Optimize(ctx context.Context) (OptimizeReport, error) {
	planner0 := b.planner.Stats()
	leader, scanned, sum, _, err := b.pass(ctx, "optimize", trigger{gated: true}, &b.optimized, func(now int64) []string {
		b.mu.Lock()
		since := b.lastOpt
		b.lastOpt = now
		b.mu.Unlock()
		return b.statsDB.AccessedSince(since)
	})
	planner1 := b.planner.Stats()
	return OptimizeReport{
		Leader: leader, Scanned: scanned, TrendChanged: sum.trendChanged,
		Recomputed: sum.recomputed, Migrated: sum.migrated,
		MigrationUSD: sum.migrationUSD, Evaluated: sum.evaluated,
		PlannerHits:   planner1.Hits - planner0.Hits,
		PlannerMisses: planner1.Misses - planner0.Misses,
	}, err
}

// outcome is what one run of the per-object step did. Shards, passes and
// the lifetime totals sum it with add; every report is a view of a sum.
type outcome struct {
	checked, affected, waited          int // Repair's admission counts
	trendChanged, recomputed, migrated int
	swapped, restriped                 int
	skipped                            [skipReasons]int // Repair's unrepaired, by why
	evaluated                          int              // candidate sets priced
	migrationUSD                       float64
	chunks                             int // replacement chunks repairs wrote
	bytes                              int64
}

func (o *outcome) add(x outcome) {
	o.checked += x.checked
	o.affected += x.affected
	o.waited += x.waited
	o.trendChanged += x.trendChanged
	o.recomputed += x.recomputed
	o.migrated += x.migrated
	o.swapped += x.swapped
	o.restriped += x.restriped
	for why, n := range x.skipped {
		o.skipped[why] += n
	}
	o.evaluated += x.evaluated
	o.migrationUSD += x.migrationUSD
	o.chunks += x.chunks
	o.bytes += x.bytes
}

// passTotals sums one kind of pass over the broker's lifetime.
type passTotals struct {
	passes, objects int
	outcome
}

// trigger is what brings a pass to an object, which is also what the
// decision step is told about it. The zero trigger is the event queue's:
// a provider holding a chunk of the object changed, and no gate applies
// — the market moved, not the workload, so the last decision is stale
// whatever the access trend.
type trigger struct {
	// gated admits only objects whose access trend changed (Optimize).
	gated bool
	// degraded admits only objects with a chunk at an unreachable
	// provider (Repair); active repairs them, otherwise they wait out the
	// outage.
	degraded, active bool
}

// pass is the one maintenance driver, under all three triggers — Optimize,
// Repair and the market-event queue's drain (Fig. 7, steps 1-4): the
// leader lists the pass's objects, splits them evenly across the engines,
// and each engine runs the per-object step over its share in parallel.
// The summed outcome is also folded into the lifetime totals tot. The
// leader is the engine with the lowest id — a deterministic stand-in for
// the paper's leader election among engines of all datacenters. A pass
// cut short by ctx counts as objects only the steps it finished; rest
// holds the others, and err is ctx's.
func (b *Broker) pass(ctx context.Context, stage string, t trigger, tot *passTotals,
	list func(now int64) []string) (leader string, objects int, sum outcome, rest []string, err error) {
	defer b.observeStage(obs.TraceFrom(ctx), stage, time.Now())
	leader = b.engines[0].id // engines are numbered from 0
	now := b.clock.Period()
	objs := list(now)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, shard := range shardObjects(objs, len(b.engines)) {
		if len(shard) == 0 {
			continue
		}
		wg.Add(1)
		go func(e *Engine, shard []string) {
			defer wg.Done()
			var local outcome
			done := 0
			for ; done < len(shard) && ctx.Err() == nil; done++ {
				noteProgress(ctx, 1)
				local.add(e.maintainObject(ctx, shard[done], now, t))
			}
			if ctx.Err() != nil && done > 0 {
				done-- // the last step may have been cut short: it goes back too
			}
			mu.Lock()
			sum.add(local)
			objects += done
			rest = append(rest, shard[done:]...)
			mu.Unlock()
		}(b.engines[i], shard)
	}
	wg.Wait()
	b.mu.Lock()
	tot.passes++
	tot.objects += objects
	tot.add(sum)
	b.mu.Unlock()
	return leader, objects, sum, rest, ctx.Err()
}

// shardObjects splits the object list round-robin across n workers.
func shardObjects(objs []string, n int) [][]string {
	shards := make([][]string, n)
	for i, obj := range objs {
		shards[i%n] = append(shards[i%n], obj)
	}
	return shards
}

// maintainObject is the per-object step every trigger shares: admit the
// object (t), Head it, resolve its rule (the one its version pins
// first), let core.Decider.Decide — the step the cost simulator runs
// too — say what to do, and execute that: migrate, swap the lost chunks,
// re-stripe, or leave it.
func (e *Engine) maintainObject(ctx context.Context, obj string, now int64, t trigger) (out outcome) {
	// The trend gate compares the SMA of the last w periods of the
	// object's recorded history against the SMA of the w before.
	h := e.b.statsDB.History(obj)
	if t.gated {
		if h == nil || !trend.Changed(h.OpsSeries(now, trend.DefaultWindow+1), trend.DefaultWindow, trend.DefaultLimit) {
			return out
		}
		out.trendChanged = 1
	}
	container, key, ok := splitObjectName(obj)
	if !ok {
		return out
	}
	row := RowKey(container, key)
	stored, err := e.rowMeta(row)
	if err != nil {
		return out
	}
	out.checked = 1
	// Chunks a read found rotten come first, whatever brought the pass
	// here; the step then goes on with the healed row.
	if e.healRot(ctx, obj, *stored, &out) {
		if stored, err = e.rowMeta(row); err != nil {
			return out
		}
	}
	meta := *stored // the stored version's fields, its slices shared: read only
	view := e.b.marketView(now)
	why := core.CostDriven
	if t.degraded {
		if !slices.ContainsFunc(meta.Chunks, func(name string) bool { return !view.Lists(name) }) {
			return out
		}
		out.affected = 1
		if !t.active {
			out.waited = 1
			return out
		}
		why = core.Repairing
	}
	if h == nil {
		if why != core.Repairing {
			return out // its first write event is still in the log pipeline
		}
		h = stats.NewHistory(0) // repair it on its storage cost alone
	}

	rule := e.b.rules.Resolve(container, meta.Rule)
	// A rule this market cannot satisfy has no search; Decide keeps the
	// object (a repair may still find a swap).
	search, _ := e.b.planner.Search(view.Epoch, view.Specs, rule)
	// Staying put is priced against the live market: the stored chunk
	// locations with the registry's current price sheets, so a provider
	// that raised its prices makes its objects look as expensive as they
	// now are.
	dec := e.b.decider.Decide(core.Object{
		History: h, Ctl: e.b.controller(obj, meta, now),
		Size: meta.Size, FitBytes: meta.Size,
		Current: e.b.livePlacement(meta.M, meta.Chunks),
		TTL:     e.ttlPeriods(obj, meta, now),
	}, view, rule, search, why)
	out.recomputed = 1
	out.evaluated = dec.Evaluated

	err = errNoPlan // Keep
	switch dec.Action {
	case core.Migrate:
		if err = e.migrate(ctx, meta, dec.Target); err == nil {
			out.migrated, out.migrationUSD = 1, dec.MigrationCost
		}
	case core.Restripe:
		if err = e.migrate(ctx, meta, dec.Target); err == nil {
			out.restriped = 1
			out.chunks, out.bytes = chunkVolume(meta, dec.Target.M, dec.Target.N())
		}
	case core.Swap:
		var sw *swap
		if sw, err = e.planSwap(meta, dec.Target, dec.Replaced); err != nil {
			err = fmt.Errorf("%w: %w", errNoPlan, err)
		} else {
			err = e.swapRepair(ctx, sw, &out)
		}
	}
	// A degraded object with no feasible plan, or whose repair failed (a
	// survivor or target died mid-copy, rot) or lost its commit to a
	// write, stays degraded, which the report must show, and why. It is
	// still indexed on the dead provider, so the next repair pass plans it
	// again on the market as it is then. A cancelled pass counts nothing.
	if err != nil && why == core.Repairing && ctx.Err() == nil {
		out.skipped[skipReasonOf(err)]++
	}
	return out
}

// controller returns the object's decision-period controller, creating
// it on first use. D is seeded from the class's expected lifetime when
// available: a short-lived class should not be optimized with a long
// horizon.
func (b *Broker) controller(obj string, meta ObjectMeta, now int64) *core.DecisionController {
	b.mu.Lock()
	defer b.mu.Unlock()
	ctl, ok := b.decisions[obj]
	if !ok {
		initial := b.cfg.DecisionPeriod
		if ttl, ok := b.statsDB.Classes().ExpectedTTL(meta.Class, b.statsDB.AgeHours(obj, now)); ok {
			if p := int(ttl / b.cfg.PeriodHours); p >= core.MinDecisionPeriod && p < initial {
				initial = p
			}
		}
		ctl = core.NewDecisionController(initial, 0)
		b.decisions[obj] = ctl
	}
	return ctl
}

// ttlPeriods resolves the object's time left to live in sampling
// periods: the user hint first, then the class lifetime statistics.
func (e *Engine) ttlPeriods(obj string, meta ObjectMeta, now int64) int {
	age := e.b.statsDB.AgeHours(obj, now)
	if meta.TTLHours > 0 {
		return int(max(meta.TTLHours-age, 0) / e.b.cfg.PeriodHours)
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
// The source stream opens the object by name like any reader; a row other
// than the version meta planned from (another UUID, or a swap's new Gens)
// gives the object up before the stream begins, at no stripe fetch. The
// commit re-keys the source version's cached stripes to the new one and
// retires the source; its chunks go once the source stream, which pins the
// object like any reader, is closed.
func (e *Engine) migrate(ctx context.Context, meta ObjectMeta, to core.Placement) error {
	src, err := e.openObject(ctx, meta.Container, meta.Key, false)
	if err != nil {
		return fmt.Errorf("engine: migrate read: %w", err)
	}
	defer src.Close()
	if src.meta.UUID != meta.UUID || !slices.Equal(src.meta.Gens, meta.Gens) {
		return fmt.Errorf("engine: migrate: %w before the copy began", errRowChanged)
	}
	if err := src.begin(ctx, 0, -1, false); err != nil {
		return fmt.Errorf("engine: migrate read: %w", err)
	}
	newMeta := meta
	newMeta.UUID = NewUUID()
	newMeta.SKey = StorageKey(meta.Container, meta.Key, newMeta.UUID)
	newMeta.M = to.M
	newMeta.Chunks = e.b.slotNames(to, meta.stripeLen(0))
	newMeta.Gens = nil // fresh keys under a fresh UUID: nothing to tell apart
	l, err := e.layoutOf(newMeta)
	if err != nil {
		return err
	}
	if err := e.writeStripes(ctx, l, src); err != nil {
		return fmt.Errorf("engine: migrate write: %w", err)
	}
	// End-to-end check of the copy: every stripe's payload sum must come
	// out as stored. The chunk sums are the destination's own: a new
	// (m, n) cuts different chunks. The ETag token is carried over: the
	// object did not change.
	newMeta.Sums = l.sums
	samePayload := func(a, b StripeSum) bool { return a.Payload == b.Payload }
	if !slices.EqualFunc(l.sums, meta.Sums, samePayload) {
		e.discard(l, l.stripes, l.all)
		return fmt.Errorf("engine: migrate: %w", ErrChecksum)
	}
	// Commit only if the version we migrated is still the live one: a
	// client write (or delete) that landed while the chunks were copying
	// must win — a background migration may never clobber an acknowledged
	// update or resurrect a tombstone.
	if _, err := e.publish(meta.Container, meta.Key, nil, func(cur *ObjectMeta) (*ObjectMeta, error) {
		if cur == nil || cur.UUID != meta.UUID {
			return nil, fmt.Errorf("engine: migrate: %w", errRowChanged)
		}
		return &newMeta, nil // its token is cur's: the cached stripes are re-keyed
	}); err != nil {
		e.discard(l, l.stripes, l.all)
		return err
	}
	return nil
}

// splitObjectName parses "container/key" (keys may contain slashes).
func splitObjectName(obj string) (container, key string, ok bool) {
	i := strings.IndexByte(obj, '/')
	if i <= 0 || i == len(obj)-1 {
		return "", "", false
	}
	return obj[:i], obj[i+1:], true
}
