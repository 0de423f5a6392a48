package engine

import (
	"context"
	"sync"

	"scalia/internal/cloud"
)

// This file is the event-driven reoptimization queue: the O(affected)
// replacement for periodic full scans. A subscriber to cloud.Registry
// market events looks up — through the provider→objects inverted index —
// exactly the objects whose cached placement decision the event
// invalidated (they hold a chunk on the changed provider) and enqueues
// them. A read that rejected a rotten chunk enqueues its object the same
// way (Broker.noteRot). The queue is a deduplicated, depth-bounded set; a
// drain takes all of it and re-plans it in one Broker.pass with the zero
// trigger, the driver Optimize and Repair run, sharded over every
// engine: DrainMaintenance on request, the background drain
// (Config.ReoptWorkers > 0) whenever something is enqueued. What a pass
// cut short did not get through goes back in the queue.
//
// Scope note: a price *drop* on a provider an object is NOT placed on
// can also make its placement suboptimal. Those opportunities are not
// invalidations of a cached decision and stay with the periodic
// trend-gated Optimize pass; the queue only guarantees that no object
// keeps a placement whose inputs changed.

// MaintStats is the maintenance-queue counter snapshot, served on
// GET /v1/stats and mirrored on /metrics.
type MaintStats struct {
	// QueueDepth is the number of invalidated objects waiting right now.
	QueueDepth int `json:"queueDepth"`
	// Workers is Config.ReoptWorkers: above 0 the queue drains in the
	// background (0 = manual drain).
	Workers int `json:"workers"`
	// Enqueued counts objects accepted into the queue since start.
	Enqueued int64 `json:"enqueued"`
	// Drained counts objects re-planned (by the background drain or
	// DrainMaintenance); what a pass cut short put back is not counted.
	Drained int64 `json:"drained"`
	// Dropped counts invalidations discarded because the queue was full;
	// the periodic Optimize pass is the backstop that revisits them.
	Dropped int64 `json:"dropped"`
	// Migrated counts drained objects that actually moved.
	Migrated int64 `json:"migrated"`
	// Events counts market events received from the registry.
	Events int64 `json:"events"`
}

type maintQueue struct {
	b     *Broker
	depth int
	kick  chan struct{} // capacity 1: wakes the background drain

	mu     sync.Mutex
	queue  []string // the set, in arrival order
	queued map[string]struct{}
	taken  int // objects a pass holds right now

	enqueued, dropped, events int64
}

func newMaintQueue(b *Broker, depth int) *maintQueue {
	return &maintQueue{b: b, depth: depth, kick: make(chan struct{}, 1), queued: make(map[string]struct{})}
}

// onMarketEvent is the registry subscriber: it runs synchronously on
// whatever goroutine mutated the market, so it only does index lookup
// and queue bookkeeping — never provider I/O.
func (m *maintQueue) onMarketEvent(ev cloud.MarketEvent) {
	if ev.Provider == "" {
		return
	}
	// The invalidated set: objects with at least one chunk on the
	// changed provider. A freshly registered provider indexes nothing,
	// so registration events are naturally free.
	objs := m.b.provIndex.Objects(ev.Provider)
	m.mu.Lock()
	m.events++
	m.mu.Unlock()
	m.enqueue(objs...)
}

// enqueue queues the objects not already waiting, counting the ones a
// full queue turns away, and wakes the background drain if anything waits.
func (m *maintQueue) enqueue(objs ...string) {
	m.mu.Lock()
	m.enqueued += int64(m.add(objs))
	waiting := len(m.queue) > 0
	m.mu.Unlock()
	if waiting {
		select {
		case m.kick <- struct{}{}:
		default:
		}
	}
}

// add puts the objects not already waiting in the set, as far as depth
// allows, and reports how many it took in. m.mu is held.
func (m *maintQueue) add(objs []string) int {
	n := 0
	for _, obj := range objs {
		if _, dup := m.queued[obj]; dup {
			continue
		}
		if len(m.queue) >= m.depth {
			m.dropped++
			continue
		}
		m.queued[obj] = struct{}{}
		m.queue = append(m.queue, obj)
		n++
	}
	return n
}

// drain re-plans everything queued in one pass and reports how many
// objects it re-planned; what a pass cut short did not get through goes
// back. Safe to run alongside the background drain: each takes what is there.
func (m *maintQueue) drain(ctx context.Context) int {
	var took []string
	_, n, _, rest, _ := m.b.pass(ctx, "maint", trigger{}, &m.b.drained, func(int64) []string {
		m.mu.Lock()
		defer m.mu.Unlock()
		took, m.queue = m.queue, nil
		clear(m.queued)
		m.taken += len(took)
		return took
	})
	m.mu.Lock()
	defer m.mu.Unlock()
	m.taken -= len(took)
	m.add(rest)
	return n
}

// background is the drain ReoptWorkers > 0 runs for the broker's
// lifetime: a pass at every wake-up, which an enqueue leaves behind —
// also one during a pass.
func (m *maintQueue) background(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-m.kick:
			m.drain(ctx)
		}
	}
}

// MaintStats returns the maintenance-queue counter snapshot.
func (b *Broker) MaintStats() MaintStats {
	b.mu.Lock()
	t := b.drained
	b.mu.Unlock()
	m := b.maint
	m.mu.Lock()
	defer m.mu.Unlock()
	return MaintStats{
		QueueDepth: len(m.queue),
		Workers:    max(b.cfg.ReoptWorkers, 0),
		Enqueued:   m.enqueued,
		Drained:    int64(t.objects),
		Dropped:    m.dropped,
		Migrated:   int64(t.migrated),
		Events:     m.events,
	}
}
