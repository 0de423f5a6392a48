package engine

import (
	"context"
	"sync"
	"time"

	"scalia/internal/cloud"
)

// This file is the event-driven reoptimization queue: the O(affected)
// replacement for periodic full scans. A subscriber to cloud.Registry
// market events looks up — through the provider→objects inverted index —
// exactly the objects whose cached placement decision the event
// invalidated (they hold a chunk on the changed provider) and enqueues
// them. A read that rejected a rotten chunk enqueues its object the same
// way (Broker.noteRot). A bounded worker pool (Config.ReoptWorkers)
// drains the queue through the per-object step the periodic optimizer
// and repair run (Engine.maintainObject, the zero trigger); deployments
// without workers drain explicitly via Broker.DrainMaintenance.
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
	// Workers is the configured background drain pool size (0 = manual
	// drain).
	Workers int `json:"workers"`
	// Enqueued counts objects accepted into the queue since start.
	Enqueued int64 `json:"enqueued"`
	// Drained counts objects re-planned (by workers or DrainMaintenance).
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
	b       *Broker
	workers int
	depth   int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []string
	queued   map[string]struct{}
	inflight int
	closed   bool
	enqueued int64
	drained  int64
	dropped  int64
	migrated int64
	events   int64
}

func newMaintQueue(b *Broker, workers, depth int) *maintQueue {
	if workers < 0 {
		workers = 0
	}
	m := &maintQueue{
		b:       b,
		workers: workers,
		depth:   depth,
		queued:  make(map[string]struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	m.ctx, m.cancel = context.WithCancel(context.Background())
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
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
// full queue turns away, and wakes the workers.
func (m *maintQueue) enqueue(objs ...string) {
	m.mu.Lock()
	if !m.closed {
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
			m.enqueued++
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}

// worker drains the queue until close, sleeping while it is empty.
func (m *maintQueue) worker() {
	defer m.wg.Done()
	for m.step(m.ctx, true) {
	}
}

// drain synchronously processes queued invalidations until the queue is
// empty or ctx is cancelled, returning how many objects it re-planned.
// Safe to run alongside background workers.
func (m *maintQueue) drain(ctx context.Context) int {
	n := 0
	for ctx.Err() == nil && m.step(ctx, false) {
		n++
	}
	return n
}

// step pops the queue head and re-plans it, the one loop body of workers
// and explicit drains. It reports false once there is nothing to do: the
// queue is closed, or empty — which a caller that asked to wait sleeps
// through until the next event.
func (m *maintQueue) step(ctx context.Context, wait bool) bool {
	m.mu.Lock()
	for wait && len(m.queue) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.queue) == 0 || m.closed {
		m.mu.Unlock()
		return false
	}
	obj := m.queue[0]
	m.queue = m.queue[1:]
	if len(m.queue) == 0 {
		m.queue = nil // let the backing array go once drained
	}
	delete(m.queued, obj)
	m.inflight++
	m.mu.Unlock()

	out := m.b.NextEngine().maintainObject(ctx, obj, m.b.clock.Period(), trigger{})

	m.mu.Lock()
	m.inflight--
	m.drained++
	m.migrated += int64(out.migrated)
	m.cond.Broadcast()
	m.mu.Unlock()
	return true
}

// waitIdle blocks until the queue is empty and no object is mid-flight.
func (m *maintQueue) waitIdle(ctx context.Context) error {
	for {
		m.mu.Lock()
		idle := len(m.queue) == 0 && m.inflight == 0
		m.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (m *maintQueue) stats() MaintStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MaintStats{
		QueueDepth: len(m.queue),
		Workers:    m.workers,
		Enqueued:   m.enqueued,
		Drained:    m.drained,
		Dropped:    m.dropped,
		Migrated:   m.migrated,
		Events:     m.events,
	}
}

// close stops the workers (mid-object work is cancelled) and rejects
// further enqueues.
func (m *maintQueue) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
}
