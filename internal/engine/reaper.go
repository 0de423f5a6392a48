package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"scalia/internal/cloud"
)

// This file is the reaper: the broker-owned background deleter of
// retired object versions, and the reader pins that hold it off.
//
// A version is retired by Engine.publish once the row that superseded it
// (or its tombstone) has replicated, or by the metadata read that
// collapsed an MVCC conflict it lost (Fig. 10). Its chunk keys carry its
// UUID and are never written again, so deleting them needs no
// coordination with any writer — only with readers: every objectReader
// pins its version for its lifetime, and a retired version is taken only
// at pin count zero. The commit that retired it does not wait: deletion
// is allowed to lag (§III-D3 postpones it outright), and the garbage
// stays visible as scalia_retired_versions / scalia_retired_bytes until
// it is gone. Deletes an unreachable provider refuses fall into the
// broker's postponed set, which the reaper replays on the next market
// event.

// maxRetiredVersions is the retired backlog past which a committing
// request reaps on its own goroutine before it returns — what every
// commit did before the reaper — so overload slows writers down instead
// of growing a queue.
const maxRetiredVersions = 1024

type reaper struct {
	b     *Broker
	bound int // maxRetiredVersions; a test lowers it
	// run serializes reaping passes, the background goroutine's and the
	// synchronous ones of ProcessPendingDeletes and overloaded commits
	// alike: with one pass at a time, and a pass deleting one version at
	// a time, at most one reaper delete is in flight per provider.
	run sync.Mutex

	mu      sync.Mutex
	pins    map[string]int        // version UUID -> open readers
	retired map[string]ObjectMeta // versions waiting for a pass, by UUID
	// n and bytes count the retired versions whose chunks are not gone
	// yet — waiting or being deleted — and their stored volume.
	n     int
	bytes int64

	replay   atomic.Bool   // a market event arrived while deletes were postponed
	wake     chan struct{} // capacity 1: a pending wake-up covers every cause
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

func newReaper(b *Broker) *reaper {
	r := &reaper{
		b: b, bound: maxRetiredVersions,
		pins: make(map[string]int), retired: make(map[string]ObjectMeta),
		wake: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{}),
	}
	go r.loop()
	return r
}

// loop is the background goroutine: woken by a retirement, a released
// pin or a market event, it reaps until nothing unpinned is left and,
// after an event, replays the postponed deletes.
func (r *reaper) loop() {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		case <-r.wake:
		}
		for r.reap() > 0 {
		}
		if r.replay.Swap(false) {
			r.b.replayPending(context.Background())
		}
	}
}

func (r *reaper) kick() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// close stops the background goroutine and reaps what it left, so a
// broker shut down in good order leaves no garbage at reachable
// providers.
func (r *reaper) close() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	for r.reap() > 0 {
	}
}

// onMarketEvent is the registry subscriber. Like the maintenance queue's
// it runs on whatever goroutine changed the market, so it only wakes the
// loop. Any named event qualifies: a recovered provider takes its
// postponed deletes now, one that left the market took its chunks along,
// and one that is down is skipped by the replay.
func (r *reaper) onMarketEvent(ev cloud.MarketEvent) {
	if ev.Provider != "" && r.b.pendingN.Load() > 0 {
		r.replay.Store(true)
		r.kick()
	}
}

// retire hands a version no row points at any more to the reaper and
// drops its stripes from every datacenter's cache. It makes no provider
// call and may run under a row lock; it reports whether the backlog has
// passed its bound, in which case the caller — once it holds no lock —
// should reap.
func (r *reaper) retire(meta ObjectMeta) (overloaded bool) {
	r.b.caches.InvalidateAll(stripeCacheID(objectName(meta.Container, meta.Key), meta.UUID))
	r.mu.Lock()
	if _, queued := r.retired[meta.UUID]; !queued {
		r.retired[meta.UUID] = meta
		r.n++
		r.bytes += storedBytes(meta)
	}
	overloaded = r.n > r.bound
	r.mu.Unlock()
	r.kick()
	return overloaded
}

// storedBytes is the volume a version's chunks occupy at its providers.
func storedBytes(meta ObjectMeta) int64 {
	_, bytes := chunkVolume(meta, meta.M, len(meta.Chunks))
	return bytes
}

// pin holds a version's chunks for one reader. The caller must then
// check that the version is still the live one (openObjectRange): a pin
// taken after the version was retired holds nothing.
func (r *reaper) pin(uuid string) {
	r.mu.Lock()
	r.pins[uuid]++
	r.mu.Unlock()
}

// unpin releases one reader's hold; the last one out wakes the reaper if
// the version was retired meanwhile.
func (r *reaper) unpin(uuid string) {
	r.mu.Lock()
	waiting := false
	if r.pins[uuid]--; r.pins[uuid] == 0 {
		delete(r.pins, uuid)
		_, waiting = r.retired[uuid]
	}
	r.mu.Unlock()
	if waiting {
		r.kick()
	}
}

// reap is one pass: it takes every retired version no reader holds and
// deletes them through dropChunks, one version after another, the chunk
// slots of a version — each at a provider of its own — in parallel. It
// reports how many versions it took; a version stays counted as retired
// until its deletes have landed or been postponed.
func (r *reaper) reap() int {
	r.run.Lock()
	defer r.run.Unlock()
	r.mu.Lock()
	var take []ObjectMeta
	for uuid, meta := range r.retired {
		if r.pins[uuid] == 0 {
			take = append(take, meta)
			delete(r.retired, uuid)
		}
	}
	r.mu.Unlock()
	e := r.b.engines[0]
	for _, meta := range take {
		l, _ := e.layoutOf(meta) // deleting needs no coder
		var wg sync.WaitGroup
		for i := range l.all {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				e.dropChunks(l, l.stripes, l.all[i:i+1], nil)
			}(i)
		}
		wg.Wait()
		r.mu.Lock()
		r.n--
		r.bytes -= storedBytes(meta)
		r.mu.Unlock()
	}
	return len(take)
}

// RetiredStats is the reaper's snapshot: the superseded versions whose
// chunks are still at their providers — the reclaim lag — and the
// versions open readers hold.
type RetiredStats struct {
	Versions int   `json:"versions"`
	Bytes    int64 `json:"bytes"`
	Pinned   int   `json:"pinned"`
}

// Retired returns the reaper's snapshot.
func (b *Broker) Retired() RetiredStats {
	r := b.reaper
	r.mu.Lock()
	defer r.mu.Unlock()
	return RetiredStats{Versions: r.n, Bytes: r.bytes, Pinned: len(r.pins)}
}

// ProcessPendingDeletes is the synchronous settle point of deletion: it
// returns once every retired version no reader holds has had its chunks
// deleted at the reachable providers, no reaper delete is in flight, and
// every postponed delete whose provider is reachable again has been
// replayed. It reports how many postponed deletes have completed since
// the previous call, the reaper's own replays included. Cancelling ctx
// stops it between passes; what is left stays queued.
func (b *Broker) ProcessPendingDeletes(ctx context.Context) int {
	for ctx.Err() == nil && b.reaper.reap() > 0 {
	}
	b.replayPending(ctx)
	return int(b.replayed.Swap(0))
}

// replayPending retries the postponed deletes of every provider that is
// reachable again. pendMu is held across each delete: swap repair writes
// under chunk keys a postponed delete may name, and cancelPendingDelete
// must either remove the entry first or wait until the delete has landed.
func (b *Broker) replayPending(ctx context.Context) {
	b.pendMu.Lock()
	queued := make([]pendingDelete, 0, len(b.pending))
	for pd := range b.pending {
		queued = append(queued, pd)
	}
	b.pendMu.Unlock()

	for _, pd := range queued {
		// A provider that left the market took its chunks along.
		store, registered := b.registry.Store(pd.Provider)
		if ctx.Err() != nil || (registered && !store.Available()) {
			continue
		}
		b.pendMu.Lock()
		if _, still := b.pending[pd]; still {
			var err error
			if registered {
				t0 := time.Now()
				err = store.Delete(ctx, pd.ChunkKey)
				b.observeProviderOp(pd.Provider, "delete", t0, err)
			}
			if err == nil || errors.Is(err, cloud.ErrNotFound) { // a missing chunk is already gone
				delete(b.pending, pd)
				b.pendingN.Store(int64(len(b.pending)))
				b.replayed.Add(1)
			}
		}
		b.pendMu.Unlock()
	}
}
