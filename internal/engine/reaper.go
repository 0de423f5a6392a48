package engine

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"scalia/internal/cloud"
)

// This file is the reaper: the broker-owned background deleter of every
// chunk no metadata row names any more — the broker's one garbage list —
// and the reader pins that hold it off.
//
// Chunks are retired as a set: a superseded version's, by Engine.publish
// once the row that superseded it (or its tombstone) has replicated, or by
// the metadata read that collapsed an MVCC conflict it lost (Fig. 10); the
// copies a swap or heal replaced; what a write that never committed left
// behind. No key is ever written twice (writeChunks), so deleting a set
// needs no coordination with any writer — only with readers: every
// objectReader pins its object for its lifetime, and a set is taken only
// once the readers of its object opened before its retirement are gone.
// Whoever retired it does not wait: deletion may lag (§III-D3 postpones it
// outright), and the garbage shows as scalia_retired_versions /
// scalia_retired_bytes until a pass has been over it, and what a provider
// still holds then — it was down, or refused — as scalia_pending_deletes,
// tried again on the next market event and at every ProcessPendingDeletes.

// maxRetiredVersions is the retired backlog past which a committing
// request reaps on its own goroutine before it returns — what every
// commit did before the reaper — so overload slows writers down instead
// of growing a queue.
const maxRetiredVersions = 1024

// retiredChunks is how many retired chunks the reaper remembers.
const retiredChunks = 4 * maxRetiredVersions

// chunkSet is the reaper's unit: stripes [0, upto) of a layout at some of
// its slots.
type chunkSet struct {
	l     *stripeLayout
	upto  int
	slots []int
	// pin names the object whose readers may hold the chunks ("" when no
	// row ever named them): those with a ticket up to seq, the last one
	// drawn before the set was retired.
	pin string
	seq uint64
	// bytes is the stored volume of a whole superseded version (0 for any
	// other set): RetiredStats counts it until the first pass over it.
	bytes int64
	// left counts the deletes the last pass left behind, at the slots still
	// listed; 0 for a set no pass has been over.
	left int
}

type reaper struct {
	b     *Broker
	bound int // maxRetiredVersions; a test lowers it
	// run serializes reaping passes, the background goroutine's and the
	// synchronous ones of ProcessPendingDeletes and overloaded commits
	// alike: with one pass at a time, and a pass deleting one set at a
	// time, at most one reaper delete is in flight per provider.
	run sync.Mutex

	mu   sync.Mutex
	seq  uint64              // the last reader ticket drawn
	pins map[string][]uint64 // object name -> tickets of its open readers, ascending
	// Retired and not gone: fresh sets wait for their first pass, behind
	// ones a pass left deletes of, and only a retry pass visits those.
	fresh, behind []*chunkSet
	// n and bytes count the superseded versions no pass has been over yet
	// — waiting or being deleted — and their stored volume.
	n     int
	bytes int64
	// postponed sums left over the sets, settled the postponed deletes
	// completed since ProcessPendingDeletes last reported.
	postponed, settled int
	// seen holds the stripe-0 chunk of each slot retired lately, the last
	// retiredChunks of them in ring (next is the oldest), so a slot retired
	// twice is deleted and counted once: a healed conflict's loser is
	// retired by every datacenter whose read collapses the conflict, and
	// one may read it long after another's deletes are done.
	seen map[chunkID]struct{}
	ring []chunkID
	next int

	retry atomic.Bool   // a market event arrived while deletes were postponed
	wake  chan struct{} // capacity 1: a pending wake-up covers every cause
}

func newReaper(b *Broker) *reaper {
	return &reaper{b: b, bound: maxRetiredVersions, pins: make(map[string][]uint64), wake: make(chan struct{}, 1),
		seen: make(map[chunkID]struct{}), ring: make([]chunkID, retiredChunks)}
}

// loop is the background goroutine, run for the broker's lifetime: every
// wake-up — a retirement, a released pin, a market event — is one pass,
// which after an event goes over the postponed deletes too. What arrives
// during a pass leaves a wake-up behind; a pass that got nowhere is not
// repeated before the next. Close makes the last pass once loop is gone.
func (r *reaper) loop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-r.wake:
			r.reap(r.retry.Swap(false))
		}
	}
}

func (r *reaper) kick() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// onMarketEvent is the registry subscriber. Like the maintenance queue's
// it runs on whatever goroutine changed the market, so it only wakes the
// loop. Any named event qualifies: a recovered provider takes its deletes
// now, one that left took its chunks along, one that is down is not asked.
func (r *reaper) onMarketEvent(ev cloud.MarketEvent) {
	if ev.Provider != "" && r.b.PendingDeletes() > 0 {
		r.retry.Store(true)
		r.kick()
	}
}

// retire hands chunks no row names any more to the reaper; slots retired
// before are dropped, and so is a set left with none. It makes no
// provider call and may run under a row lock; it reports whether the
// version backlog has passed its bound: the caller, lock-free, should reap.
func (r *reaper) retire(cs *chunkSet) (overloaded bool) {
	r.mu.Lock()
	if cs.slots = r.unseen(cs.l, cs.slots); len(cs.slots) == 0 {
		r.mu.Unlock()
		return false
	}
	cs.seq = r.seq
	r.fresh = append(r.fresh, cs)
	if cs.bytes > 0 {
		r.n++
		r.bytes += cs.bytes
	}
	overloaded = r.n > r.bound
	r.mu.Unlock()
	r.kick()
	return overloaded
}

// unseen returns the slots whose stripe-0 chunk no set retired before,
// and remembers them. It allocates only when it drops a slot: slots may be
// the layout's own.
func (r *reaper) unseen(l *stripeLayout, slots []int) []int {
	var keep []int
	for j, i := range slots {
		id := chunkID{skey: l.skey, slot: i}
		if i < len(l.gens) {
			id.gen = l.gens[i]
		}
		if _, dup := r.seen[id]; dup {
			if keep == nil {
				keep = append(make([]int, 0, len(slots)), slots[:j]...)
			}
			continue
		}
		if keep != nil {
			keep = append(keep, i)
		}
		delete(r.seen, r.ring[r.next])
		r.ring[r.next], r.seen[id] = id, struct{}{}
		r.next = (r.next + 1) % len(r.ring)
	}
	if keep == nil {
		return slots
	}
	return keep
}

// retireVersion retires a version no row points at any more and drops its
// stripes from every datacenter's cache.
func (e *Engine) retireVersion(meta ObjectMeta) (overloaded bool) {
	e.b.caches.InvalidateAll(meta.cacheID())
	l, _ := e.layoutOf(meta) // deleting needs no coder
	return e.b.reaper.retire(&chunkSet{l: l, upto: l.stripes, slots: l.all, pin: l.obj, bytes: storedBytes(meta)})
}

// discard retires chunks no row ever named: the rollback of a write or a
// swap that did not commit, and the staged parts an upload leaves behind.
func (e *Engine) discard(l *stripeLayout, upto int, slots []int) {
	e.b.reaper.retire(&chunkSet{l: l, upto: upto, slots: slots})
}

// storedBytes is the volume a version's chunks occupy at its providers.
func storedBytes(meta ObjectMeta) int64 {
	_, bytes := chunkVolume(meta, meta.M, len(meta.Chunks))
	return bytes
}

// pin holds an object's chunks for one reader and returns the ticket to
// release them with. It holds what is retired after it, not before: the
// caller reads the object's row after it.
func (r *reaper) pin(obj string) (ticket uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	r.pins[obj] = append(r.pins[obj], r.seq)
	return r.seq
}

// unpin releases one reader's hold; when it was the object's oldest and
// chunks retired from under that object are waiting, the reaper wakes.
func (r *reaper) unpin(obj string, ticket uint64) {
	r.mu.Lock()
	open := r.pins[obj]
	i := slices.Index(open, ticket)
	if open = slices.Delete(open, i, i+1); len(open) == 0 {
		delete(r.pins, obj)
	} else {
		r.pins[obj] = open
	}
	waiting := i == 0 && slices.ContainsFunc(r.fresh, func(cs *chunkSet) bool { return cs.pin == obj })
	r.mu.Unlock()
	if waiting {
		r.kick()
	}
}

// reap is one pass: it takes every set no reader holds — with retry, also
// those an earlier pass left deletes of — and deletes them through
// dropChunks, one set after another. A set some of whose chunks are still
// there goes back on the list with the slots that hold them. It reports
// how many sets it took; a version counts as retired until its pass ends.
func (r *reaper) reap(retry bool) int {
	r.run.Lock()
	defer r.run.Unlock()
	r.mu.Lock()
	var take []*chunkSet
	free := func(cs *chunkSet) bool { // DeleteFunc asks once per set
		if open := r.pins[cs.pin]; len(open) > 0 && open[0] <= cs.seq {
			return false
		}
		take = append(take, cs)
		return true
	}
	r.fresh = slices.DeleteFunc(r.fresh, free)
	if retry {
		r.behind = slices.DeleteFunc(r.behind, free)
	}
	r.mu.Unlock()
	for _, cs := range take {
		was := cs.left
		cs.slots, cs.left = r.b.dropChunks(cs.l, cs.upto, cs.slots)
		r.mu.Lock()
		if was == 0 && cs.bytes > 0 { // a version's first pass
			r.n--
			r.bytes -= cs.bytes
		}
		r.postponed += cs.left - was
		r.settled += max(0, was-cs.left)
		if cs.left > 0 {
			r.behind = append(r.behind, cs)
		}
		r.mu.Unlock()
	}
	return len(take)
}

// RetiredStats is the reaper's snapshot: the superseded versions a pass
// has yet to go over and their stored bytes — the reclaim lag — and the
// objects open readers pin.
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

// PendingDeletes returns the number of postponed chunk deletions: those a
// reaper pass left behind an unreachable or failing provider.
func (b *Broker) PendingDeletes() int {
	b.reaper.mu.Lock()
	defer b.reaper.mu.Unlock()
	return b.reaper.postponed
}

// ProcessPendingDeletes is the synchronous settle point of deletion: it
// returns once every retired set no reader holds has had its chunks
// deleted at the reachable providers, no reaper delete is in flight, and
// every postponed delete has been tried again. It reports how many
// postponed deletes have completed since the previous call, the reaper's
// own retries included. Cancelling ctx stops it between passes; what is
// left stays queued.
func (b *Broker) ProcessPendingDeletes(ctx context.Context) int {
	r := b.reaper
	for ctx.Err() == nil && r.reap(false) > 0 {
	}
	r.reap(true)
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.settled
	r.settled = 0
	return n
}
