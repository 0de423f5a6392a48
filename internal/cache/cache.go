// Package cache implements Scalia's caching layer (paper §III-B): one
// byte-bounded stripe cache per datacenter, serving popular reads without
// provider traffic, and a cluster wrapper that keeps them coherent. The
// unit is one verified stripe, keyed by (object, stripe index), so a
// partially cached object fetches only its missing stripes.
//
// §III-B requires that no datacenter serve a superseded version. The
// engine names objects here by version (name plus version UUID), so once
// a row names a new version nobody can hit the old one's stripes. Instead
// of dropping them everywhere, a write updates: its commit hands each
// stripe a datacenter holds of the old version over to the new one, with
// the new bytes (Replace), before the old one is retired and what is left
// of it invalidated. A datacenter that held nothing gets nothing, so
// writes never flush hot data.
package cache

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of one cache's (or a whole
// cluster's) counters, serialized onto GET /v1/stats.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`   // cached stripes
	UsedBytes int64 `json:"usedBytes"` // cached byte volume
}

// add folds another snapshot in (cluster aggregation).
func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Entries += o.Entries
	s.UsedBytes += o.UsedBytes
}

// stripeID identifies one cached stripe.
type stripeID struct {
	obj    string
	stripe int
}

// LRU is one datacenter's byte-bounded stripe cache, safe for concurrent
// use. The name stays; the policy is S3-FIFO (Yang et al., SOSP '23): a
// new stripe enters a small FIFO of a tenth of the bytes and leaves it for
// the main FIFO if it was hit there, else for a ghost list of ids — a
// ghost that comes back enters the main FIFO directly. The main FIFO's
// oldest entry is reinserted, one hit the poorer, while it has hits left.
// A hit only bumps a counter, so hits run under a read lock.
type LRU struct {
	mu                   sync.RWMutex
	capacity             int64
	used, smallUsed      int64                       // bytes in both FIFOs, in the small one
	small, main          *list.List                  // front = newest; Values are *entry
	items                map[stripeID]*list.Element  // stripe -> its element in small or main
	byObject             map[string]map[int]struct{} // object -> cached stripe indexes
	ghost                *list.List                  // front = newest; Values are ghostEntry
	ghosts               map[stripeID]*list.Element  // id -> its element in ghost
	ghostBytes           int64                       // what the ghosts held, at most the main FIFO's share
	hits, misses, evicts atomic.Int64
}

type entry struct {
	id   stripeID
	data []byte
	freq atomic.Int32 // hits since it was cached or last reinserted, up to 3
	fifo *list.List   // small or main
}

type ghostEntry struct {
	id   stripeID
	size int64
}

// NewLRU returns a cache bounded to capacity bytes. A non-positive
// capacity yields a disabled cache that stores nothing.
func NewLRU(capacity int64) *LRU {
	return &LRU{
		capacity: capacity, small: list.New(), main: list.New(), ghost: list.New(),
		items:    make(map[stripeID]*list.Element),
		byObject: make(map[string]map[int]struct{}),
		ghosts:   make(map[stripeID]*list.Element),
	}
}

// GetStripe returns the cached stripe itself, read-only to the caller.
// The slice stays valid for as long as the caller holds it: a cached
// stripe's bytes are never written — an overwrite or Replace swaps the
// slice, Invalidate and eviction drop it.
func (c *LRU) GetStripe(obj string, stripe int) ([]byte, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	el, ok := c.items[stripeID{obj, stripe}]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	e := el.Value.(*entry)
	if f := e.freq.Load(); f < 3 {
		e.freq.CompareAndSwap(f, f+1) // a lost race is one hit uncounted
	}
	return e.data, true
}

// PutStripe stores a copy of one stripe, the concatenation of its
// segments (they stay the caller's), evicting as needed. Stripes larger
// than the capacity are not cached.
func (c *LRU) PutStripe(obj string, stripe int, data ...[]byte) {
	if c.capacity <= 0 {
		return
	}
	cp := slices.Concat(data...)
	if int64(len(cp)) > c.capacity {
		return
	}
	id := stripeID{obj, stripe}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[id]; ok { // two reads filled the same stripe
		c.remove(el)
	}
	c.makeRoom(int64(len(cp)))
	e := &entry{id: id, data: cp, fifo: c.small}
	if g, ok := c.ghosts[id]; ok { // back soon after it left
		c.dropGhost(g)
		e.fifo = c.main
	}
	c.index(e.fifo.PushFront(e))
}

// index enters el's entry in the stripe table, the per-object index and
// the byte counts; unindex takes it out again, leaving it in its FIFO.
func (c *LRU) index(el *list.Element) {
	e := el.Value.(*entry)
	c.items[e.id] = el
	if c.byObject[e.id.obj] == nil {
		c.byObject[e.id.obj] = make(map[int]struct{})
	}
	c.byObject[e.id.obj][e.id.stripe] = struct{}{}
	c.used += int64(len(e.data))
	if e.fifo == c.small {
		c.smallUsed += int64(len(e.data))
	}
}

func (c *LRU) unindex(e *entry) {
	delete(c.items, e.id)
	if delete(c.byObject[e.id.obj], e.id.stripe); len(c.byObject[e.id.obj]) == 0 {
		delete(c.byObject, e.id.obj)
	}
	c.used -= int64(len(e.data))
	if e.fifo == c.small {
		c.smallUsed -= int64(len(e.data))
	}
}

func (c *LRU) remove(el *list.Element) {
	c.unindex(el.Value.(*entry))
	el.Value.(*entry).fifo.Remove(el)
}

// makeRoom evicts until size more bytes fit: from the small FIFO while it
// holds its tenth of the bytes (or the main one is empty), else from the
// main FIFO. The small FIFO's oldest entries move on to the main one if
// they were hit; the first that was not is evicted and becomes a ghost.
func (c *LRU) makeRoom(size int64) {
	for c.used+size > c.capacity && c.used > 0 {
		q := c.main
		if c.small.Len() > 0 && (c.smallUsed >= c.capacity/10 || c.main.Len() == 0) {
			q = c.small
		}
		el := q.Back()
		e := el.Value.(*entry)
		switch f := e.freq.Load(); {
		case f > 0 && e.fifo == c.small:
			c.remove(el)
			e.fifo = c.main
			c.index(c.main.PushFront(e))
		case f > 0:
			e.freq.Store(f - 1)
			c.main.MoveToFront(el)
		default:
			c.remove(el)
			c.evicts.Add(1)
			if e.fifo == c.small {
				c.ghosts[e.id] = c.ghost.PushFront(ghostEntry{e.id, int64(len(e.data))})
				c.ghostBytes += int64(len(e.data))
				for c.ghostBytes > c.capacity-c.capacity/10 {
					c.dropGhost(c.ghost.Back())
				}
			}
		}
	}
}

func (c *LRU) dropGhost(el *list.Element) {
	g := c.ghost.Remove(el).(ghostEntry)
	delete(c.ghosts, g.id)
	c.ghostBytes -= g.size
}

// Invalidate removes every cached stripe of an object.
func (c *LRU) Invalidate(obj string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for stripe := range c.byObject[obj] {
		c.remove(c.items[stripeID{obj, stripe}])
	}
}

// Replace hands every cached stripe of object old over to object new:
// stripe s becomes stripe s of new, in its place and with its hits,
// holding data[s] — with rekey, the bytes it holds. A stripe left without
// bytes, or that new already has, is dropped. The slices of data become
// the cache's: nothing may write them.
func (c *LRU) Replace(old, new string, data map[int][]byte, rekey bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for s := range c.byObject[old] {
		el := c.items[stripeID{old, s}]
		b := data[s]
		if rekey {
			b = el.Value.(*entry).data
		}
		if _, dup := c.items[stripeID{new, s}]; b == nil || dup || int64(len(b)) > c.capacity {
			c.remove(el)
			continue
		}
		c.unindex(el.Value.(*entry))
		el.Value.(*entry).id, el.Value.(*entry).data = stripeID{new, s}, b
		if g, ok := c.ghosts[stripeID{new, s}]; ok {
			c.dropGhost(g)
		}
		c.index(el)
	}
	c.makeRoom(0)
}

// Stats reports the cache's counters and current footprint.
func (c *LRU) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evicts.Load(),
		Entries: int64(len(c.items)), UsedBytes: c.used}
}

// Cluster is the multi-datacenter cache fabric: one cache per datacenter.
// Reads fill only their own; a write updates and a delete invalidates
// every datacenter's (see the package doc).
type Cluster struct {
	mu     sync.RWMutex
	caches map[string]*LRU
}

// NewCluster returns an empty cache cluster.
func NewCluster() *Cluster {
	return &Cluster{caches: make(map[string]*LRU)}
}

// AddDatacenter creates (or replaces) the cache of a datacenter.
func (cc *Cluster) AddDatacenter(dc string, capacity int64) *LRU {
	c := NewLRU(capacity)
	cc.mu.Lock()
	cc.caches[dc] = c
	cc.mu.Unlock()
	return c
}

// Datacenter returns the cache of a datacenter, or nil.
func (cc *Cluster) Datacenter(dc string) *LRU {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return cc.caches[dc]
}

// GetStripe reads one stripe from the named datacenter's cache.
func (cc *Cluster) GetStripe(dc, obj string, stripe int) ([]byte, bool) {
	c := cc.Datacenter(dc)
	if c == nil {
		return nil, false
	}
	return c.GetStripe(obj, stripe)
}

// PutStripe fills one stripe into the named datacenter's cache (reads
// fill only locally).
func (cc *Cluster) PutStripe(dc, obj string, stripe int, data ...[]byte) {
	if c := cc.Datacenter(dc); c != nil {
		c.PutStripe(obj, stripe, data...)
	}
}

// Held returns the stripes of obj some datacenter caches as the keys of
// a map whose values are the caller's to fill in: Replace's data.
func (cc *Cluster) Held(obj string) map[int][]byte {
	held := make(map[int][]byte)
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	for _, c := range cc.caches {
		c.mu.RLock()
		for s := range c.byObject[obj] {
			held[s] = nil
		}
		c.mu.RUnlock()
	}
	return held
}

// Replace runs LRU.Replace in every datacenter; they share data's slices.
func (cc *Cluster) Replace(old, new string, data map[int][]byte, rekey bool) {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	for _, c := range cc.caches {
		c.Replace(old, new, data, rekey)
	}
}

// InvalidateAll removes every cached stripe of an object from every
// datacenter's cache.
func (cc *Cluster) InvalidateAll(obj string) {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	for _, c := range cc.caches {
		c.Invalidate(obj)
	}
}

// Stats aggregates the counters of every datacenter's cache.
func (cc *Cluster) Stats() Stats {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	var total Stats
	for _, c := range cc.caches {
		total.add(c.Stats())
	}
	return total
}

// StatsByDC reports each datacenter's counters separately, for
// per-datacenter metric series (the aggregate Stats loses which cache
// is hot and which is thrashing).
func (cc *Cluster) StatsByDC() map[string]Stats {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	out := make(map[string]Stats, len(cc.caches))
	for dc, c := range cc.caches {
		out[dc] = c.Stats()
	}
	return out
}
