// Package cache implements Scalia's caching layer (paper §III-B): a
// byte-capacity LRU cache per datacenter, plus a cluster wrapper that
// invalidates entries in every datacenter on writes so reads stay
// consistent. The layer is optional; when present it serves popular
// reads without fetching chunks from the remote providers, cutting both
// latency and bandwidth-out cost.
//
// Entries are stripe-granular: the unit of caching is one decoded
// stripe of an object, keyed by (object, stripe index). Multi-stripe
// objects are therefore cacheable piece by piece — a partially cached
// object fetches only its missing stripes from the providers — and
// eviction works at stripe granularity, so one huge object cannot
// monopolize the cache all-or-nothing. Whole small objects are simply
// stripe 0. Invalidation stays object-granular: a write removes every
// cached stripe of the object in every datacenter.
package cache

import (
	"container/list"
	"sync"
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

// LRU is a byte-bounded least-recently-used stripe cache. It is safe
// for concurrent use.
type LRU struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	order    *list.List                  // front = most recent
	items    map[stripeID]*list.Element  // stripe -> element whose Value is *entry
	byObject map[string]map[int]struct{} // object -> cached stripe indexes

	hits, misses, evictions int64
}

type entry struct {
	id   stripeID
	data []byte
}

// NewLRU returns a cache bounded to capacity bytes. A non-positive
// capacity yields a disabled cache that stores nothing.
func NewLRU(capacity int64) *LRU {
	return &LRU{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[stripeID]*list.Element),
		byObject: make(map[string]map[int]struct{}),
	}
}

// GetStripe returns the cached stripe itself, read-only to the caller,
// and marks it recently used. The slice stays valid for as long as the
// caller holds it: a cached stripe's bytes are never written — an
// overwrite replaces the slice, Invalidate and eviction drop it.
func (c *LRU) GetStripe(obj string, stripe int) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[stripeID{obj, stripe}]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry).data, true
}

// PutStripe stores a copy of one decoded stripe (data stays the
// caller's), evicting least-recently-used stripes as needed. Stripes
// larger than the capacity are not cached.
func (c *LRU) PutStripe(obj string, stripe int, data []byte) {
	size := int64(len(data))
	if c.capacity <= 0 || size > c.capacity {
		return
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	id := stripeID{obj, stripe}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[id]; ok {
		old := el.Value.(*entry)
		c.used += size - int64(len(old.data))
		old.data = cp
		c.order.MoveToFront(el)
	} else {
		c.items[id] = c.order.PushFront(&entry{id: id, data: cp})
		stripes, ok := c.byObject[obj]
		if !ok {
			stripes = make(map[int]struct{})
			c.byObject[obj] = stripes
		}
		stripes[stripe] = struct{}{}
		c.used += size
	}
	for c.used > c.capacity {
		c.evictOldestLocked()
	}
}

// Get returns the cached whole object (stripe 0); a convenience for
// single-stripe callers.
func (c *LRU) Get(key string) ([]byte, bool) { return c.GetStripe(key, 0) }

// Put caches a whole object as stripe 0; a convenience for
// single-stripe callers.
func (c *LRU) Put(key string, data []byte) { c.PutStripe(key, 0, data) }

func (c *LRU) evictOldestLocked() {
	el := c.order.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry)
	c.removeLocked(el, e)
	c.evictions++
}

// removeLocked unlinks one entry from the LRU order, the stripe table
// and the per-object index.
func (c *LRU) removeLocked(el *list.Element, e *entry) {
	c.order.Remove(el)
	delete(c.items, e.id)
	c.used -= int64(len(e.data))
	if stripes, ok := c.byObject[e.id.obj]; ok {
		delete(stripes, e.id.stripe)
		if len(stripes) == 0 {
			delete(c.byObject, e.id.obj)
		}
	}
}

// Invalidate removes every cached stripe of an object (writes are
// object-granular even though caching is stripe-granular).
func (c *LRU) Invalidate(obj string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for stripe := range c.byObject[obj] {
		if el, ok := c.items[stripeID{obj, stripe}]; ok {
			c.removeLocked(el, el.Value.(*entry))
		}
	}
}

// Len returns the number of cached stripes.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// UsedBytes returns the cached byte volume.
func (c *LRU) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Stats reports the cache's counters and current footprint.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   int64(len(c.items)),
		UsedBytes: c.used,
	}
}

// Cluster is the multi-datacenter cache fabric: one LRU per datacenter,
// with write-triggered invalidation broadcast to all datacenters ("the
// cache has to be invalidated in all datacenters in order to guarantee
// the consistency of the read operations", §III-B).
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
func (cc *Cluster) PutStripe(dc, obj string, stripe int, data []byte) {
	if c := cc.Datacenter(dc); c != nil {
		c.PutStripe(obj, stripe, data)
	}
}

// Get reads a whole object (stripe 0) from the named datacenter's cache.
func (cc *Cluster) Get(dc, key string) ([]byte, bool) {
	return cc.GetStripe(dc, key, 0)
}

// Put fills a whole object (stripe 0) into the named datacenter's cache.
func (cc *Cluster) Put(dc, key string, data []byte) {
	cc.PutStripe(dc, key, 0, data)
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
