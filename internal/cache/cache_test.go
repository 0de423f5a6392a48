package cache

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestLRUBasic(t *testing.T) {
	c := NewLRU(100)
	c.PutStripe("a", 0, []byte("hello"))
	got, ok := c.GetStripe("a", 0)
	if !ok || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := c.GetStripe("missing", 0); ok {
		t.Fatal("missing key must miss")
	}
}

// TestLRUCopiesInAndNeverMutates is the ownership contract of a stripe:
// PutStripe copies in, so the caller's buffer is its own again at once,
// and GetStripe lends the cached slice itself, which nothing ever writes —
// a slice obtained before its key was overwritten, invalidated or evicted
// still holds the bytes it was lent with.
func TestLRUCopiesInAndNeverMutates(t *testing.T) {
	c := NewLRU(8)
	data := []byte("abc")
	c.PutStripe("k", 0, data)
	data[0] = 'X'
	if got, _ := c.GetStripe("k", 0); string(got) != "abc" {
		t.Fatalf("cached %q after the caller reused its buffer: Put must copy in", got)
	}
	for name, drop := range map[string]func(){
		"overwrite":  func() { c.PutStripe("k", 0, []byte("xyz")) },
		"invalidate": func() { c.Invalidate("k") },
		"replace":    func() { c.Replace("k", "k2", map[int][]byte{0: []byte("xyz")}, false) },
		// A newcomer of the full capacity: k goes, hits and all.
		"eviction": func() { c.PutStripe("big", 0, make([]byte, 8)) },
	} {
		c.PutStripe("k", 0, []byte("abc"))
		held, ok := c.GetStripe("k", 0)
		if !ok {
			t.Fatalf("%s: miss on a key just put", name)
		}
		drop()
		if string(held) != "abc" {
			t.Errorf("%s changed a slice handed out before it to %q", name, held)
		}
		if now, ok := c.GetStripe("k", 0); ok && string(now) == "abc" {
			t.Errorf("%s left the old bytes cached", name)
		}
		c.Invalidate("big")
		c.Invalidate("k2")
	}
	checkInvariants(t, c)
}

// TestScanResistance: a hot set that was hit survives a one-pass scan of
// three times the capacity — the scan's stripes, never hit, are evicted
// before it. LRU evicts the hot set after one capacity's worth of scan.
func TestScanResistance(t *testing.T) {
	c := NewLRU(10)
	for i := 0; i < 4; i++ {
		c.PutStripe(fmt.Sprint("hot", i), 0, []byte{1})
		c.GetStripe(fmt.Sprint("hot", i), 0)
		c.GetStripe(fmt.Sprint("hot", i), 0)
	}
	for i := 0; i < 30; i++ {
		if _, ok := c.GetStripe(fmt.Sprint("scan", i), 0); !ok {
			c.PutStripe(fmt.Sprint("scan", i), 0, []byte{2})
		}
	}
	for i := 0; i < 4; i++ {
		if _, ok := c.GetStripe(fmt.Sprint("hot", i), 0); !ok {
			t.Errorf("hot%d did not survive the scan", i)
		}
	}
	if st := c.Stats(); st.UsedBytes != 10 || st.Evictions != 24 {
		t.Errorf("after the scan: %+v, want a full cache and 24 scan stripes evicted", st)
	}
	checkInvariants(t, c)
}

// TestOneHitWonders: stripes read once and never again are evicted
// before older ones that were read again, however recently they came in.
func TestOneHitWonders(t *testing.T) {
	c := NewLRU(10)
	for i := 0; i < 8; i++ {
		c.PutStripe(fmt.Sprint("reread", i), 0, []byte{1})
		c.GetStripe(fmt.Sprint("reread", i), 0)
	}
	for i := 0; i < 10; i++ {
		c.PutStripe(fmt.Sprint("once", i), 0, []byte{2})
	}
	for i := 0; i < 8; i++ {
		if _, ok := c.GetStripe(fmt.Sprint("reread", i), 0); !ok {
			t.Errorf("reread%d was evicted for a one-hit wonder", i)
		}
	}
	checkInvariants(t, c)
}

func TestLRUCapacityAccounting(t *testing.T) {
	c := NewLRU(10)
	c.PutStripe("a", 0, make([]byte, 6))
	c.PutStripe("a", 0, make([]byte, 2)) // overwrite shrinks usage
	if c.Stats().UsedBytes != 2 {
		t.Fatalf("UsedBytes = %d, want 2", c.Stats().UsedBytes)
	}
	c.PutStripe("b", 0, make([]byte, 8))
	if c.Stats().UsedBytes != 10 || c.Stats().Entries != 2 {
		t.Fatalf("used=%d len=%d", c.Stats().UsedBytes, c.Stats().Entries)
	}
}

func TestLRUOversizedObjectSkipped(t *testing.T) {
	c := NewLRU(5)
	c.PutStripe("big", 0, make([]byte, 6))
	if c.Stats().Entries != 0 {
		t.Fatal("oversized object must not be cached")
	}
}

func TestLRUDisabled(t *testing.T) {
	c := NewLRU(0)
	c.PutStripe("k", 0, []byte("x"))
	if _, ok := c.GetStripe("k", 0); ok {
		t.Fatal("zero-capacity cache must store nothing")
	}
}

func TestLRUInvalidate(t *testing.T) {
	c := NewLRU(100)
	c.PutStripe("k", 0, []byte("x"))
	c.Invalidate("k")
	if _, ok := c.GetStripe("k", 0); ok {
		t.Fatal("invalidated key must miss")
	}
	if c.Stats().UsedBytes != 0 {
		t.Fatalf("UsedBytes = %d after invalidate", c.Stats().UsedBytes)
	}
	// Invalidating a missing key is a no-op.
	c.Invalidate("missing")
}

func TestLRUHitMissCounters(t *testing.T) {
	c := NewLRU(100)
	c.PutStripe("k", 0, []byte("x"))
	c.GetStripe("k", 0)
	c.GetStripe("k", 0)
	c.GetStripe("nope", 0)
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", st.Hits, st.Misses)
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := NewLRU(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				key := fmt.Sprintf("k%d", j%20)
				c.PutStripe(key, 0, bytes.Repeat([]byte{byte(id)}, 100))
				c.GetStripe(key, 0)
				if j%50 == 0 {
					c.Invalidate(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Stats().UsedBytes < 0 || c.Stats().UsedBytes > 1<<20 {
		t.Fatalf("UsedBytes out of bounds: %d", c.Stats().UsedBytes)
	}
}

func TestStripeGetPut(t *testing.T) {
	c := NewLRU(1 << 10)
	c.PutStripe("c/k", 0, []byte("stripe-zero"))
	c.PutStripe("c/k", 3, []byte("stripe-three"))
	if got, ok := c.GetStripe("c/k", 3); !ok || string(got) != "stripe-three" {
		t.Fatalf("GetStripe(3) = %q, %v", got, ok)
	}
	if _, ok := c.GetStripe("c/k", 1); ok {
		t.Fatal("missing stripe must miss")
	}
	// Stripes of different objects are distinct entries.
	c.PutStripe("c/other", 3, []byte("other"))
	if got, _ := c.GetStripe("c/k", 3); string(got) != "stripe-three" {
		t.Fatal("stripe keys must be object-scoped")
	}
	if c.Stats().Entries != 3 {
		t.Fatalf("Len = %d, want 3 stripes", c.Stats().Entries)
	}
}

func TestInvalidateRemovesAllStripes(t *testing.T) {
	c := NewLRU(1 << 10)
	for s := 0; s < 5; s++ {
		c.PutStripe("c/k", s, []byte{byte(s), 1, 2, 3})
	}
	c.PutStripe("c/other", 0, []byte("stay"))
	c.Invalidate("c/k")
	for s := 0; s < 5; s++ {
		if _, ok := c.GetStripe("c/k", s); ok {
			t.Fatalf("stripe %d survived object invalidation", s)
		}
	}
	if _, ok := c.GetStripe("c/other", 0); !ok {
		t.Fatal("unrelated object must survive")
	}
	if c.Stats().UsedBytes != 4 {
		t.Fatalf("UsedBytes = %d after invalidation, want 4", c.Stats().UsedBytes)
	}
}

func TestStripeEvictionUpdatesObjectIndex(t *testing.T) {
	c := NewLRU(10)
	c.PutStripe("o", 0, make([]byte, 4))
	c.PutStripe("o", 1, make([]byte, 4))
	c.PutStripe("o", 2, make([]byte, 4)) // evicts stripe 0
	if _, ok := c.GetStripe("o", 0); ok {
		t.Fatal("stripe 0 should have been evicted")
	}
	// Invalidation after partial eviction must not panic and must drop
	// the surviving stripes.
	c.Invalidate("o")
	if c.Stats().Entries != 0 || c.Stats().UsedBytes != 0 {
		t.Fatalf("len=%d used=%d after invalidate", c.Stats().Entries, c.Stats().UsedBytes)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestClusterStripeOpsAndStats(t *testing.T) {
	cc := NewCluster()
	cc.AddDatacenter("dc1", 1000)
	cc.AddDatacenter("dc2", 1000)
	cc.PutStripe("dc1", "c/k", 0, []byte("a"))
	cc.PutStripe("dc1", "c/k", 1, []byte("b"))
	cc.PutStripe("dc2", "c/k", 0, []byte("a"))
	if _, ok := cc.GetStripe("dc1", "c/k", 1); !ok {
		t.Fatal("dc1 stripe 1 must hit")
	}
	if _, ok := cc.GetStripe("dc2", "c/k", 1); ok {
		t.Fatal("dc2 stripe 1 must miss")
	}
	cc.InvalidateAll("c/k")
	for _, dc := range []string{"dc1", "dc2"} {
		for s := 0; s < 2; s++ {
			if _, ok := cc.GetStripe(dc, "c/k", s); ok {
				t.Fatalf("%s stripe %d survived InvalidateAll", dc, s)
			}
		}
	}
	st := cc.Stats()
	if st.Hits != 1 || st.Entries != 0 || st.UsedBytes != 0 {
		t.Fatalf("cluster stats = %+v", st)
	}
	if st.Misses == 0 {
		t.Fatalf("cluster stats must aggregate misses: %+v", st)
	}
}

func TestClusterInvalidateAll(t *testing.T) {
	cc := NewCluster()
	cc.AddDatacenter("dc1", 1000)
	cc.AddDatacenter("dc2", 1000)
	cc.PutStripe("dc1", "k", 0, []byte("v"))
	cc.PutStripe("dc2", "k", 0, []byte("v"))
	cc.InvalidateAll("k")
	if _, ok := cc.GetStripe("dc1", "k", 0); ok {
		t.Fatal("dc1 must be invalidated")
	}
	if _, ok := cc.GetStripe("dc2", "k", 0); ok {
		t.Fatal("dc2 must be invalidated")
	}
}

func TestClusterLocalFill(t *testing.T) {
	cc := NewCluster()
	cc.AddDatacenter("dc1", 1000)
	cc.AddDatacenter("dc2", 1000)
	cc.PutStripe("dc1", "k", 0, []byte("v"))
	if _, ok := cc.GetStripe("dc2", "k", 0); ok {
		t.Fatal("reads fill only the local datacenter")
	}
	if got, ok := cc.GetStripe("dc1", "k", 0); !ok || string(got) != "v" {
		t.Fatal("local read must hit")
	}
}

func TestClusterUnknownDatacenter(t *testing.T) {
	cc := NewCluster()
	if _, ok := cc.GetStripe("ghost", "k", 0); ok {
		t.Fatal("unknown datacenter must miss")
	}
	cc.PutStripe("ghost", "k", 0, []byte("v")) // must not panic
}

func TestClusterStatsByDC(t *testing.T) {
	cc := NewCluster()
	cc.AddDatacenter("dc1", 1000)
	cc.AddDatacenter("dc2", 1000)
	cc.PutStripe("dc1", "k", 0, []byte("vvvv"))
	cc.GetStripe("dc1", "k", 0) // hit
	cc.GetStripe("dc2", "k", 0) // miss

	by := cc.StatsByDC()
	if len(by) != 2 {
		t.Fatalf("got %d datacenters, want 2", len(by))
	}
	if by["dc1"].Hits != 1 || by["dc1"].Entries != 1 || by["dc1"].UsedBytes != 4 {
		t.Errorf("dc1 stats = %+v", by["dc1"])
	}
	if by["dc2"].Misses != 1 || by["dc2"].Entries != 0 {
		t.Errorf("dc2 stats = %+v", by["dc2"])
	}
	// The per-DC split must sum to the aggregate.
	agg := cc.Stats()
	var sum Stats
	for _, s := range by {
		sum.add(s)
	}
	if sum != agg {
		t.Errorf("per-DC sum %+v != aggregate %+v", sum, agg)
	}
}

func TestClusterReplaceUpdatesHoldersOnly(t *testing.T) {
	cc := NewCluster()
	for _, dc := range []string{"dc1", "dc2", "dc3"} {
		cc.AddDatacenter(dc, 1000)
	}
	cc.PutStripe("dc1", "o@1", 0, []byte("a0"))
	cc.PutStripe("dc1", "o@1", 2, []byte("a2"))
	cc.PutStripe("dc2", "o@1", 1, []byte("a1"))
	if held := cc.Held("o@1"); !maps.EqualFunc(held, map[int][]byte{0: nil, 1: nil, 2: nil}, bytes.Equal) {
		t.Fatalf("Held = %v, want stripes 0-2", held)
	}
	if held := cc.Held("o@2"); len(held) != 0 {
		t.Fatalf("Held of an uncached object = %v, want none", held)
	}

	cc.Replace("o@1", "o@2", map[int][]byte{0: []byte("b0"), 1: []byte("b1")}, false) // the new version has two stripes
	want := map[string]map[int]string{"dc1": {0: "b0"}, "dc2": {1: "b1"}, "dc3": {}}
	for dc, stripes := range want {
		for s := 0; s < 3; s++ {
			got, ok := cc.GetStripe(dc, "o@2", s)
			if w, in := stripes[s]; ok != in || string(got) != w {
				t.Errorf("%s stripe %d of the new version: %q, %v; want %q, %v", dc, s, got, ok, w, in)
			}
			if _, ok := cc.GetStripe(dc, "o@1", s); ok {
				t.Errorf("%s still serves stripe %d of the superseded version", dc, s)
			}
		}
	}

	// Re-keying hands the held bytes on as they are.
	held, _ := cc.GetStripe("dc1", "o@2", 0)
	cc.Replace("o@2", "o@3", nil, true)
	if got, ok := cc.GetStripe("dc1", "o@3", 0); !ok || &got[0] != &held[0] {
		t.Fatalf("re-keyed stripe: %q, %v; want the held slice itself", got, ok)
	}
	by := cc.StatsByDC()
	if by["dc1"].Entries != 1 || by["dc1"].UsedBytes != 2 || by["dc2"].Entries != 1 || by["dc3"].Entries != 0 {
		t.Fatalf("after the replacements: %+v", by)
	}
	for dc := range want {
		checkInvariants(t, cc.Datacenter(dc))
	}
}

// TestZipfCachedHitRatio replays the request stream of bench/'s
// zipf-cached workload (seed 1) against a Cluster alone: two clients
// over 600 keys each, Zipf s = 1.1, one overwrite in every shuffled block
// of 20 ops, requests alternating between datacenters in the pairs
// Broker.NextEngine deals them (two engines per datacenter), 256 stripes
// per datacenter (64 MiB of 256 KiB objects). A GET reads through; a PUT
// supersedes the key's version as the engine's commit does — Replace in
// the datacenters that hold it, then invalidate.
//
// Reference policies replay the same GETs per datacenter with the same
// write-update (a PUT leaves its key cached where it was): Belady's MIN
// with bypass reads 0.880, an unbounded cache 0.937, and an online LFU
// that counts every key it has seen 0.811. SIEVE reads 0.796, so the
// second gate holds the cache within 0.02 of that LFU; LRU (0.764) fails
// it. For the record: S3-FIFO read 0.797 (0.798 without its ghost list),
// and SIEVE with write-invalidate 0.715.
func TestZipfCachedHitRatio(t *testing.T) {
	const clients, keys, block, warm, ops, capacity = 2, 600, 20, 3000, 20000, 256
	type req struct {
		put   bool
		dc, k int
		next  int // for a GET, when its datacenter next reads k (MaxInt: never)
	}
	reqs := make([]req, warm+ops)
	type client struct {
		rng  *rand.Rand
		zipf *rand.Zipf
		mix  []bool // the rest of the current block: true = PUT
	}
	cl := make([]client, clients)
	for c := range cl {
		rng := rand.New(rand.NewSource(int64(7919 + c*104729 + 1))) // bench/gen.go's seeding
		cl[c] = client{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, keys-1)}
	}
	for i := range reqs {
		c := &cl[i%clients]
		if len(c.mix) == 0 {
			c.mix = make([]bool, block)
			c.mix[0] = true
			c.rng.Shuffle(block, func(a, b int) { c.mix[a], c.mix[b] = c.mix[b], c.mix[a] })
		}
		reqs[i] = req{put: c.mix[0], dc: i / 2 % 2, k: int(c.zipf.Uint64())*clients + i%clients}
		c.mix = c.mix[1:]
	}
	nextGet := make(map[[2]int]int) // (datacenter, key) -> index of its next GET
	for i := len(reqs) - 1; i >= 0; i-- {
		if r := &reqs[i]; !r.put {
			r.next = math.MaxInt
			if n, ok := nextGet[[2]int{r.dc, r.k}]; ok {
				r.next = n
			}
			nextGet[[2]int{r.dc, r.k}] = i
		}
	}
	// ratio replays the stream through hit, which serves every request
	// and says whether a GET hit, and scores the GETs after warm-up.
	ratio := func(hit func(req) bool) float64 {
		hits, gets := 0, 0
		for i, r := range reqs {
			if ok := hit(r); i >= warm && !r.put {
				gets++
				if ok {
					hits++
				}
			}
		}
		return float64(hits) / float64(gets)
	}

	cc := NewCluster()
	dcs := []string{"dc1", "dc2"}
	for _, dc := range dcs {
		cc.AddDatacenter(dc, capacity)
	}
	version := make([]int, clients*keys)
	id := func(k int) string { return fmt.Sprintf("k%d@%d", k, version[k]) }
	got := ratio(func(r req) bool {
		if r.put {
			old := id(r.k)
			version[r.k]++
			cc.Replace(old, id(r.k), map[int][]byte{0: {1}}, false)
			cc.InvalidateAll(old)
			return false
		}
		_, ok := cc.GetStripe(dcs[r.dc], id(r.k), 0)
		if !ok {
			cc.PutStripe(dcs[r.dc], id(r.k), 0, []byte{1})
		}
		return ok
	})

	// perDC runs one instance of a reference policy per datacenter on
	// the GETs; a key is its own name across versions (write-update).
	perDC := func(policy func() func(req) bool) func(req) bool {
		each := []func(req) bool{policy(), policy()}
		return func(r req) bool { return !r.put && each[r.dc](r) }
	}
	belady := ratio(perDC(func() func(req) bool {
		cached := make(map[int]int) // key -> its next use
		return func(r req) bool {
			if _, ok := cached[r.k]; ok || len(cached) < capacity {
				cached[r.k] = r.next
				return ok
			}
			far := -1
			for k, next := range cached {
				if far < 0 || next > cached[far] {
					far = k
				}
			}
			if r.next < cached[far] { // else bypass: nothing cached is needed later
				delete(cached, far)
				cached[r.k] = r.next
			}
			return false
		}
	}))
	unbounded := ratio(perDC(func() func(req) bool {
		seen := make(map[int]bool)
		return func(r req) bool {
			ok := seen[r.k]
			seen[r.k] = true
			return ok
		}
	}))
	lfu := ratio(perDC(func() func(req) bool {
		count := make(map[int]int)    // every key seen -> its GETs
		admitted := make(map[int]int) // cached key -> when it was admitted
		n := 0
		return func(r req) bool {
			count[r.k]++
			if _, ok := admitted[r.k]; ok {
				return true
			}
			if len(admitted) == capacity {
				least := -1
				for k, at := range admitted {
					if least < 0 || count[k] < count[least] || count[k] == count[least] && at < admitted[least] {
						least = k
					}
				}
				if count[r.k] <= count[least] {
					return false
				}
				delete(admitted, least)
			}
			n++
			admitted[r.k] = n
			return false
		}
	}))
	t.Logf("hit ratio: SIEVE %.3f; Belady's MIN %.3f, unbounded %.3f, online LFU %.3f", got, belady, unbounded, lfu)
	if got < 0.78 {
		t.Fatalf("hit ratio %.3f, want >= 0.78", got)
	}
	if got < lfu-0.02 {
		t.Fatalf("hit ratio %.3f, want within 0.02 of online LFU's %.3f", got, lfu)
	}
}

// FuzzCacheOps drives one cache through random puts, gets, invalidations,
// updates, re-keys and oversized puts, and checks after every step that a
// hit returns the bytes last stored under its id and that the byte
// accounting and every index agree with the queue (checkInvariants).
func FuzzCacheOps(f *testing.F) {
	f.Add(uint8(10), []byte{0, 1, 2, 1, 1, 0, 0, 5, 3, 3, 1, 2, 5, 5, 7, 2, 1, 0, 4, 9, 9})
	f.Add(uint8(0), []byte{0, 0, 1, 1, 0, 0})
	f.Add(uint8(64), bytes.Repeat([]byte{0, 17, 34, 1, 17, 0, 3, 18, 1, 5, 19, 2, 2, 20, 0}, 12))
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		c := NewLRU(int64(capacity))
		want := make(map[stripeID][]byte) // what a hit on the id must return
		stores := func(data []byte) bool { return c.capacity > 0 && int64(len(data)) <= c.capacity }
		for i := 0; i+2 < len(ops); i += 3 {
			op, a, b := ops[i]%6, int(ops[i+1]), int(ops[i+2])
			id := stripeID{fmt.Sprint("o", a%4), a / 4 % 3}
			switch op {
			case 0: // put
				data := bytes.Repeat([]byte{byte(i)}, b%(int(capacity)/2+2))
				c.PutStripe(id.obj, id.stripe, data)
				if stores(data) {
					want[id] = data
				}
			case 1: // get
				if got, ok := c.GetStripe(id.obj, id.stripe); ok && !bytes.Equal(got, want[id]) {
					t.Fatalf("step %d: hit on %v returned %v, want %v", i, id, got, want[id])
				}
			case 2:
				c.Invalidate(id.obj)
			case 3, 5: // update with new bytes (some dropped), or re-key as held
				to := fmt.Sprint("o", (a%4+1+b%3)%4)
				dup := make(map[int]bool)
				for s := 0; s < 3; s++ {
					_, dup[s] = c.items[stripeID{to, s}]
				}
				data := make(map[int][]byte) // op 3: new bytes for some stripes, none for the rest
				for s := 0; s < 3; s++ {
					held, cached := c.items[stripeID{id.obj, s}]
					if op == 3 && (s+b)%3 != 0 {
						data[s] = bytes.Repeat([]byte{byte(i)}, (b+s)%(int(capacity)/2+2))
					} else if op == 5 && cached {
						data[s] = held.Value.(*entry).data
					}
					if cached && data[s] != nil && !dup[s] && stores(data[s]) {
						want[stripeID{to, s}] = data[s]
					}
				}
				c.Replace(id.obj, to, data, op == 5)
			case 4: // oversized: not cached, and what was cached stays
				c.PutStripe(id.obj, id.stripe, make([]byte, int(capacity)+1+b%4))
			}
			checkInvariants(t, c)
		}
	})
}

// checkInvariants checks one cache's internal consistency: the queue,
// the stripe table and the per-object index name the same stripes, the
// byte count is the queue's sum, the hand is nil or in the queue, Stats
// agrees, and the cache is within its capacity.
func checkInvariants(t *testing.T, c *LRU) {
	t.Helper()
	st := c.Stats()
	c.mu.RLock()
	defer c.mu.RUnlock()
	var used int64
	hand := c.hand == nil
	for el := c.queue.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if c.items[e.id] != el {
			t.Fatalf("the stripe table does not point at %v's entry", e.id)
		}
		used += int64(len(e.data))
		hand = hand || el == c.hand
	}
	if n := c.queue.Len(); used != c.used || n != len(c.items) {
		t.Fatalf("the queue holds %d entries, %d bytes; counted %d entries, %d bytes", n, used, len(c.items), c.used)
	}
	if !hand {
		t.Fatal("the hand is on an element that is not queued")
	}
	if c.used > max(c.capacity, 0) {
		t.Fatalf("%d bytes cached, capacity %d", c.used, c.capacity)
	}
	if st.Entries != int64(len(c.items)) || st.UsedBytes != c.used {
		t.Fatalf("Stats %+v, want %d entries, %d bytes", st, len(c.items), c.used)
	}
	indexed := 0
	for obj, stripes := range c.byObject {
		if len(stripes) == 0 {
			t.Fatalf("empty per-object index for %s", obj)
		}
		for s := range stripes {
			if _, ok := c.items[stripeID{obj, s}]; !ok {
				t.Fatalf("per-object index names %s stripe %d, which is not cached", obj, s)
			}
		}
		indexed += len(stripes)
	}
	if indexed != len(c.items) {
		t.Fatalf("per-object index names %d stripes, %d are cached", indexed, len(c.items))
	}
}
