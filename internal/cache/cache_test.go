package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestLRUBasic(t *testing.T) {
	c := NewLRU(100)
	c.Put("a", []byte("hello"))
	got, ok := c.Get("a")
	if !ok || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := c.Get("missing"); ok {
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
	c.Put("k", data)
	data[0] = 'X'
	if got, _ := c.Get("k"); string(got) != "abc" {
		t.Fatalf("cached %q after the caller reused its buffer: Put must copy in", got)
	}
	for name, drop := range map[string]func(){
		"overwrite":  func() { c.Put("k", []byte("xyz")) },
		"invalidate": func() { c.Invalidate("k") },
		"eviction":   func() { c.Put("big", make([]byte, 8)) },
	} {
		c.Put("k", []byte("abc"))
		held, ok := c.Get("k")
		if !ok {
			t.Fatalf("%s: miss on a key just put", name)
		}
		drop()
		if string(held) != "abc" {
			t.Errorf("%s changed a slice handed out before it to %q", name, held)
		}
		if now, ok := c.Get("k"); ok && string(now) == "abc" {
			t.Errorf("%s left the old bytes cached", name)
		}
		c.Invalidate("big")
	}
}

func TestLRUEvictsOldestFirst(t *testing.T) {
	c := NewLRU(10)
	c.Put("a", make([]byte, 4))
	c.Put("b", make([]byte, 4))
	c.Get("a")                  // a becomes most recent
	c.Put("c", make([]byte, 4)) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a must survive")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c must be present")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestLRUCapacityAccounting(t *testing.T) {
	c := NewLRU(10)
	c.Put("a", make([]byte, 6))
	c.Put("a", make([]byte, 2)) // overwrite shrinks usage
	if c.UsedBytes() != 2 {
		t.Fatalf("UsedBytes = %d, want 2", c.UsedBytes())
	}
	c.Put("b", make([]byte, 8))
	if c.UsedBytes() != 10 || c.Len() != 2 {
		t.Fatalf("used=%d len=%d", c.UsedBytes(), c.Len())
	}
}

func TestLRUOversizedObjectSkipped(t *testing.T) {
	c := NewLRU(5)
	c.Put("big", make([]byte, 6))
	if c.Len() != 0 {
		t.Fatal("oversized object must not be cached")
	}
}

func TestLRUDisabled(t *testing.T) {
	c := NewLRU(0)
	c.Put("k", []byte("x"))
	if _, ok := c.Get("k"); ok {
		t.Fatal("zero-capacity cache must store nothing")
	}
}

func TestLRUInvalidate(t *testing.T) {
	c := NewLRU(100)
	c.Put("k", []byte("x"))
	c.Invalidate("k")
	if _, ok := c.Get("k"); ok {
		t.Fatal("invalidated key must miss")
	}
	if c.UsedBytes() != 0 {
		t.Fatalf("UsedBytes = %d after invalidate", c.UsedBytes())
	}
	// Invalidating a missing key is a no-op.
	c.Invalidate("missing")
}

func TestLRUHitMissCounters(t *testing.T) {
	c := NewLRU(100)
	c.Put("k", []byte("x"))
	c.Get("k")
	c.Get("k")
	c.Get("nope")
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
				c.Put(key, bytes.Repeat([]byte{byte(id)}, 100))
				c.Get(key)
				if j%50 == 0 {
					c.Invalidate(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.UsedBytes() < 0 || c.UsedBytes() > 1<<20 {
		t.Fatalf("UsedBytes out of bounds: %d", c.UsedBytes())
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
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3 stripes", c.Len())
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
	if c.UsedBytes() != 4 {
		t.Fatalf("UsedBytes = %d after invalidation, want 4", c.UsedBytes())
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
	if c.Len() != 0 || c.UsedBytes() != 0 {
		t.Fatalf("len=%d used=%d after invalidate", c.Len(), c.UsedBytes())
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
	cc.Put("dc1", "k", []byte("v"))
	cc.Put("dc2", "k", []byte("v"))
	cc.InvalidateAll("k")
	if _, ok := cc.Get("dc1", "k"); ok {
		t.Fatal("dc1 must be invalidated")
	}
	if _, ok := cc.Get("dc2", "k"); ok {
		t.Fatal("dc2 must be invalidated")
	}
}

func TestClusterLocalFill(t *testing.T) {
	cc := NewCluster()
	cc.AddDatacenter("dc1", 1000)
	cc.AddDatacenter("dc2", 1000)
	cc.Put("dc1", "k", []byte("v"))
	if _, ok := cc.Get("dc2", "k"); ok {
		t.Fatal("reads fill only the local datacenter")
	}
	if got, ok := cc.Get("dc1", "k"); !ok || string(got) != "v" {
		t.Fatal("local read must hit")
	}
}

func TestClusterUnknownDatacenter(t *testing.T) {
	cc := NewCluster()
	if _, ok := cc.Get("ghost", "k"); ok {
		t.Fatal("unknown datacenter must miss")
	}
	cc.Put("ghost", "k", []byte("v")) // must not panic
}

func TestClusterStatsByDC(t *testing.T) {
	cc := NewCluster()
	cc.AddDatacenter("dc1", 1000)
	cc.AddDatacenter("dc2", 1000)
	cc.Put("dc1", "k", []byte("vvvv"))
	cc.Get("dc1", "k") // hit
	cc.Get("dc2", "k") // miss

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
