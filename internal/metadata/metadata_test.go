package metadata

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// --- Vector clocks ---

func TestVectorClockCompare(t *testing.T) {
	a := VectorClock{"dc1": 2, "dc2": 1}
	b := VectorClock{"dc1": 2, "dc2": 1}
	if a.Compare(b) != Equal {
		t.Error("identical clocks must be Equal")
	}
	b = VectorClock{"dc1": 3, "dc2": 1}
	if a.Compare(b) != Before {
		t.Error("a must be Before b")
	}
	if b.Compare(a) != After {
		t.Error("b must be After a")
	}
	c := VectorClock{"dc1": 1, "dc2": 5}
	if a.Compare(c) != Concurrent {
		t.Error("a and c must be Concurrent")
	}
}

func TestVectorClockMissingEntries(t *testing.T) {
	a := VectorClock{"dc1": 1}
	b := VectorClock{"dc1": 1, "dc2": 1}
	if a.Compare(b) != Before {
		t.Errorf("a.Compare(b) = %v, want before", a.Compare(b))
	}
	// Zero entries are equivalent to absent ones.
	c := VectorClock{"dc1": 1, "dc2": 0}
	if a.Compare(c) != Equal {
		t.Errorf("a.Compare(c) = %v, want equal", a.Compare(c))
	}
}

func TestVectorClockTickMerge(t *testing.T) {
	a := VectorClock{}
	a.Tick("dc1").Tick("dc1")
	if a["dc1"] != 2 {
		t.Fatalf("ticks = %d", a["dc1"])
	}
	b := VectorClock{"dc2": 7, "dc1": 1}
	a.Merge(b)
	if a["dc1"] != 2 || a["dc2"] != 7 {
		t.Fatalf("merge = %v", a)
	}
	if a.Compare(b) != After {
		t.Error("merged clock must dominate its input")
	}
}

func TestVectorClockCompareAntisymmetric(t *testing.T) {
	f := func(a1, a2, b1, b2 uint8) bool {
		a := VectorClock{"x": uint64(a1), "y": uint64(a2)}
		b := VectorClock{"x": uint64(b1), "y": uint64(b2)}
		ab, ba := a.Compare(b), b.Compare(a)
		switch ab {
		case Equal:
			return ba == Equal
		case Before:
			return ba == After
		case After:
			return ba == Before
		default:
			return ba == Concurrent
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- Store ---

func ver(uuid string, ts int64, cols map[string]string) Version {
	return Version{UUID: uuid, Timestamp: ts, Columns: cols}
}

func TestStorePutGet(t *testing.T) {
	s := NewStore("dc1")
	if err := s.Put("row1", ver("u1", 100, map[string]string{"meta": "a"})); err != nil {
		t.Fatal(err)
	}
	got, losers, err := s.Get("row1")
	if err != nil {
		t.Fatal(err)
	}
	if got.UUID != "u1" || got.Columns["meta"] != "a" || len(losers) != 0 {
		t.Fatalf("Get = %+v losers=%v", got, losers)
	}
}

func TestStoreGetMissing(t *testing.T) {
	s := NewStore("dc1")
	if _, _, err := s.Get("nope"); !errors.Is(err, ErrRowNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestStoreLocalOverwriteSupersedes(t *testing.T) {
	s := NewStore("dc1")
	s.Put("r", ver("u1", 100, nil))
	s.Put("r", ver("u2", 200, nil))
	heads, err := s.Heads("r")
	if err != nil {
		t.Fatal(err)
	}
	if len(heads) != 1 || heads[0].UUID != "u2" {
		t.Fatalf("heads = %+v", heads)
	}
}

func TestStoreVersionIsolation(t *testing.T) {
	s := NewStore("dc1")
	cols := map[string]string{"k": "v"}
	s.Put("r", ver("u1", 1, cols))
	cols["k"] = "mutated"
	got, _, _ := s.Get("r")
	if got.Columns["k"] != "v" {
		t.Error("store must deep-copy versions")
	}
	got.Columns["k"] = "mutated2"
	again, _, _ := s.Get("r")
	if again.Columns["k"] != "v" {
		t.Error("returned versions must be copies")
	}
}

func TestStoreTombstone(t *testing.T) {
	s := NewStore("dc1")
	s.Put("r", ver("u1", 1, nil))
	if err := s.Delete("r", "u2", 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("r"); !errors.Is(err, ErrRowNotFound) {
		t.Fatalf("deleted row err = %v", err)
	}
	if got := s.Rows(); len(got) != 0 {
		t.Fatalf("Rows = %v", got)
	}
}

func TestStoreDownNode(t *testing.T) {
	s := NewStore("dc1")
	s.Put("r", ver("u1", 1, nil))
	s.SetAvailable(false)
	if err := s.Put("r", ver("u2", 2, nil)); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Put on down node: %v", err)
	}
	if _, _, err := s.Get("r"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Get on down node: %v", err)
	}
	s.SetAvailable(true)
	if _, _, err := s.Get("r"); err != nil {
		t.Fatalf("recovered node: %v", err)
	}
}

func TestStoreConcurrentWriters(t *testing.T) {
	s := NewStore("dc1")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				row := fmt.Sprintf("row%d", j%10)
				s.Put(row, ver(fmt.Sprintf("u%d-%d", id, j), int64(j), nil))
			}
		}(i)
	}
	wg.Wait()
	if got := len(s.Rows()); got != 10 {
		t.Fatalf("rows = %d, want 10", got)
	}
	for _, row := range s.Rows() {
		if _, _, err := s.Get(row); err != nil {
			t.Fatal(err)
		}
	}
}

// --- Cluster: the paper's Fig. 10 concurrent-write scenario ---

func twoDC() (*Cluster, *Store, *Store) {
	dc1, dc2 := NewStore("dc1"), NewStore("dc2")
	return NewCluster(dc1, dc2), dc1, dc2
}

// TestClusterReplication: a peer reachable over an open link has the row
// as soon as Put returns.
func TestClusterReplication(t *testing.T) {
	c, _, dc2 := twoDC()
	if err := c.Put("dc1", "r", ver("u1", 100, map[string]string{"m": "x"})); err != nil {
		t.Fatal(err)
	}
	if n := c.PendingReplication(); n != 0 {
		t.Fatalf("%d events queued behind an open link", n)
	}
	got, _, err := dc2.Get("r")
	if err != nil {
		t.Fatal(err)
	}
	if got.UUID != "u1" || got.Columns["m"] != "x" {
		t.Fatalf("replicated version = %+v", got)
	}
}

func TestClusterConcurrentWriteConflictFreshestWins(t *testing.T) {
	// Fig. 10: the same row key updated concurrently in two datacenters
	// yields two versions; on detection the freshest timestamp wins and
	// the deprecated version is reported for chunk cleanup.
	c, dc1, dc2 := twoDC()
	c.Partition("dc1", "dc2")
	c.Put("dc1", "r", ver("old", 100, map[string]string{"v": "old"}))
	c.Put("dc2", "r", ver("new", 200, map[string]string{"v": "new"}))
	c.Heal("dc1", "dc2")
	c.Flush()

	for _, s := range []*Store{dc1, dc2} {
		heads, err := s.Heads("r")
		if err != nil {
			t.Fatal(err)
		}
		if len(heads) != 2 {
			t.Fatalf("%s: %d heads, want 2 (conflict)", s.Node(), len(heads))
		}
		winner, losers, err := s.Get("r")
		if err != nil {
			t.Fatal(err)
		}
		if winner.UUID != "new" {
			t.Fatalf("%s: winner = %s, want freshest", s.Node(), winner.UUID)
		}
		if len(losers) != 1 || losers[0].UUID != "old" {
			t.Fatalf("%s: losers = %+v", s.Node(), losers)
		}
		// Conflict is resolved permanently.
		if heads, _ := s.Heads("r"); len(heads) != 1 {
			t.Fatalf("%s: conflict must collapse to one head", s.Node())
		}
	}
}

func TestClusterTombstoneWinnerReportsLiveLoser(t *testing.T) {
	// A delete in one datacenter races an overwrite in the other and wins
	// on timestamp: the row is gone, but the overwrite's version is the
	// only record of chunks somebody must still collect.
	c, dc1, dc2 := twoDC()
	c.Partition("dc1", "dc2")
	c.Put("dc1", "r", ver("live", 100, map[string]string{"v": "live"}))
	c.Put("dc2", "r", Version{UUID: "tomb", Timestamp: 200, Deleted: true})
	c.Heal("dc1", "dc2")
	c.Flush()

	for _, s := range []*Store{dc1, dc2} {
		if heads, err := s.Heads("r"); err != nil || len(heads) != 2 || !heads[0].Deleted {
			t.Fatalf("%s: heads = %+v, %v, want the tombstone ahead of the version it hides", s.Node(), heads, err)
		}
		_, losers, err := s.Get("r")
		if !errors.Is(err, ErrRowNotFound) {
			t.Fatalf("%s: err = %v, want ErrRowNotFound", s.Node(), err)
		}
		if len(losers) != 1 || losers[0].UUID != "live" || losers[0].Columns["v"] != "live" {
			t.Fatalf("%s: losers = %+v, want the live version", s.Node(), losers)
		}
		// Collapsed for good: a second read has nothing left to report.
		if _, losers, err := s.Get("r"); !errors.Is(err, ErrRowNotFound) || len(losers) != 0 {
			t.Fatalf("%s: second Get = %+v, %v", s.Node(), losers, err)
		}
		if heads, err := s.Heads("r"); err != nil || len(heads) != 1 || !heads[0].Deleted {
			t.Fatalf("%s: heads after collapse = %+v, %v, want the tombstone alone", s.Node(), heads, err)
		}
	}
}

func TestClusterResolutionConverges(t *testing.T) {
	c, dc1, dc2 := twoDC()
	c.Partition("dc1", "dc2")
	c.Put("dc1", "r", ver("a", 100, nil))
	c.Put("dc2", "r", ver("b", 200, nil))
	c.Heal("dc1", "dc2")
	c.Flush()
	dc1.Get("r") // resolve at dc1
	c.AntiEntropy()
	heads, err := dc2.Heads("r")
	if err != nil {
		t.Fatal(err)
	}
	if len(heads) != 1 || heads[0].UUID != "b" {
		t.Fatalf("dc2 after anti-entropy: %+v", heads)
	}
}

func TestClusterPartitionAndHeal(t *testing.T) {
	c, dc1, dc2 := twoDC()
	c.Partition("dc1", "dc2")
	c.Put("dc1", "r", ver("u1", 100, nil))
	c.Flush()
	if _, _, err := dc2.Get("r"); !errors.Is(err, ErrRowNotFound) {
		t.Fatal("partitioned peer must not receive the write")
	}
	if c.PendingReplication() == 0 {
		t.Fatal("events must queue during the partition")
	}
	c.Heal("dc1", "dc2")
	c.Flush()
	if _, _, err := dc2.Get("r"); err != nil {
		t.Fatalf("after heal: %v", err)
	}
	_ = dc1
}

// TestClusterQueueKeepsOrder: a write behind a severed link queues, and
// once the link heals a newer write does not overtake it — it joins the
// queue, and Flush delivers both in order.
func TestClusterQueueKeepsOrder(t *testing.T) {
	c, dc1, dc2 := twoDC()
	c.Partition("dc1", "dc2")
	c.Put("dc1", "r", ver("u1", 100, nil))
	c.Heal("dc1", "dc2")
	c.Put("dc1", "s", ver("u2", 200, nil))
	if _, _, err := dc2.Get("s"); !errors.Is(err, ErrRowNotFound) {
		t.Fatalf("a write jumped the queue: dc2 has s (%v)", err)
	}
	if n := c.PendingReplication(); n != 2 {
		t.Fatalf("%d events queued, want 2", n)
	}
	if n := c.Flush(); n != 2 {
		t.Fatalf("Flush delivered %d, want 2", n)
	}
	for _, row := range []string{"r", "s"} {
		for _, s := range []*Store{dc1, dc2} {
			if _, _, err := s.Get(row); err != nil {
				t.Fatalf("%s: %s: %v", s.Node(), row, err)
			}
		}
	}
	c.Put("dc1", "t", ver("u3", 300, nil))
	if _, _, err := dc2.Get("t"); err != nil || c.PendingReplication() != 0 {
		t.Fatalf("after Flush writes are direct again: %v, %d queued", err, c.PendingReplication())
	}
}

func TestClusterDownNodeCatchesUp(t *testing.T) {
	c, _, dc2 := twoDC()
	dc2.SetAvailable(false)
	c.Put("dc1", "r", ver("u1", 100, nil))
	if n := c.Flush(); n != 0 {
		t.Fatalf("delivered %d to a down node", n)
	}
	dc2.SetAvailable(true)
	c.Flush()
	if _, _, err := dc2.Get("r"); err != nil {
		t.Fatalf("recovered node must converge: %v", err)
	}
}

func TestClusterWritesSurviveSingleDCOutage(t *testing.T) {
	// §III-D3: "as long as a single database node is up and running, no
	// operation will fail".
	c, dc1, dc2 := twoDC()
	dc2.SetAvailable(false)
	if err := c.Put("dc1", "r", ver("u1", 100, nil)); err != nil {
		t.Fatalf("write during DC outage: %v", err)
	}
	if _, _, err := dc1.Get("r"); err != nil {
		t.Fatal(err)
	}
	_ = dc2
}

func TestClusterTombstoneReplicates(t *testing.T) {
	c, dc1, dc2 := twoDC()
	c.Put("dc1", "r", ver("u1", 100, nil))
	c.Flush()
	if err := dc1.Delete("r", "u2", 200); err != nil {
		t.Fatal(err)
	}
	c.AntiEntropy()
	if _, _, err := dc2.Get("r"); !errors.Is(err, ErrRowNotFound) {
		t.Fatalf("tombstone must replicate, got %v", err)
	}
}

func TestClusterThreeDatacenters(t *testing.T) {
	dc1, dc2, dc3 := NewStore("dc1"), NewStore("dc2"), NewStore("dc3")
	c := NewCluster(dc1, dc2, dc3)
	c.Put("dc1", "a", ver("u1", 1, nil))
	c.Put("dc2", "b", ver("u2", 2, nil))
	c.Put("dc3", "c", ver("u3", 3, nil))
	c.Flush()
	for _, s := range c.Stores() {
		if got := len(s.Rows()); got != 3 {
			t.Fatalf("%s has %d rows, want 3", s.Node(), got)
		}
	}
}

func TestClusterConcurrentUse(t *testing.T) {
	c, _, _ := twoDC()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			node := "dc1"
			if id%2 == 1 {
				node = "dc2"
			}
			for j := 0; j < 50; j++ {
				row := fmt.Sprintf("r%d", j%5)
				c.Put(node, row, ver(fmt.Sprintf("u%d-%d", id, j), int64(id*1000+j), nil))
				c.Flush()
			}
		}(g)
	}
	wg.Wait()
	c.AntiEntropy()
	// Resolve everything everywhere; stores must converge.
	for _, s := range c.Stores() {
		for _, row := range s.Rows() {
			s.Get(row)
		}
	}
	c.AntiEntropy()
	a, b := c.Stores()[0], c.Stores()[1]
	for _, row := range a.Rows() {
		va, _, _ := a.Get(row)
		vb, _, _ := b.Get(row)
		if va.UUID != vb.UUID {
			t.Fatalf("row %s diverged: %s vs %s", row, va.UUID, vb.UUID)
		}
	}
}
