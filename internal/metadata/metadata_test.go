package metadata

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
	if _, err := s.Put("row1", ver("u1", 100, map[string]string{"meta": "a"})); err != nil {
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
	heads, err := headsOf(s, "r")
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
}

// TestStoredVersionsNeverChange: a version Get or Scan returned, or a row
// holds as a head, is the stored one, shared, and still reads the same after later Puts,
// Flushes and a collapse of its row — every write builds a new version
// instead of editing one.
func TestStoredVersionsNeverChange(t *testing.T) {
	c, dc1, _ := twoDC()
	c.Put("dc1", "r", ver("a", 1, map[string]string{"k": "a"}))
	c.Put("dc1", "s", ver("x", 1, map[string]string{"k": "x"}))
	type held struct {
		v     Version
		clock VectorClock
		cols  map[string]string
	}
	var seen []held
	hold := func(vs ...Version) {
		for _, v := range vs {
			seen = append(seen, held{v, v.Clock.Clone(), maps.Clone(v.Columns)})
		}
	}
	got, _, err := dc1.Get("r")
	if err != nil {
		t.Fatal(err)
	}
	heads, _ := headsOf(dc1, "r")
	scanned, _ := dc1.Scan()
	hold(got)
	hold(heads...)
	hold(scanned...)

	c.Partition("dc1", "dc2")
	c.Put("dc1", "r", ver("b", 2, map[string]string{"k": "b"}))
	c.Put("dc2", "r", ver("c", 3, map[string]string{"k": "c"}))
	c.Put("dc1", "s", ver("y", 2, map[string]string{"k": "y"}))
	c.Heal("dc1", "dc2")
	c.Flush()
	heads, _ = headsOf(dc1, "r")
	hold(heads...)
	if len(heads) != 2 {
		t.Fatalf("%d heads, want the conflict staged", len(heads))
	}
	if winner, losers, err := dc1.Get("r"); err != nil || winner.UUID != "c" || len(losers) != 1 {
		t.Fatalf("collapse = %+v, %+v, %v", winner, losers, err)
	}
	c.Put("dc2", "r", ver("d", 4, map[string]string{"k": "d"}))
	c.Flush()

	for _, h := range seen {
		if h.v.Clock.Compare(h.clock) != Equal || !maps.Equal(h.v.Columns, h.cols) || h.v.Columns["k"] != h.v.UUID {
			t.Errorf("version %s changed: clock %v -> %v, columns %v -> %v", h.v.UUID, h.clock, h.v.Clock, h.cols, h.v.Columns)
		}
	}
}

// TestGetCollapseKeepsRacingWrite: a Get that collapses a conflicted row
// races a Put on it. The Put's version dominates every head it saw, so
// whichever lands first, it must be a head afterwards: a collapse of the
// heads read before the Put would overwrite it, and the acknowledged
// write would be neither served nor retired at that node.
func TestGetCollapseKeepsRacingWrite(t *testing.T) {
	const rounds = 5000
	lost := 0
	for i := 0; i < rounds; i++ {
		c, dc1, _ := twoDC()
		c.Partition("dc1", "dc2")
		c.Put("dc1", "r", ver("a", 1, nil))
		c.Put("dc2", "r", ver("b", 2, nil))
		c.Heal("dc1", "dc2")
		c.Flush()
		var arrived atomic.Int32
		meet := func() { // start both calls at once
			for arrived.Add(1); arrived.Load() < 2; {
				runtime.Gosched()
			}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			meet()
			dc1.Get("r") //nolint:errcheck
		}()
		meet()
		if err := c.Put("dc1", "r", ver("c", 3, nil)); err != nil {
			t.Fatal(err)
		}
		<-done
		heads, err := headsOf(dc1, "r")
		if err != nil || !slices.ContainsFunc(heads, func(v Version) bool { return v.UUID == "c" }) {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged writes lost to a racing collapse", lost, rounds)
	}
}

func TestStoreTombstone(t *testing.T) {
	s := NewStore("dc1")
	s.Put("r", ver("u1", 1, nil))
	if _, err := s.Put("r", Version{UUID: "u2", Timestamp: 2, Deleted: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("r"); !errors.Is(err, ErrRowNotFound) {
		t.Fatalf("deleted row err = %v", err)
	}
	if got := scanUUIDs(t, s); len(got) != 0 {
		t.Fatalf("Scan = %v", got)
	}
}

// scanUUIDs lists, sorted, the UUIDs of the versions Scan returns.
func scanUUIDs(t *testing.T, s *Store) []string {
	t.Helper()
	vs, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	var uuids []string
	for _, v := range vs {
		uuids = append(uuids, v.UUID)
	}
	sort.Strings(uuids)
	return uuids
}

// TestScanResolvesLikeGet: Scan returns a conflicted row's version Get
// would return, leaves the row out when a tombstone wins, and collapses
// nothing.
func TestScanResolvesLikeGet(t *testing.T) {
	c, dc1, _ := twoDC()
	c.Partition("dc1", "dc2")
	c.Put("dc1", "deleted", ver("live", 1, nil))
	c.Put("dc2", "deleted", Version{UUID: "gone", Timestamp: 2, Deleted: true})
	c.Put("dc1", "overwritten", ver("old", 1, nil))
	c.Put("dc2", "overwritten", ver("new", 2, nil))
	c.Heal("dc1", "dc2")
	c.Flush()

	if got := scanUUIDs(t, dc1); fmt.Sprint(got) != "[new]" {
		t.Fatalf("Scan = %v, want only overwritten's newest version", got)
	}
	for _, row := range []string{"deleted", "overwritten"} {
		if heads, _ := headsOf(dc1, row); len(heads) != 2 {
			t.Fatalf("%s has %d heads after Scan, want the conflict left for Get", row, len(heads))
		}
	}
	dc1.SetAvailable(false)
	if _, err := dc1.Scan(); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Scan on a down node = %v", err)
	}
}

func TestStoreDownNode(t *testing.T) {
	s := NewStore("dc1")
	s.Put("r", ver("u1", 1, nil))
	s.SetAvailable(false)
	if _, err := s.Put("r", ver("u2", 2, nil)); !errors.Is(err, ErrNodeDown) {
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
	if got := len(scanUUIDs(t, s)); got != 10 {
		t.Fatalf("rows = %d, want 10", got)
	}
	for j := 0; j < 10; j++ {
		if _, _, err := s.Get(fmt.Sprintf("row%d", j)); err != nil {
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
		heads, err := headsOf(s, "r")
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
		if heads, _ := headsOf(s, "r"); len(heads) != 1 {
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
		if heads, err := headsOf(s, "r"); err != nil || len(heads) != 2 || !heads[0].Deleted {
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
		if heads, err := headsOf(s, "r"); err != nil || len(heads) != 1 || !heads[0].Deleted {
			t.Fatalf("%s: heads after collapse = %+v, %v, want the tombstone alone", s.Node(), heads, err)
		}
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
	for _, row := range []string{"r", "s"} {
		if _, _, err := dc2.Get(row); !errors.Is(err, ErrRowNotFound) {
			t.Fatalf("a write jumped the queue: dc2 has %s (%v)", row, err)
		}
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
	if _, _, err := dc2.Get("t"); err != nil {
		t.Fatalf("after Flush writes are direct again: %v", err)
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
	c, _, dc2 := twoDC()
	c.Put("dc1", "r", ver("u1", 100, nil))
	if err := c.Put("dc1", "r", Version{UUID: "u2", Timestamp: 200, Deleted: true}); err != nil {
		t.Fatal(err)
	}
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
	for _, s := range []*Store{dc1, dc2, dc3} {
		if got := len(scanUUIDs(t, s)); got != 3 {
			t.Fatalf("%s has %d rows, want 3", s.Node(), got)
		}
	}
}

func TestClusterConcurrentUse(t *testing.T) {
	c, a, b := twoDC()
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
	c.Flush()
	// Resolve everything everywhere; stores must converge.
	for _, s := range []*Store{a, b} {
		for j := 0; j < 5; j++ {
			s.Get(fmt.Sprintf("r%d", j)) //nolint:errcheck
		}
	}
	for j := 0; j < 5; j++ {
		row := fmt.Sprintf("r%d", j)
		va, _, _ := a.Get(row)
		vb, _, _ := b.Get(row)
		if va.UUID != vb.UUID {
			t.Fatalf("row %s diverged: %s vs %s", row, va.UUID, vb.UUID)
		}
	}
}

// headsOf returns all current (mutually concurrent) versions of a row,
// tombstones included, newest first. A single head means no conflict.
func headsOf(s *Store, row string) ([]Version, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.down {
		return nil, ErrNodeDown
	}
	return newestFirst(s.rows[row])
}
