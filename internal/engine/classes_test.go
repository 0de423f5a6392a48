package engine

import (
	"fmt"
	"testing"

	"scalia/internal/core"
)

// TestClassStatsImproveFirstPlacement verifies the Fig. 6 behaviour: a
// new object has no access history, so Scalia uses the statistics of
// its class to make the first placement. After the broker observes many
// heavily-read small images, a brand-new image of the same class must be
// born on a read-optimized (low-m) set, while a fresh class with no
// statistics defaults to a write/storage-shaped placement.
func TestClassStatsImproveFirstPlacement(t *testing.T) {
	clock := NewSimClock()
	b := newTestBroker(t, Config{Clock: clock})
	e := b.Engine(0)
	rule := core.Rule{Name: "img", Durability: 0.99999, Availability: 0.9999, LockIn: 1}

	// A cold object with no class history lands on the storage-optimal
	// wide set (high m).
	coldMeta, err := e.Put(ctx, "pics", "first.gif", make([]byte, 256<<10),
		PutOptions{MIME: "image/gif", Rule: &rule})
	if err != nil {
		t.Fatal(err)
	}
	if coldMeta.M < 2 {
		t.Fatalf("cold first placement m=%d, expected a wide storage set", coldMeta.M)
	}

	// Train the class: many popular images of the same class.
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("train%d.gif", i)
		if _, err := e.Put(ctx, "pics", key, make([]byte, 256<<10),
			PutOptions{MIME: "image/gif", Rule: &rule}); err != nil {
			t.Fatal(err)
		}
	}
	for h := 0; h < 4; h++ {
		clock.Advance(1)
		for i := 0; i < 10; i++ {
			key := fmt.Sprintf("train%d.gif", i)
			for r := 0; r < 40; r++ {
				if _, _, err := e.Get(ctx, "pics", key); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// A brand-new object of the trained class must be born read-optimized.
	newMeta, err := e.Put(ctx, "pics", "fresh.gif", make([]byte, 256<<10),
		PutOptions{MIME: "image/gif", Rule: &rule})
	if err != nil {
		t.Fatal(err)
	}
	if newMeta.M != 1 {
		t.Fatalf("class-informed first placement m=%d want 1 (chunks %v)",
			newMeta.M, newMeta.Chunks)
	}
	if newMeta.Class != coldMeta.Class {
		t.Fatal("same mime and size bucket must share a class")
	}

	// A different class (different size bucket) is unaffected.
	otherMeta, err := e.Put(ctx, "pics", "huge.gif", make([]byte, 8<<20),
		PutOptions{MIME: "image/gif", Rule: &rule})
	if err != nil {
		t.Fatal(err)
	}
	if otherMeta.Class == newMeta.Class {
		t.Fatal("8 MB image must classify differently from 256 KB image")
	}
}

// TestDeletionLifetimesFeedTTL: deleting objects of a class builds its
// lifetime distribution, which then bounds new objects' decision
// periods (observable through the class TTL estimate).
func TestDeletionLifetimesFeedTTL(t *testing.T) {
	clock := NewSimClock()
	b := newTestBroker(t, Config{Clock: clock})
	e := b.Engine(0)

	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("tmp%d.log", i)
		if _, err := e.Put(ctx, "logs", key, make([]byte, 1024), PutOptions{MIME: "text/log"}); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(6) // objects live 6 hours
	for i := 0; i < 5; i++ {
		if err := e.Delete(ctx, "logs", fmt.Sprintf("tmp%d.log", i)); err != nil {
			t.Fatal(err)
		}
	}

	meta, err := e.Put(ctx, "logs", "new.log", make([]byte, 1024), PutOptions{MIME: "text/log"})
	if err != nil {
		t.Fatal(err)
	}
	ttl, ok := b.Stats().Classes().ExpectedTTL(meta.Class, 0)
	if !ok {
		t.Fatal("class lifetime distribution missing after deletions")
	}
	if ttl != 6 {
		t.Fatalf("expected TTL = %v, want 6 (all observed lifetimes were 6h)", ttl)
	}
}
