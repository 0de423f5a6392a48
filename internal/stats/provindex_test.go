package stats

import (
	"reflect"
	"sort"
	"testing"
)

func TestProviderIndexSetDiffsMembership(t *testing.T) {
	ix := NewProviderIndex()
	ix.Set("c/a", []string{"P1", "P2"})
	ix.Set("c/b", []string{"P2", "P3"})
	if ix.Len() != 2 || ix.Count("P2") != 2 || ix.Count("P1") != 1 {
		t.Fatalf("after seed: len=%d P1=%d P2=%d", ix.Len(), ix.Count("P1"), ix.Count("P2"))
	}
	// Duplicate provider names in one placement index once.
	ix.Set("c/dup", []string{"P1", "P1", "P1"})
	if ix.Count("P1") != 2 {
		t.Fatalf("duplicate providers double-indexed: P1=%d", ix.Count("P1"))
	}
	// Re-set moves the object: stale postings drop, new ones appear.
	ix.Set("c/a", []string{"P3", "P4"})
	if ix.Count("P1") != 1 || ix.Count("P2") != 1 || ix.Count("P4") != 1 {
		t.Fatalf("re-set left stale postings: P1=%d P2=%d P4=%d",
			ix.Count("P1"), ix.Count("P2"), ix.Count("P4"))
	}
	if got := ix.ObjectsOn([]string{"P4"}); !reflect.DeepEqual(got, []string{"c/a"}) {
		t.Fatalf("ObjectsOn(P4) = %v", got)
	}
	// Idempotent re-set is a no-op.
	ix.Set("c/a", []string{"P3", "P4"})
	if ix.Len() != 3 || ix.Count("P3") != 2 {
		t.Fatalf("idempotent re-set mutated the index: len=%d P3=%d", ix.Len(), ix.Count("P3"))
	}
	// Setting an empty placement deletes the object outright.
	ix.Set("c/dup", nil)
	if ix.Len() != 2 || ix.Count("P1") != 0 {
		t.Fatalf("empty placement did not delete: len=%d P1=%d", ix.Len(), ix.Count("P1"))
	}
}

func TestProviderIndexDrop(t *testing.T) {
	ix := NewProviderIndex()
	ix.Set("c/a", []string{"P1", "P2"})
	ix.Set("c/b", []string{"P1"})
	ix.Drop("c/a")
	if ix.Len() != 1 || ix.Count("P1") != 1 || ix.Count("P2") != 0 {
		t.Fatalf("after drop: len=%d P1=%d P2=%d", ix.Len(), ix.Count("P1"), ix.Count("P2"))
	}
	// A provider with no postings vanishes from the name list.
	if names := ix.ProviderNames(); !reflect.DeepEqual(names, []string{"P1"}) {
		t.Fatalf("ProviderNames = %v", names)
	}
	ix.Drop("c/missing") // unknown object: no-op
	if ix.Len() != 1 {
		t.Fatalf("dropping a missing object changed the index")
	}
}

func TestProviderIndexObjectsSortedAndUnion(t *testing.T) {
	ix := NewProviderIndex()
	ix.Set("c/z", []string{"P1"})
	ix.Set("c/a", []string{"P1", "P2"})
	ix.Set("c/m", []string{"P2"})
	if got := ix.Objects("P1"); !sort.StringsAreSorted(got) || len(got) != 2 {
		t.Fatalf("Objects(P1) = %v, want 2 sorted", got)
	}
	// ObjectsOn unions without duplicating objects shared across the set.
	got := ix.ObjectsOn([]string{"P1", "P2", "P404"})
	want := []string{"c/a", "c/m", "c/z"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ObjectsOn = %v, want %v", got, want)
	}
	if got := ix.ObjectsOn(nil); len(got) != 0 {
		t.Fatalf("ObjectsOn(nil) = %v, want empty", got)
	}
	if got := ix.Objects("P404"); len(got) != 0 {
		t.Fatalf("Objects(unknown) = %v, want empty", got)
	}
}
