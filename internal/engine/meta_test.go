package engine

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/metadata"
)

// TestDecodedMetaIsPerVersionAndUnshared pins the row's value: a version
// carries its own copy of the ObjectMeta it was made from (no slice shared
// with the writer, the pinned rule and its zones included), every read of
// the row shares that one value, and a swap — the same UUID republished
// with a new timestamp, new Chunks and new Gens — reads as the new layout,
// never as the one remembered for that UUID.
func TestDecodedMetaIsPerVersionAndUnshared(t *testing.T) {
	meta := ObjectMeta{
		Container: "c", Key: "k", Size: 5000, UUID: "u1", SKey: "s", M: 2,
		Chunks: []string{"A", "B", "C"}, Stripes: 2, StripeBytes: 4096,
		Sums:        []StripeSum{{Payload: 1, Chunks: []uint32{10, 11, 12}}, {Payload: 2, Chunks: []uint32{20, 21, 22}}},
		PartStripes: []int{1, 1},
		Gens:        []uint64{4, 4, 4, 5, 9, 5},
		Rule:        &core.Rule{Name: "pinned", Durability: 0.99, Availability: 0.99, Zones: []cloud.Zone{cloud.ZoneEU, cloud.ZoneUS}, LockIn: 1},
	}
	v := rowVersion(meta, 7)
	if v.Columns != nil {
		t.Fatalf("the version carries columns %v beside its value", v.Columns)
	}
	want := meta.clone()
	meta.Chunks[0], meta.Sums[1].Chunks[2], meta.PartStripes[0], meta.Gens[4] = "writer", 99, 9, 99 // the writer moves on
	meta.Rule.Name, meta.Rule.Zones[0] = "writer", cloud.ZoneAPAC

	store := metadata.NewStore("dc1")
	if _, err := store.Put("row", v); err != nil {
		t.Fatal(err)
	}
	var first *ObjectMeta
	for round := 0; round < 2; round++ {
		stored, _, err := store.Get("row")
		if err != nil {
			t.Fatal(err)
		}
		got, err := viewMeta(stored)
		if err != nil || !reflect.DeepEqual(*got, want) {
			t.Fatalf("round %d: read %+v (%v), want %+v", round, got, err, want)
		}
		if first == nil {
			first = got
		} else if got != first {
			t.Fatal("two reads of one version hold two values: a read copied it")
		}
	}

	swapped := want
	swapped.Chunks = []string{"A", "D", "C"}
	swapped.Gens = []uint64{4, 12, 4, 5, 12, 5}
	if _, err := store.Put("row", rowVersion(swapped, 8)); err != nil {
		t.Fatal(err)
	}
	stored, _, err := store.Get("row")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := viewMeta(stored); err != nil || stored.UUID != "u1" || !reflect.DeepEqual(*got, swapped) {
		t.Fatalf("after the swap: read %+v (%v), want %+v", got, err, swapped)
	}
	if !reflect.DeepEqual(*first, want) {
		t.Fatalf("the swap changed the version it replaced: %+v", *first)
	}
}

// TestMalformedGensFailClosed: a row whose generations do not cover its
// chunk columns has no layout — every read of it fails with an error before
// a provider is asked, and naming a chunk of it does not panic.
func TestMalformedGensFailClosed(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024})
	e := b.Engine(0)
	meta, err := e.Put(ctx, "c", "k", testPayload(3*1024), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, gens := range map[string][]uint64{
		"short": make([]uint64, len(meta.Chunks)-1),
		"long":  make([]uint64, len(meta.Chunks)+1),
	} {
		bad := meta
		bad.Gens = gens
		l, err := e.layoutOf(bad)
		if err == nil {
			t.Fatalf("%s: layoutOf accepted %d generations for %d slots", name, len(gens), len(meta.Chunks))
		}
		if key := l.key(0, len(meta.Chunks)-1); key != meta.chunkKey(0, len(meta.Chunks)-1) {
			t.Fatalf("%s: an uncovered column names %s, want generation 0", name, key)
		}
		if _, err := e.publish("c", "k", nil, func(*ObjectMeta) (*ObjectMeta, error) { return &bad, nil }); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Get(ctx, "c", "k"); err == nil {
			t.Fatalf("%s: GET served a row with malformed generations", name)
		}
		if _, err := e.VerifyObject(ctx, "c", "k"); err == nil {
			t.Fatalf("%s: VerifyObject accepted a row with malformed generations", name)
		}
	}
}

// FuzzDecodeMeta parses arbitrary JSON as an ObjectMeta, packs it through
// rowVersion and reads it back through viewMeta, runs it through layoutOf
// and names every chunk of what comes out: hostile or damaged rows may
// fail, never panic.
func FuzzDecodeMeta(f *testing.F) {
	seed, err := json.Marshal(ObjectMeta{
		Container: "c", Key: "k", Size: 5000, UUID: "u1", SKey: "s", M: 2,
		Chunks: []string{"A", "B", "C"}, Stripes: 2, StripeBytes: 4096,
		Sums:        []StripeSum{{Payload: 1, Chunks: []uint32{10, 11, 12}}, {Payload: 2, Chunks: []uint32{20, 21, 22}}},
		PartStripes: []int{1, 1}, Gens: []uint64{4, 4, 4, 5, 9, 5},
		Rule: &core.Rule{Name: "Rule 2", Zones: []cloud.Zone{cloud.ZoneEU}, LockIn: 1},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add(`{"m":2,"chunks":["A","B","C"],"gens":[1]}`)
	f.Add(`{"m":0,"chunks":[],"stripes":-1,"partStripes":[-3,9223372036854775807],"gens":[1,2]}`)
	b := NewBroker(Config{})
	f.Cleanup(b.Close)
	e := b.Engine(0)
	f.Fuzz(func(t *testing.T, column string) {
		var parsed ObjectMeta
		if json.Unmarshal([]byte(column), &parsed) != nil {
			return
		}
		meta, err := viewMeta(rowVersion(parsed, 1))
		if err != nil {
			t.Fatal(err)
		}
		l, _ := e.layoutOf(*meta) // a layout that failed must still not panic whoever deletes through it
		for s := 0; s < min(l.stripes, 64); s++ {
			l.stripeLen(s)
			for i := range l.names {
				l.key(s, i)
			}
		}
		clone := meta.clone()
		if len(clone.Gens) > 0 {
			clone.Gens[0]++
			if clone.Gens[0] == meta.Gens[0] {
				t.Fatal("clone shares Gens with its source")
			}
		}
		if clone.Rule != nil && len(clone.Rule.Zones) > 0 {
			clone.Rule.Zones[0] += "!"
			if clone.Rule == meta.Rule || clone.Rule.Zones[0] == meta.Rule.Zones[0] {
				t.Fatal("clone shares its rule with its source")
			}
		}
	})
}

// TestChunkKeysKeepTheirFormat: the strconv-built keys are the ones the
// fmt format "%s/s%05d/chunk%03d.%d" (and its /p%05d part form) gives,
// past the padding widths too, and building one allocates only the
// string.
func TestChunkKeysKeepTheirFormat(t *testing.T) {
	skeys := []string{"", StorageKey("bk", "obj", NewUUID()), strings.Repeat("k", 200)}
	nums := []int{0, 7, 99, 999, 1000, 12345, 99999, 123456}
	gens := []uint64{0, 1, 42, 1<<64 - 1}
	for _, skey := range skeys {
		for _, s := range nums {
			for _, i := range nums[:5] {
				for _, gen := range gens {
					if got, want := ChunkKey(skey, s, i, gen), fmt.Sprintf("%s/s%05d/chunk%03d.%d", skey, s, i, gen); got != want {
						t.Fatalf("ChunkKey = %q, want %q", got, want)
					}
					part := s%7 + 1
					if got, want := PartChunkKey(skey, part, s, i, gen), fmt.Sprintf("%s/p%05d/s%05d/chunk%03d.%d", skey, part, s, i, gen); got != want {
						t.Fatalf("PartChunkKey = %q, want %q", got, want)
					}
				}
			}
		}
	}
	skey := skeys[1]
	if a := testing.AllocsPerRun(100, func() { _ = ChunkKey(skey, 3, 2, 17) }); a != 1 {
		t.Errorf("ChunkKey: %v allocs, want 1 (the string)", a)
	}
	if a := testing.AllocsPerRun(100, func() { _ = PartChunkKey(skey, 4, 3, 2, 17) }); a != 1 {
		t.Errorf("PartChunkKey: %v allocs, want 1 (the string)", a)
	}
}
