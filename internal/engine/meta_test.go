package engine

import (
	"reflect"
	"testing"

	"scalia/internal/metadata"
)

// TestDecodedMetaIsPerVersionAndUnshared pins the row memo: a version
// carries the value it encodes, every decode is the caller's own (no
// slice shared with the writer, the store or the next decode), a version
// without one still parses its column to the same value, and a swap —
// the same UUID republished with a new timestamp and new Chunks — decodes
// to the new layout, never to the one remembered for that UUID.
func TestDecodedMetaIsPerVersionAndUnshared(t *testing.T) {
	meta := ObjectMeta{
		Container: "c", Key: "k", Size: 5000, UUID: "u1", SKey: "s", M: 2,
		Chunks: []string{"A", "B", "C"}, Stripes: 2, StripeBytes: 4096,
		Sums:        []StripeSum{{Payload: 1, Chunks: []uint32{10, 11, 12}}, {Payload: 2, Chunks: []uint32{20, 21, 22}}},
		PartStripes: []int{1, 1},
	}
	v, err := encodeMeta(meta, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := decodeMeta(metadata.Version{Columns: v.Columns}) // the JSON path
	if err != nil || !reflect.DeepEqual(want, meta) {
		t.Fatalf("column decodes to %+v (%v), want %+v", want, err, meta)
	}
	meta.Chunks[0], meta.Sums[1].Chunks[2], meta.PartStripes[0] = "writer", 99, 9 // the writer moves on

	store := metadata.NewStore("dc1")
	if err := store.Put("row", v); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		stored, _, err := store.Get("row")
		if err != nil {
			t.Fatal(err)
		}
		if stored.Decoded == nil {
			t.Fatal("the stored version lost its decoded value")
		}
		got, err := decodeMeta(stored)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: decoded %+v (%v), want %+v", round, got, err, want)
		}
		got.Chunks[0], got.Sums[0].Chunks[0], got.PartStripes[1] = "reader", 77, 7
		got.Sums[1] = StripeSum{}
	}

	swapped := want
	swapped.Chunks = []string{"A", "D", "C"}
	sv, err := encodeMeta(swapped, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("row", sv); err != nil {
		t.Fatal(err)
	}
	stored, _, err := store.Get("row")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeMeta(stored); err != nil || stored.UUID != "u1" || !reflect.DeepEqual(got, swapped) {
		t.Fatalf("after the swap: decoded %+v (%v), want %+v", got, err, swapped)
	}
}
