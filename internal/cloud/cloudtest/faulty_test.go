package cloudtest

import (
	"context"
	"errors"
	"testing"

	"scalia/internal/cloud"
)

// TestFaultyHoldsWhatItPromises: a Put whose lent bytes change while it
// is held fails, and a Get is counted as served or failed. (The Store
// contract is internal/cloud's conformance table; Stall and CancelAt
// are armed by the engine's tests.)
func TestFaultyHoldsWhatItPromises(t *testing.T) {
	ctx := context.Background()
	f := &Faulty{BlobStore: cloud.NewBlobStore(cloud.Spec{Name: "A"})}
	data := []byte("lent")
	f.OnPut = func(context.Context, string) error { data[0] = 'L'; return nil }
	if err := f.Put(ctx, "k", data); !errors.Is(err, ErrLentBytesChanged) {
		t.Fatalf("Put with its bytes changed while held: %v", err)
	}
	f.OnGet = func(_ context.Context, key string) error {
		if key == "bad" {
			return errors.New("injected")
		}
		return nil
	}
	f.Get(ctx, "k")
	f.Get(ctx, "bad")
	if f.Gets.Load() != 1 || f.GetErrs.Load() != 1 {
		t.Fatalf("Gets = %d, GetErrs = %d; want 1, 1", f.Gets.Load(), f.GetErrs.Load())
	}
}
