package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"scalia/internal/cloud"
)

func testBackend(latency time.Duration) (*latencyBackend, *atomic.Bool) {
	on := new(atomic.Bool)
	on.Store(true)
	return newLatencyBackend(cloud.PaperProviders()[0], latency, on, nil), on
}

// The registry and the engine find billing, chaos and batching through
// type assertions on the backend; the wrapper must not hide any.
func TestLatencyBackendKeepsOptionalInterfaces(t *testing.T) {
	b, _ := testBackend(0)
	var be cloud.Backend = b
	if _, ok := be.(cloud.Meterer); !ok {
		t.Error("not a cloud.Meterer")
	}
	if _, ok := be.(cloud.AvailabilitySetter); !ok {
		t.Error("not a cloud.AvailabilitySetter")
	}
	if _, ok := be.(cloud.PricingSetter); !ok {
		t.Error("not a cloud.PricingSetter")
	}
	if _, ok := be.(cloud.ChangeNotifierSetter); !ok {
		t.Error("not a cloud.ChangeNotifierSetter")
	}
	if _, ok := be.(cloud.BatchWriter); !ok {
		t.Error("not a cloud.BatchWriter")
	}
	if _, ok := be.(cloud.StorageAccruer); !ok {
		t.Error("not a cloud.StorageAccruer")
	}

	// Availability flipped through the registry must reach the store
	// and bump the market epoch exactly as for a bare BlobStore.
	reg := cloud.NewRegistry()
	reg.Register(b)
	before := reg.Epoch()
	if _, err := reg.UpdateAvailability(b.name, false); err != nil {
		t.Fatal(err)
	}
	if b.Available() || reg.Epoch() == before {
		t.Errorf("availability did not propagate: available=%v epoch %d -> %d", b.Available(), before, reg.Epoch())
	}
}

func TestLatencyChargedOncePerOpAndPerBatch(t *testing.T) {
	const lat = 20 * time.Millisecond
	b, on := testBackend(lat)
	ctx := context.Background()
	items := make([]cloud.BatchItem, 8)
	for i := range items {
		items[i] = cloud.BatchItem{Key: fmt.Sprintf("k%d", i), Data: []byte("x")}
	}
	// At least one latency each; the sleep counter below proves it was
	// exactly one (an upper bound on wall time would flake on a busy box).
	timed := func(name string, fn func() error) {
		t.Helper()
		t0 := time.Now()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := time.Since(t0); d < lat {
			t.Errorf("%s took %v, want at least the latency of %v", name, d, lat)
		}
	}
	timed("PutBatch", func() error { return b.PutBatch(ctx, items) })
	timed("Put", func() error { return b.Put(ctx, "p", []byte("y")) })
	timed("Get", func() error { _, err := b.Get(ctx, "p"); return err })
	timed("List", func() error { _, err := b.List(ctx, "k"); return err })
	timed("Delete", func() error { return b.Delete(ctx, "p") })
	if got := b.sleeps.Load(); got != 5 {
		t.Errorf("charged %d latencies, want 5", got)
	}

	on.Store(false) // preload mode
	t0 := time.Now()
	if err := b.Put(ctx, "q", []byte("z")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d >= lat {
		t.Errorf("latency off: Put took %v", d)
	}
}

func TestLatencySleepHonoursCancellation(t *testing.T) {
	b, _ := testBackend(5 * time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	t0 := time.Now()
	err := b.Put(ctx, "k", []byte("v"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Put under a cancelled context: err = %v", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("cancelled Put returned after %v", d)
	}
	if b.ObjectCount() != 0 {
		t.Error("a cancelled Put must not store anything")
	}
}

// provider_usd_per_user_gb is only meaningful if the wrapper bills
// exactly like the store it wraps.
func TestBillingParityWithBareBlobStore(t *testing.T) {
	ctx := context.Background()
	script := func(reg *cloud.Registry, stores []cloud.Backend) {
		for i, s := range stores {
			data := make([]byte, 1000*(i+1))
			s.Put(ctx, "a", data)                                                                                  //nolint:errcheck
			s.Put(ctx, "a", data[:500])                                                                            //nolint:errcheck // overwrite
			s.Get(ctx, "a")                                                                                        //nolint:errcheck
			s.Get(ctx, "missing")                                                                                  //nolint:errcheck // not billed
			s.List(ctx, "")                                                                                        //nolint:errcheck
			s.Delete(ctx, "missing")                                                                               //nolint:errcheck // not billed
			s.(cloud.BatchWriter).PutBatch(ctx, []cloud.BatchItem{{Key: "b", Data: data}, {Key: "c", Data: data}}) //nolint:errcheck
			s.Delete(ctx, "b")                                                                                     //nolint:errcheck
		}
		reg.AccrueStorage(2)
	}
	bare, wrapped := cloud.NewRegistry(), cloud.NewRegistry()
	var bareStores, wrappedStores []cloud.Backend
	on := new(atomic.Bool)
	on.Store(true)
	tr := newTracer()
	tr.on.Store(true) // span recording must not change billing either
	for _, spec := range cloud.PaperProviders() {
		bs := cloud.NewBlobStore(spec)
		bare.Register(bs)
		bareStores = append(bareStores, bs)
		lb := newLatencyBackend(spec, time.Millisecond, on, tr)
		wrapped.Register(lb)
		wrappedStores = append(wrappedStores, lb)
	}
	script(bare, bareStores)
	script(wrapped, wrappedStores)
	if a, b := bare.TotalUsage(), wrapped.TotalUsage(); a != b {
		t.Errorf("usage differs:\n bare    %v\n wrapped %v", a, b)
	}
	if a, b := bare.TotalCost(), wrapped.TotalCost(); a != b || a == 0 {
		t.Errorf("cost differs or is zero: bare %v, wrapped %v", a, b)
	}
	if n := len(tr.background); n != 8*len(wrappedStores) {
		t.Errorf("recorded %d provider spans, want %d", n, 8*len(wrappedStores))
	}
}
