package main

import (
	"context"
	"sync/atomic"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/obs"
)

// provSpan is one provider operation seen by a latencyBackend.
type provSpan struct {
	provider string
	op       string // put, putbatch, get, delete, list
	req      string // X-Request-ID of the causing request; "" = background
	start    int64  // ns since the tracer's epoch, before the injected latency
	end      int64
	storeNs  int64 // time inside the BlobStore call, latency excluded
	bytes    int64
	failed   bool
}

// class folds a batched put into "put": one provider round trip either way.
func (sp provSpan) class() string {
	if sp.op == "putbatch" {
		return "put"
	}
	return sp.op
}

// latencyBackend is the benchmark's provider: a simulated BlobStore
// that charges a fixed round-trip latency before every operation and,
// in a traced run, records a span per operation. It embeds the store,
// so billing (Meterer, StorageAccruer), chaos (AvailabilitySetter,
// PricingSetter, ChangeNotifierSetter) and batched repair writes
// (BatchWriter) behave exactly as on a bare BlobStore.
type latencyBackend struct {
	*cloud.BlobStore
	name    string
	latency time.Duration
	// on gates the injected latency: off while preloading, on before
	// warm-up. Shared by all providers of one deployment.
	on *atomic.Bool
	// tr is nil in untraced runs.
	tr *tracer
	// overshootNs/sleeps measure how late the latency timer fires.
	overshootNs atomic.Int64
	sleeps      atomic.Int64
}

func newLatencyBackend(spec cloud.Spec, latency time.Duration, on *atomic.Bool, tr *tracer) *latencyBackend {
	return &latencyBackend{
		BlobStore: cloud.NewBlobStore(spec),
		name:      spec.Name,
		latency:   latency,
		on:        on,
		tr:        tr,
	}
}

// wait charges the provider's round trip; a cancelled context ends it
// early with the context's error, as a real aborted request would.
func (b *latencyBackend) wait(ctx context.Context) error {
	if b.latency <= 0 || !b.on.Load() {
		return ctx.Err()
	}
	t0 := time.Now()
	timer := time.NewTimer(b.latency)
	defer timer.Stop()
	select {
	case <-timer.C:
		b.overshootNs.Add(int64(time.Since(t0) - b.latency))
		b.sleeps.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do runs one provider operation: latency, then the store call (which
// reports the payload bytes it moved), then — traced runs only — a span.
func (b *latencyBackend) do(ctx context.Context, op string, call func() (int64, error)) error {
	if b.tr == nil || !b.tr.on.Load() {
		if err := b.wait(ctx); err != nil {
			return err
		}
		_, err := call()
		return err
	}
	start := b.tr.now()
	err := b.wait(ctx)
	var storeNs, bytes int64
	if err == nil {
		s0 := b.tr.now()
		bytes, err = call()
		storeNs = b.tr.now() - s0
	}
	req := ""
	if t := obs.TraceFrom(ctx); t != nil {
		req = t.ID
	} else {
		// Cleanup deletes run on context.Background(); they still execute
		// on the handler goroutine, which the gateway wrapper registered.
		req = b.tr.reqOfGoroutine()
	}
	b.tr.addProvider(provSpan{
		provider: b.name, op: op, req: req,
		start: start, end: b.tr.now(), storeNs: storeNs,
		bytes: bytes, failed: err != nil,
	})
	return err
}

func (b *latencyBackend) Put(ctx context.Context, key string, data []byte) error {
	return b.do(ctx, "put", func() (int64, error) { return int64(len(data)), b.BlobStore.Put(ctx, key, data) })
}

// PutBatch is one provider round trip however many items it carries.
func (b *latencyBackend) PutBatch(ctx context.Context, items []cloud.BatchItem) error {
	return b.do(ctx, "putbatch", func() (int64, error) {
		var n int64
		for _, it := range items {
			n += int64(len(it.Data))
		}
		return n, b.BlobStore.PutBatch(ctx, items)
	})
}

func (b *latencyBackend) Get(ctx context.Context, key string) ([]byte, error) {
	var out []byte
	err := b.do(ctx, "get", func() (int64, error) {
		var err error
		out, err = b.BlobStore.Get(ctx, key)
		return int64(len(out)), err
	})
	return out, err
}

func (b *latencyBackend) Delete(ctx context.Context, key string) error {
	return b.do(ctx, "delete", func() (int64, error) { return 0, b.BlobStore.Delete(ctx, key) })
}

func (b *latencyBackend) List(ctx context.Context, prefix string) ([]string, error) {
	var out []string
	err := b.do(ctx, "list", func() (int64, error) {
		var err error
		out, err = b.BlobStore.List(ctx, prefix)
		return 0, err
	})
	return out, err
}

var (
	_ cloud.Backend     = (*latencyBackend)(nil)
	_ cloud.BatchWriter = (*latencyBackend)(nil)
)
