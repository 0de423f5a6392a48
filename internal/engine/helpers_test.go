package engine

import (
	"bytes"
	"context"
	"slices"

	"scalia/internal/erasure"
)

// The engine's buffered calls and its whole-object check. Only tests
// make them: the v1 contract streams (PutReader, GetReader, DeleteIf),
// and scalia.Helpers buffers on top of it.

// Put stores (or updates) an object from an in-memory payload.
func (e *Engine) Put(ctx context.Context, container, key string, data []byte, opts PutOptions) (ObjectMeta, error) {
	return e.PutReader(ctx, container, key, bytes.NewReader(data), int64(len(data)), opts)
}

// Get serves an object fully buffered.
func (e *Engine) Get(ctx context.Context, container, key string) ([]byte, ObjectMeta, error) {
	rc, meta, err := e.GetReader(ctx, container, key)
	if err != nil {
		return nil, ObjectMeta{}, err
	}
	defer rc.Close()
	data, err := ReadSized(rc, meta.Size)
	if err != nil {
		return nil, ObjectMeta{}, err
	}
	return data, meta, nil
}

// Delete removes an object unconditionally.
func (e *Engine) Delete(ctx context.Context, container, key string) error {
	return e.DeleteIf(ctx, container, key, "")
}

// VerifyObject checks that an object's stored chunks are sufficient,
// decode to the stored per-stripe sums and are parity-consistent across
// every stripe, returning the minimum over the stripes of the chunks that
// are reachable and pass their own sum — a rotten chunk counts as a lost
// one, and is noted for the maintenance queue like any a read finds.
// Verification reads every reachable chunk from its provider (never the
// stripe cache — a cached stripe proves nothing about chunk health). It
// pins the version it checks like any reader.
func (e *Engine) VerifyObject(ctx context.Context, container, key string) (reachable int, err error) {
	or, err := e.openObject(ctx, container, key, false)
	if err != nil {
		return 0, err
	}
	defer or.Close()
	meta := or.meta
	l, err := e.layoutOf(meta)
	if err != nil {
		return 0, err
	}
	n := len(meta.Chunks)
	// Fewer than m reachable is reported by the fetch, with the count.
	order, _ := l.rank(nil)
	// Per-stripe reachable counts; a stripe never read, or cut short by
	// another stripe's failure, does not lower the minimum.
	got := make([]int, l.stripes)
	for s := range got {
		got[s] = n
	}
	p := e.b.newStripePipe(ctx, nil, e.b.cfg.ReadParallelism, 0, l.stripes,
		func(ctx context.Context, s int) (func() (stripeOut, error), error) {
			return func() (stripeOut, error) {
				f, err := e.fetch(ctx, l, s, order, len(order), nil)
				if ctx.Err() == nil {
					got[s] = f.got
				}
				if err == nil && f.got == n {
					var ok bool
					if ok, err = l.coder.Verify(f.chunks); err == nil && !ok {
						err = ErrChecksum
					}
				}
				erasure.ReleaseScratch(f.scratch)
				return stripeOut{}, err
			}, nil
		})
	err = p.drain()
	return slices.Min(got), err
}
