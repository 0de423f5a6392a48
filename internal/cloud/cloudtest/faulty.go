// Package cloudtest arms provider faults for tests and benchmarks: one
// simulated provider, Faulty, that can be slowed, failed, stalled and
// counted op by op, and that holds the writer to the lent-bytes side of
// the cloud.Store contract. It meets the Store contract itself
// (internal/cloud's conformance table has a Faulty row), so a test that
// stands on it stands on a provider like the ones it stands in for.
package cloudtest

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/crc32c"
)

// Hook runs before an op reaches the store: a non-nil error fails the op
// with it, and a hook that blocks stalls the op.
type Hook func(ctx context.Context, key string) error

// Faulty is a simulated provider with faults armed per op. Everything
// but Get, Put and Delete — availability, pricing, change notification,
// metering, List and PutBatch — is the embedded store's own, so every
// optional interface the engine asserts for is the store's.
// It still reports Available() while its hooks fail: the §III-D3
// provider that dies between ranking and fetch.
//
// Arm it before the ops it should see; the fields are not synchronised.
type Faulty struct {
	*cloud.BlobStore
	// GetDelay, PutDelay and DeleteDelay are waited out before each op of
	// the kind, or until the op's ctx ends: a provider round trip.
	GetDelay, PutDelay, DeleteDelay time.Duration
	// OnGet, OnPut and OnDelete, when set, run after the delay.
	OnGet, OnPut, OnDelete Hook
	// Gets counts the Gets that reached the store; GetErrs those the
	// delay's ctx or OnGet failed first.
	Gets, GetErrs atomic.Int64
}

// ErrLentBytesChanged is what a Put returns when its data changed while
// the Put held it.
var ErrLentBytesChanged = errors.New("cloudtest: data changed while Put held it")

// Wrap registers a Faulty around every provider of market, which must be
// *cloud.BlobStores, in a new registry, and returns it with the Faultys in
// market order.
func Wrap(market *cloud.Registry) (*cloud.Registry, []*Faulty) {
	reg := cloud.NewRegistry()
	var fs []*Faulty
	for _, s := range market.Snapshot() {
		f := &Faulty{BlobStore: s.(*cloud.BlobStore)}
		fs = append(fs, f)
		reg.Register(f)
	}
	return reg, fs
}

// before waits out delay and runs hook.
func before(ctx context.Context, delay time.Duration, hook Hook, key string) error {
	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if hook != nil {
		return hook(ctx, key)
	}
	return nil
}

func (f *Faulty) Get(ctx context.Context, key string) ([]byte, error) {
	if err := before(ctx, f.GetDelay, f.OnGet, key); err != nil {
		f.GetErrs.Add(1)
		return nil, err
	}
	f.Gets.Add(1)
	return f.BlobStore.Get(ctx, key)
}

// Put also holds the writer to its side of the Store contract: data is
// lent to Put until it returns (the write path recycles a stripe's chunks
// only after its writes), so a Put whose bytes changed between its entry
// — before the delay and the hook, which may stall it — and its return
// fails with ErrLentBytesChanged.
func (f *Faulty) Put(ctx context.Context, key string, data []byte) error {
	sum := crc32c.Checksum(data)
	err := before(ctx, f.PutDelay, f.OnPut, key)
	if err == nil {
		err = f.BlobStore.Put(ctx, key, data)
	}
	if crc32c.Checksum(data) != sum {
		return fmt.Errorf("%w: %s", ErrLentBytesChanged, key)
	}
	return err
}

func (f *Faulty) Delete(ctx context.Context, key string) error {
	if err := before(ctx, f.DeleteDelay, f.OnDelete, key); err != nil {
		return err
	}
	return f.BlobStore.Delete(ctx, key)
}

// Stall returns a Hook that holds each op on a key match accepts (every
// key, when match is nil) until release is closed or the op's ctx ends.
// A held op first sends on held, when it is not nil.
func Stall(match func(key string) bool, held chan<- struct{}, release <-chan struct{}) Hook {
	return func(ctx context.Context, key string) error {
		if match != nil && !match(key) {
			return nil
		}
		if held != nil {
			select {
			case held <- struct{}{}:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// CancelAt returns a Hook that calls cancel at the nth op it sees,
// counted across every Faulty it is armed on, and fails none.
func CancelAt(n int64, cancel context.CancelFunc) Hook {
	var seen atomic.Int64
	return func(context.Context, string) error {
		if seen.Add(1) == n {
			cancel()
		}
		return nil
	}
}

var (
	_ cloud.Backend     = (*Faulty)(nil)
	_ cloud.BatchWriter = (*Faulty)(nil)
)
