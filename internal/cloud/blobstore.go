package cloud

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Store is the minimal key-value blob interface every Scalia backend
// implements: simulated public providers, private storage resources, and
// the HTTP client for remote private stores. Every operation takes a
// context: cancelling it aborts the call (remote backends abort the HTTP
// request; the simulated store fails fast), which is how the engine's
// chunk fan-out is cancelled mid-flight.
//
// Ownership of the bytes: Put does not retain data, and Get's result is
// read-only to the caller, who may hold it for as long as it likes — a
// store that hands out the bytes it keeps never writes them again.
type Store interface {
	Put(ctx context.Context, key string, data []byte) error
	Get(ctx context.Context, key string) ([]byte, error)
	Delete(ctx context.Context, key string) error
	List(ctx context.Context, prefix string) ([]string, error)
}

// Errors returned by blob stores.
var (
	ErrUnavailable  = errors.New("cloud: provider unavailable")
	ErrNotFound     = errors.New("cloud: object not found")
	ErrTooLarge     = errors.New("cloud: object exceeds provider chunk-size limit")
	ErrOverCapacity = errors.New("cloud: provider capacity exhausted")
)

// BlobStore is an in-memory simulated storage provider. All operations
// are metered; transient failures can be injected with SetAvailable,
// matching the §IV-E active-repair experiment.
type BlobStore struct {
	mu sync.RWMutex
	// spec is guarded by mu: the price sheet can change at runtime
	// (SetPricing market events); everything else is fixed at creation.
	spec    Spec
	objects map[string][]byte
	used    int64
	down    bool
	// notify is the registry back-reference installed at Register time:
	// it is called (outside the store lock) whenever availability
	// changes, so failure injected directly on the backend — bypassing
	// Registry.UpdateAvailability — still bumps the market epoch and
	// invalidates cached placement searches.
	notify func()

	meter Meter
}

// NewBlobStore creates an empty simulated provider with the given spec.
func NewBlobStore(spec Spec) *BlobStore {
	return &BlobStore{spec: spec, objects: make(map[string][]byte)}
}

// Spec returns the provider's description and price sheet.
func (s *BlobStore) Spec() Spec {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.spec
}

// SetPricing replaces the provider's price sheet at runtime — the
// paper's market price event (§IV-D, a provider "suddenly increasing
// its pricing policy"). When the store is attached to a registry, the
// change is pushed back so the market epoch advances and cached
// placement searches re-plan against the new prices.
func (s *BlobStore) SetPricing(p Pricing) {
	s.mu.Lock()
	changed := s.spec.Pricing != p
	s.spec.Pricing = p
	notify := s.notify
	s.mu.Unlock()
	if changed && notify != nil {
		notify()
	}
}

// Meter returns the provider's billing meter.
func (s *BlobStore) Meter() *Meter { return &s.meter }

// SetAvailable injects or clears a transient outage. While down, every
// operation fails with ErrUnavailable but stored data is retained (the
// paper's transient failures recover with data intact). When the store
// is attached to a registry, the availability flip is pushed back so
// the market epoch advances even though the registry was bypassed.
func (s *BlobStore) SetAvailable(up bool) {
	s.mu.Lock()
	changed := s.down == up
	s.down = !up
	notify := s.notify
	s.mu.Unlock()
	if changed && notify != nil {
		notify()
	}
}

// SetChangeNotifier installs (or clears, with nil) the registry
// back-reference; Registry.Register calls it.
func (s *BlobStore) SetChangeNotifier(fn func()) {
	s.mu.Lock()
	s.notify = fn
	s.mu.Unlock()
}

// Available reports whether the provider is currently reachable.
func (s *BlobStore) Available() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.down
}

// Put stores data under key, replacing any previous value.
func (s *BlobStore) Put(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if key == "" {
		return fmt.Errorf("cloud: empty key")
	}
	cp := bytes.Clone(data) // outside the lock: other keys stay served meanwhile
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return fmt.Errorf("%w: %s", ErrUnavailable, s.spec.Name)
	}
	if s.spec.MaxChunkBytes > 0 && int64(len(data)) > s.spec.MaxChunkBytes {
		return fmt.Errorf("%w: %s limit %d got %d", ErrTooLarge, s.spec.Name, s.spec.MaxChunkBytes, len(data))
	}
	delta := int64(len(data))
	if old, ok := s.objects[key]; ok {
		delta -= int64(len(old))
	}
	if s.spec.CapacityBytes > 0 && s.used+delta > s.spec.CapacityBytes {
		return fmt.Errorf("%w: %s", ErrOverCapacity, s.spec.Name)
	}
	s.objects[key] = cp
	s.used += delta
	s.meter.RecordIn(int64(len(data)))
	return nil
}

// BatchItem is one write of a provider batch.
type BatchItem struct {
	Key  string
	Data []byte
}

// BatchWriter is implemented by backends that can accept many chunk
// writes in one provider round-trip. The broker does not call it — it
// writes every chunk with Put, since none of the paper's providers
// offers a multi-object PUT — but a backend may still implement it, and
// the conformance table holds any that does to all-or-nothing.
type BatchWriter interface {
	PutBatch(ctx context.Context, items []BatchItem) error
}

// PutBatch stores every item under one lock acquisition — the simulated
// equivalent of a single provider round-trip. Validation (availability,
// chunk-size limit, capacity) runs over the whole batch before any
// write lands, so a rejected batch leaves the store untouched; each
// item is still metered individually, keeping billing identical to
// per-item Puts.
func (s *BlobStore) PutBatch(ctx context.Context, items []BatchItem) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return fmt.Errorf("%w: %s", ErrUnavailable, s.spec.Name)
	}
	var delta int64
	for _, it := range items {
		if it.Key == "" {
			return fmt.Errorf("cloud: empty key")
		}
		if s.spec.MaxChunkBytes > 0 && int64(len(it.Data)) > s.spec.MaxChunkBytes {
			return fmt.Errorf("%w: %s limit %d got %d", ErrTooLarge, s.spec.Name, s.spec.MaxChunkBytes, len(it.Data))
		}
		delta += int64(len(it.Data))
		if old, ok := s.objects[it.Key]; ok {
			delta -= int64(len(old))
		}
	}
	if s.spec.CapacityBytes > 0 && s.used+delta > s.spec.CapacityBytes {
		return fmt.Errorf("%w: %s", ErrOverCapacity, s.spec.Name)
	}
	for _, it := range items {
		// Not make + copy: through a struct field that compiles to a
		// zeroing makeslice, and every byte is about to be overwritten.
		cp := bytes.Clone(it.Data)
		if old, ok := s.objects[it.Key]; ok {
			s.used -= int64(len(old))
		}
		s.objects[it.Key] = cp
		s.used += int64(len(cp))
		s.meter.RecordIn(int64(len(cp)))
	}
	return nil
}

// Get retrieves the object stored under key: the stored slice itself.
// Put and PutBatch install fresh copies and Delete drops the reference,
// so a slice handed out keeps its bytes.
func (s *BlobStore) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.down {
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, s.spec.Name)
	}
	data, ok := s.objects[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, s.spec.Name, key)
	}
	s.meter.RecordOut(int64(len(data)))
	return data, nil
}

// Delete removes the object stored under key. Deleting a missing key is
// an error so the engine can distinguish postponed deletes.
func (s *BlobStore) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return fmt.Errorf("%w: %s", ErrUnavailable, s.spec.Name)
	}
	data, ok := s.objects[key]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, s.spec.Name, key)
	}
	s.used -= int64(len(data))
	delete(s.objects, key)
	s.meter.RecordOp()
	return nil
}

// List returns the keys with the given prefix, sorted.
func (s *BlobStore) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.down {
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, s.spec.Name)
	}
	var keys []string
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	s.meter.RecordOp()
	return keys, nil
}

// UsedBytes returns the total bytes currently stored.
func (s *BlobStore) UsedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.used
}

// ObjectCount returns the number of stored objects.
func (s *BlobStore) ObjectCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// AccrueStorage meters the current footprint held for the given hours.
func (s *BlobStore) AccrueStorage(hours float64) {
	s.meter.AccrueStorage(s.UsedBytes(), hours)
}

var (
	_ Store       = (*BlobStore)(nil)
	_ BatchWriter = (*BlobStore)(nil)
)
