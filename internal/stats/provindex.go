package stats

import (
	"sort"
	"sync"
)

// ProviderIndex is the provider→objects inverted index behind
// O(affected) maintenance: instead of scanning every known object after
// a market event, repair and reoptimization enumerate only the objects
// that actually hold a chunk on the affected provider. The engine updates
// it with every metadata row it commits (Put, multipart complete,
// migrate, repair swap/restripe, Delete), under that row's lock, so it
// always mirrors the committed metadata.
//
// It is safe for concurrent use: commits of different rows arrive from
// many engines at once, while maintenance passes read it concurrently.
type ProviderIndex struct {
	mu sync.RWMutex
	// byProvider maps provider name -> set of objects with >=1 chunk
	// there.
	byProvider map[string]map[string]struct{}
	// byObject maps object -> the provider set it was last committed
	// with, so re-placement (migrate, repair) can diff out stale entries
	// without a full index walk.
	byObject map[string][]string
}

// NewProviderIndex returns an empty index.
func NewProviderIndex() *ProviderIndex {
	return &ProviderIndex{
		byProvider: make(map[string]map[string]struct{}),
		byObject:   make(map[string][]string),
	}
}

// Set records that object is now placed on exactly the given providers,
// replacing any previous placement. Provider names may repeat (an
// object can hold several chunks at one provider); duplicates collapse.
func (ix *ProviderIndex) Set(object string, providers []string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	// Diff out the old placement first.
	for _, p := range ix.byObject[object] {
		if set, ok := ix.byProvider[p]; ok {
			delete(set, object)
			if len(set) == 0 {
				delete(ix.byProvider, p)
			}
		}
	}
	dedup := make([]string, 0, len(providers))
	seen := make(map[string]struct{}, len(providers))
	for _, p := range providers {
		if _, dup := seen[p]; dup || p == "" {
			continue
		}
		seen[p] = struct{}{}
		dedup = append(dedup, p)
		set, ok := ix.byProvider[p]
		if !ok {
			set = make(map[string]struct{})
			ix.byProvider[p] = set
		}
		set[object] = struct{}{}
	}
	if len(dedup) == 0 {
		delete(ix.byObject, object)
		return
	}
	ix.byObject[object] = dedup
}

// Drop removes an object from the index (object deleted).
func (ix *ProviderIndex) Drop(object string) {
	ix.Set(object, nil)
}

// Objects returns the sorted objects holding at least one chunk on the
// named provider.
func (ix *ProviderIndex) Objects(provider string) []string {
	ix.mu.RLock()
	set := ix.byProvider[provider]
	out := make([]string, 0, len(set))
	for obj := range set {
		out = append(out, obj)
	}
	ix.mu.RUnlock()
	sort.Strings(out)
	return out
}

// ObjectsOn returns the sorted union of objects holding chunks on any
// of the named providers — the affected set of a multi-provider event.
func (ix *ProviderIndex) ObjectsOn(providers []string) []string {
	union := make(map[string]struct{})
	ix.mu.RLock()
	for _, p := range providers {
		for obj := range ix.byProvider[p] {
			union[obj] = struct{}{}
		}
	}
	ix.mu.RUnlock()
	out := make([]string, 0, len(union))
	for obj := range union {
		out = append(out, obj)
	}
	sort.Strings(out)
	return out
}

// Count returns the number of objects indexed on the named provider
// without materializing the key list.
func (ix *ProviderIndex) Count(provider string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.byProvider[provider])
}

// Len returns the number of indexed objects.
func (ix *ProviderIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.byObject)
}

// ProviderNames returns every provider currently carrying at least one
// indexed object, sorted — including providers since deregistered from
// the market, which is exactly the set repair must consider.
func (ix *ProviderIndex) ProviderNames() []string {
	ix.mu.RLock()
	out := make([]string, 0, len(ix.byProvider))
	for p := range ix.byProvider {
		out = append(out, p)
	}
	ix.mu.RUnlock()
	sort.Strings(out)
	return out
}
