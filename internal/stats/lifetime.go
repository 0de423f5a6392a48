package stats

import (
	"math"
	"sort"
	"sync"
)

// LifetimeDist tracks the observed lifetimes (insert-to-delete ages, in
// hours) of the objects of one class and answers the Fig. 5 question:
// given an object of this class that is already t hours old, how many
// more hours is it expected to live?
//
// Observations are kept exactly up to maxSamples and then reservoir-style
// downsampled, which keeps the estimator O(1) memory under unbounded
// object churn.
type LifetimeDist struct {
	mu         sync.RWMutex
	lifetimes  []float64
	seen       int64 // total observations, including evicted ones
	maxSamples int
	sorted     bool
}

// DefaultMaxLifetimeSamples bounds the per-class reservoir.
const DefaultMaxLifetimeSamples = 4096

// NewLifetimeDist returns an empty distribution (maxSamples <= 0 selects
// DefaultMaxLifetimeSamples).
func NewLifetimeDist(maxSamples int) *LifetimeDist {
	if maxSamples <= 0 {
		maxSamples = DefaultMaxLifetimeSamples
	}
	return &LifetimeDist{maxSamples: maxSamples}
}

// Observe records the lifetime (hours) of a deleted object.
func (d *LifetimeDist) Observe(hours float64) {
	if hours < 0 || math.IsNaN(hours) || math.IsInf(hours, 0) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seen++
	if len(d.lifetimes) < d.maxSamples {
		d.lifetimes = append(d.lifetimes, hours)
		d.sorted = false
		return
	}
	// Reservoir sampling: replace a uniformly random slot with probability
	// maxSamples/seen, using a cheap deterministic hash of the counter so
	// the package stays free of global rand state.
	x := uint64(d.seen) * 0x9E3779B97F4A7C15
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	idx := int(x % uint64(d.seen))
	if idx < d.maxSamples {
		d.lifetimes[idx] = hours
		d.sorted = false
	}
}

// Count returns the total number of observed deletions.
func (d *LifetimeDist) Count() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.seen
}

func (d *LifetimeDist) ensureSortedLocked() {
	if !d.sorted {
		sort.Float64s(d.lifetimes)
		d.sorted = true
	}
}

// ExpectedTTL returns the expected remaining lifetime E[L-t | L > t] of
// an object that is already ageHours old. The boolean is false when the
// distribution has no observation exceeding ageHours (the object has
// outlived everything seen so far; callers fall back to the history span
// as the paper's min(TTL, H) clamp then degenerates to H).
func (d *LifetimeDist) ExpectedTTL(ageHours float64) (float64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ensureSortedLocked()
	// First lifetime strictly greater than ageHours.
	i := sort.SearchFloat64s(d.lifetimes, math.Nextafter(ageHours, math.MaxFloat64))
	if i >= len(d.lifetimes) {
		return 0, false
	}
	var sum float64
	for _, l := range d.lifetimes[i:] {
		sum += l - ageHours
	}
	return sum / float64(len(d.lifetimes)-i), true
}

// Quantile returns the q-quantile (0 <= q <= 1) of observed lifetimes.
func (d *LifetimeDist) Quantile(q float64) (float64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.lifetimes) == 0 {
		return 0, false
	}
	d.ensureSortedLocked()
	if q <= 0 {
		return d.lifetimes[0], true
	}
	if q >= 1 {
		return d.lifetimes[len(d.lifetimes)-1], true
	}
	idx := int(q * float64(len(d.lifetimes)-1))
	return d.lifetimes[idx], true
}

// Histogram buckets the observed lifetimes into equal-width bins of the
// given width (hours) and returns the per-bin counts; the Fig. 5 left
// panel is this histogram.
func (d *LifetimeDist) Histogram(binWidth float64, bins int) []int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]int, bins)
	for _, l := range d.lifetimes {
		b := int(l / binWidth)
		if b >= bins {
			b = bins - 1
		}
		out[b]++
	}
	return out
}
