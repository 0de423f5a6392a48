package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// latencyBuckets are the upper bounds (seconds) of every latency
// histogram in scalia: 100µs up to 10s, roughly ×2–×2.5 per step. The
// simulated blobstores answer in the tens of microseconds to low
// milliseconds; a real deployment lands mid-range.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with lock-free observation:
// one atomic count per bucket (plus the implicit +Inf overflow bucket)
// and a CAS-maintained float64 sum.
type Histogram struct {
	bounds []float64       // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // math.Float64bits of the running sum
}

// newHistogram returns a histogram over the given upper bounds (+Inf is
// implicit): latencyBuckets for every registered family, a small layout
// in tests.
func newHistogram(bounds []float64) *Histogram {
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. An observation v lands in the first
// bucket whose upper bound is >= v (Prometheus "le" semantics).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Snapshot returns a point-in-time copy. Concurrent Observe calls may
// or may not be included, but each bucket count is individually
// consistent and snapshots taken later never show smaller counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction; shared
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	return s
}

// HistogramSnapshot is an immutable copy of a histogram's state, the
// unit of quantile math, merging (across label series) and diffing
// (per-benchmark windows).
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64 // len(Bounds)+1; last bucket is +Inf
	Count  uint64
	Sum    float64
}

// Quantile returns an estimate of the q-quantile (0 < q <= 1) assuming
// values are uniformly distributed inside each bucket. When the rank
// q·Count lands exactly on a bucket's cumulative count, the estimate is
// exact: it returns that bucket's upper bound. Returns NaN for an
// empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q <= 0 || q > 1 || len(s.Counts) != len(s.Bounds)+1 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if cum < rank {
			continue
		}
		if i == len(s.Bounds) {
			// Overflow bucket: no finite upper bound; report the
			// largest finite bound as the floor of the estimate.
			return s.Bounds[len(s.Bounds)-1]
		}
		hi := s.Bounds[i]
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		return lo + (hi-lo)*float64(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Merge returns the element-wise sum of two snapshots over identical
// bucket layouts; it panics if the layouts differ (all scalia latency
// histograms share latencyBuckets). Merging an empty snapshot
// (no bounds) with a populated one returns the populated one.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if len(s.Bounds) == 0 {
		return o
	}
	if len(o.Bounds) == 0 {
		return s
	}
	if len(s.Bounds) != len(o.Bounds) {
		panic("obs: merging histograms with different bucket layouts")
	}
	out := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]uint64, len(s.Counts)),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return out
}
