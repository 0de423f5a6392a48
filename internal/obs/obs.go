// Package obs is Scalia's dependency-free observability core: a metric
// registry of atomic counters and latency histograms (labeled
// families, one fixed bucket layout), func-backed collectors that
// expose counters other subsystems already keep (so /metrics and
// /v1/stats read the same bookkeeping instead of two parallel ones), a
// hand-rolled Prometheus text encoder, and per-request tracing (request
// IDs, span timings and per-request counts threaded via
// context.Context).
//
// Everything in this package is safe for concurrent use and allocates
// nothing on the metric hot paths (Counter.Inc, Histogram.Observe on a
// resolved series).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the Prometheus metric type of a family.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Sample is one value of a func-backed family: label values (aligned
// with the family's label names) and the current reading.
type Sample struct {
	LabelValues []string
	Value       float64
}

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n; negative deltas are dropped (a
// counter only goes up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// family is one named metric family: either a set of owned series
// (Counter/Histogram, keyed by label values) or a func-backed
// collector read at scrape time.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string

	mu     sync.RWMutex
	series map[string]any // label signature -> *Counter | *Histogram
	keys   []string       // insertion-ordered signatures (sorted at encode)

	collect func() []Sample // exclusive with series
}

// seriesSep joins label values into a map key; 0x1f (unit separator)
// cannot appear in reasonable label values.
const seriesSep = "\x1f"

func (f *family) get(values []string) any {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, seriesSep)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	var m any
	switch f.kind {
	case KindCounter:
		m = &Counter{}
	case KindHistogram:
		m = newHistogram(latencyBuckets)
	}
	f.series[key] = m
	f.keys = append(f.keys, key)
	return m
}

// Registry is a set of metric families. Each Broker owns one, so tests
// and embedded deployments never share counters through global state.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) add(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[f.name]; ok {
		if prev.kind != f.kind {
			panic("obs: metric " + f.name + " re-registered with a different kind")
		}
		return prev
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
	sort.Slice(r.families, func(i, j int) bool { return r.families[i].name < r.families[j].name })
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.add(&family{name: name, help: help, kind: KindCounter, series: map[string]any{}})
	return f.get(nil).(*Counter)
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	f := r.add(&family{name: name, help: help, kind: KindCounter,
		labelNames: labelNames, series: map[string]any{}})
	return &CounterVec{f: f}
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time — the bridge for values another subsystem already owns (cache
// footprints, cost totals, buffer high-water marks).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, kind: KindGauge,
		collect: func() []Sample { return []Sample{{Value: fn()}} }})
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time (for lifetime totals kept by another subsystem).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, kind: KindCounter,
		collect: func() []Sample { return []Sample{{Value: fn()}} }})
}

// CollectFunc registers a labeled func-backed family: fn is called at
// scrape time and returns one Sample per series. kind must be
// KindCounter or KindGauge.
func (r *Registry) CollectFunc(name, help string, kind Kind, labelNames []string, fn func() []Sample) {
	if kind == KindHistogram {
		panic("obs: func-backed histogram families are not supported")
	}
	r.add(&family{name: name, help: help, kind: kind, labelNames: labelNames, collect: fn})
}

// HistogramVec registers a labeled latency histogram family; every
// series has the one bucket layout, latencyBuckets.
func (r *Registry) HistogramVec(name, help string, labelNames ...string) *HistogramVec {
	f := r.add(&family{name: name, help: help, kind: KindHistogram,
		labelNames: labelNames, series: map[string]any{}})
	return &HistogramVec{f: f}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.get(labelValues).(*Counter)
}

// Total returns the sum over every series of the family.
func (v *CounterVec) Total() (n int64) {
	v.f.mu.RLock()
	defer v.f.mu.RUnlock()
	for _, s := range v.f.series {
		n += s.(*Counter).Value()
	}
	return n
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values, creating it
// on first use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.get(labelValues).(*Histogram)
}

// LabeledHistogram is one histogram series of a family with its label
// values resolved, as returned by Registry.Histograms.
type LabeledHistogram struct {
	Labels   map[string]string
	Snapshot HistogramSnapshot
}

// Histograms snapshots every series of the named histogram family (nil
// when the name is unknown or not a histogram). Consumers like the
// health endpoint merge the snapshots they care about.
func (r *Registry) Histograms(name string) []LabeledHistogram {
	r.mu.Lock()
	f := r.byName[name]
	r.mu.Unlock()
	if f == nil || f.kind != KindHistogram || f.series == nil {
		return nil
	}
	f.mu.RLock()
	keys := append([]string(nil), f.keys...)
	f.mu.RUnlock()
	out := make([]LabeledHistogram, 0, len(keys))
	for _, key := range keys {
		f.mu.RLock()
		s := f.series[key]
		f.mu.RUnlock()
		h, ok := s.(*Histogram)
		if !ok {
			continue
		}
		labels := make(map[string]string, len(f.labelNames))
		if len(f.labelNames) > 0 {
			values := strings.Split(key, seriesSep)
			for i, n := range f.labelNames {
				if i < len(values) {
					labels[n] = values[i]
				}
			}
		}
		out = append(out, LabeledHistogram{Labels: labels, Snapshot: h.Snapshot()})
	}
	return out
}
