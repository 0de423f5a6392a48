package engine

import (
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"scalia/internal/obs"
)

// The smoothed Get latency's resolution: latencies below the floor (the
// op histogram's lowest bucket), or in one 5 % step above it, are one
// latency to slotNames. Each sample moves it 1/8 of the way to the
// sample: RFC 6298's smoothed round-trip time.
const (
	latencyFloor     = 100 * time.Microsecond
	latencyStep      = 1.05
	latencyGainShift = 3
)

// providerOp is a kind of backend call, the index of its record series.
type providerOp int

const (
	opGet providerOp = iota
	opPut
	opDelete
)

var providerOpNames = [...]string{"get", "put", "delete"}

// providerRecord is what the broker learns about one provider from its
// own traffic (observeProviderOp): each op's scalia_provider_op_* series,
// resolved at first use so /metrics lists only the series asked for, and
// srtt, the smoothed latency of its successful Gets in nanoseconds, the
// tie-break of slotNames among equally cheap providers. A failed or
// cancelled Get is no sample, so a provider that fails fast never looks
// fast.
type providerRecord struct {
	dur  [len(providerOpNames)]atomic.Pointer[obs.Histogram]
	errs [len(providerOpNames)]atomic.Pointer[obs.Counter]
	srtt atomic.Int64
}

// records holds one record per key, made at its first use. The map is
// replaced, never written, so a record costs an atomic load and a
// lookup; the zero value is empty.
type records[K comparable, V any] struct {
	mu sync.Mutex // serializes new records
	by atomic.Pointer[map[K]*V]
}

// get returns k's record, or nil before its first add.
func (r *records[K, V]) get(k K) *V {
	if by := r.by.Load(); by != nil {
		return (*by)[k]
	}
	return nil
}

// add makes v k's record unless k has one already, and returns k's
// record.
func (r *records[K, V]) add(k K, v *V) *V {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.get(k); old != nil {
		return old
	}
	by := map[K]*V{k: v}
	if old := r.by.Load(); old != nil {
		maps.Copy(by, *old)
	}
	r.by.Store(&by)
	return v
}

// record returns k's record, a zero V made at its first use.
func (r *records[K, V]) record(k K) *V {
	if v := r.get(k); v != nil {
		return v
	}
	return r.add(k, new(V))
}

// observeProviderOp records one backend call's latency, and its failure,
// in the provider's record; a successful Get's latency also moves srtt.
// A sample racing another of the same provider may be lost.
func (b *Broker) observeProviderOp(provider string, op providerOp, start time.Time, err error) {
	d := time.Since(start)
	rec := b.providers.record(provider)
	series(&rec.dur[op], b.metrics.providerDur.With, provider, op).Observe(d.Seconds())
	switch {
	case err != nil:
		series(&rec.errs[op], b.metrics.providerErrs.With, provider, op).Inc()
	case op == opGet:
		old := rec.srtt.Load()
		rec.srtt.Store(old + (int64(d)-old)>>latencyGainShift)
	}
}

// series returns the provider's op series held at p, resolving it with
// the family's With on first use.
func series[T any](p *atomic.Pointer[T], with func(...string) *T, provider string, op providerOp) *T {
	s := p.Load()
	if s == nil {
		s = with(provider, providerOpNames[op])
		p.Store(s)
	}
	return s
}

// level is srtt at its resolution: 0 below the floor or with no sample
// yet, then one level per 5 % step.
func (r *providerRecord) level() int {
	ns := r.srtt.Load()
	if ns < int64(latencyFloor) {
		return 0
	}
	return 1 + int(math.Log(float64(ns)/float64(latencyFloor))/math.Log(latencyStep))
}
