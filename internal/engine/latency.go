package engine

import (
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The read-latency record's resolution: latencies below the floor, or in
// the same 5 % step above it, are one latency to slotNames.
const (
	// latencyFloor is the lowest bucket of the provider op histogram
	// (scalia_provider_op_duration_seconds).
	latencyFloor = 100 * time.Microsecond
	latencyStep  = 1.05
	// latencyGainShift makes each sample move the record 1/8 of the way
	// to it: RFC 6298's smoothed round-trip time.
	latencyGainShift = 3
)

// readLatency is the broker's record of how fast each provider serves a
// chunk Get: a smoothed latency per provider, fed by every successful Get
// (observeProviderOp) and read only when a version is drafted
// (slotNames). A failed or cancelled Get is no sample, so a provider that
// fails fast never looks fast. A provider's record is a fixed slot made
// at its first sample; the map holding the slots is replaced, never
// written, so a sample costs a lookup and an atomic update.
type readLatency struct {
	mu sync.Mutex // serializes new slots
	by atomic.Pointer[map[string]*atomic.Int64]
}

func (r *readLatency) slot(provider string) *atomic.Int64 {
	if by := r.by.Load(); by != nil {
		return (*by)[provider]
	}
	return nil
}

// observe folds one Get's latency d into the provider's record. The
// record starts at zero, so one slow Get among fast ones adds an eighth
// of it. A sample racing another of the same provider may be lost.
func (r *readLatency) observe(provider string, d time.Duration) {
	s := r.slot(provider)
	if s == nil {
		r.mu.Lock()
		if s = r.slot(provider); s == nil {
			by := make(map[string]*atomic.Int64)
			if old := r.by.Load(); old != nil {
				by = maps.Clone(*old)
			}
			s = new(atomic.Int64)
			by[provider] = s
			r.by.Store(&by)
		}
		r.mu.Unlock()
	}
	old := s.Load()
	s.Store(old + (int64(d)-old)>>latencyGainShift)
}

// level is the provider's record at the record's resolution: 0 below the
// floor or with no sample yet, then one level per 5 % step.
func (r *readLatency) level(provider string) int {
	var ns int64
	if s := r.slot(provider); s != nil {
		ns = s.Load()
	}
	if ns < int64(latencyFloor) {
		return 0
	}
	return 1 + int(math.Log(float64(ns)/float64(latencyFloor))/math.Log(latencyStep))
}
