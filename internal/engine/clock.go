// Package engine implements Scalia's engine layer (paper §III-A): the
// stateless broker engines that expose an S3-like put/get/list/delete
// API, split objects into erasure-coded chunks, place them at the best
// provider set, reconstruct objects on reads, run the periodic
// trend-gated placement optimization with leader election (Fig. 7), and
// handle provider failures with postponed deletes and active repair
// (§III-D3, §IV-E).
package engine

import (
	"sync/atomic"
	"time"
)

// Clock abstracts time so the simulator can drive sampling periods
// deterministically while the HTTP server uses wall time.
type Clock interface {
	// Period returns the current sampling-period index.
	Period() int64
	// Timestamp returns a monotone timestamp for MVCC resolution.
	Timestamp() int64
}

// SimClock is a manually advanced clock for simulations and tests.
type SimClock struct {
	period int64
	stamp  int64
}

// NewSimClock returns a clock at period 0.
func NewSimClock() *SimClock { return &SimClock{} }

// Period implements Clock.
func (c *SimClock) Period() int64 { return atomic.LoadInt64(&c.period) }

// Timestamp implements Clock; it is strictly monotone across calls.
func (c *SimClock) Timestamp() int64 { return atomic.AddInt64(&c.stamp, 1) }

// Advance moves the clock forward by n periods.
func (c *SimClock) Advance(n int64) { atomic.AddInt64(&c.period, n) }

// WallClock derives sampling periods from real time.
type WallClock struct {
	epoch       time.Time
	periodHours float64
}

// NewWallClock returns a wall clock with the given sampling period.
func NewWallClock(periodHours float64) *WallClock {
	if periodHours <= 0 {
		periodHours = 1
	}
	return &WallClock{epoch: time.Now(), periodHours: periodHours}
}

// Period implements Clock.
func (c *WallClock) Period() int64 {
	return int64(time.Since(c.epoch).Hours() / c.periodHours)
}

// Timestamp implements Clock (NTP-synchronized engines in the paper).
func (c *WallClock) Timestamp() int64 { return time.Now().UnixNano() }
