// Package trend implements Scalia's access-pattern change detection
// (paper §III-A3): a momentum indicator on a simple moving average of
// per-period operation counts. Only objects whose trend changed by more
// than a threshold limit get their placement recomputed, which is what
// keeps the periodic optimization cheap (Figs. 8 and 9).
package trend

import "math"

// DefaultWindow is the statistics window w = 3 sampling periods.
const DefaultWindow = 3

// DefaultLimit is the experimentally adequate 10% momentum threshold.
const DefaultLimit = 0.1

// Detector detects trend changes in a univariate series using momentum:
// the relative change of the simple moving average between consecutive
// observations. It is a small value type; use one detector per object.
//
// High window values detect trend changes on long time scales, small
// values detect frequent changes (paper §III-A3).
type Detector struct {
	window int
	limit  float64
	// last holds the newest window+1 observations, oldest first — the two
	// overlapping SMA windows Changed compares.
	last  []float64
	count int
}

// NewDetector returns a detector with the given SMA window and relative
// momentum limit. Non-positive arguments select the paper defaults
// (w = 3, limit = 0.1).
func NewDetector(window int, limit float64) *Detector {
	if window <= 0 {
		window = DefaultWindow
	}
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Detector{window: window, limit: limit, last: make([]float64, window+1)}
}

// Observe feeds the next per-period value (typically the object's
// operation count) and reports whether a trend change was detected at
// this observation. The first window observations only establish the
// baseline SMA; detection begins with the one after.
func (d *Detector) Observe(v float64) bool {
	copy(d.last, d.last[1:])
	d.last[d.window] = v
	d.count++
	return d.count > d.window && Changed(d.last, d.window, d.limit)
}

// Changed is the stateless trend gate over the newest w+1 values of a
// series, oldest first: it reports whether the w-period SMA moved by
// more than limit, relatively, at the newest value.
func Changed(series []float64, w int, limit float64) bool {
	var prev, cur float64
	for i := 0; i < w; i++ {
		prev += series[i]
		cur += series[i+1]
	}
	return Momentum(prev/float64(w), cur/float64(w)) > limit
}

// Momentum returns the relative momentum between two consecutive SMA
// values: |cur - prev| normalized by the previous level. A previous
// level below 1 op/period is clamped to 1 so that a series waking up
// from silence registers as |cur| rather than dividing by zero.
func Momentum(prev, cur float64) float64 {
	base := math.Abs(prev)
	if base < 1 {
		base = 1
	}
	return math.Abs(cur-prev) / base
}

// Detect runs a fresh detector over a whole series and returns the
// indexes at which a trend change fires — the marker series of Figs. 8
// and 9.
func Detect(series []float64, window int, limit float64) []int {
	d := NewDetector(window, limit)
	var changes []int
	for i, v := range series {
		if d.Observe(v) {
			changes = append(changes, i)
		}
	}
	return changes
}
