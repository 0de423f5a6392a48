package stats

import "sync"

// History holds the access statistics H(obj) of one data object: one
// Sample per sampling period, bounded to the most recent maxPeriods
// entries. It is safe for concurrent use.
type History struct {
	mu         sync.RWMutex
	samples    map[int64]Sample
	maxPeriods int
}

// DefaultMaxHistory bounds per-object history length; at a one-hour
// sampling period this spans about three months, comfortably above the
// paper's maximum decision periods (weeks).
const DefaultMaxHistory = 2232

// NewHistory returns an empty history bounded to maxPeriods samples
// (DefaultMaxHistory if maxPeriods <= 0).
func NewHistory(maxPeriods int) *History {
	if maxPeriods <= 0 {
		maxPeriods = DefaultMaxHistory
	}
	return &History{samples: make(map[int64]Sample), maxPeriods: maxPeriods}
}

// Record merges a sample into the history at its period.
func (h *History) Record(s Sample) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur, ok := h.samples[s.Period]
	if ok {
		cur.Merge(s)
	} else {
		cur = s
	}
	h.samples[s.Period] = cur
	if len(h.samples) > h.maxPeriods {
		h.evictOldestLocked()
	}
}

func (h *History) evictOldestLocked() {
	oldest := int64(1<<63 - 1)
	for p := range h.samples {
		if p < oldest {
			oldest = p
		}
	}
	delete(h.samples, oldest)
}

// Summary aggregates the last n periods ending at now, (now-n, now]:
// periods with no recorded sample count as zero-access periods, and a
// window of n <= 0 periods is empty. It sums the window as it reads it.
func (h *History) Summary(now int64, n int) Summary {
	var acc summer
	h.each(now, n, acc.add)
	return acc.summary(n)
}

// each calls f with the samples of the periods (now-n, now], oldest first.
func (h *History) each(now int64, n int, f func(Sample)) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for p := now - int64(n) + 1; p <= now; p++ {
		if s, ok := h.samples[p]; ok {
			f(s)
		}
	}
}

// Len returns the number of recorded (non-empty) periods.
func (h *History) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.samples)
}

// Span returns the number of periods covered from the oldest recorded
// sample to now (the |H_obj| available for decision-period search).
func (h *History) Span(now int64) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if len(h.samples) == 0 {
		return 0
	}
	oldest := int64(1<<63 - 1)
	for p := range h.samples {
		if p < oldest {
			oldest = p
		}
	}
	if oldest > now {
		return 0
	}
	return int(now - oldest + 1)
}

// OpsSeries returns the per-period operation counts for the periods
// (now-n, now], with zeros for unrecorded periods — the input the trend
// detector consumes (Figs. 8, 9 plot this series). It is empty for n <= 0.
func (h *History) OpsSeries(now int64, n int) []float64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]float64, 0, max(n, 0))
	for p := now - int64(n) + 1; p <= now; p++ {
		out = append(out, float64(h.samples[p].Ops()))
	}
	return out
}
