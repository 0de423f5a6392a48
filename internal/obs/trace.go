package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// NewRequestID returns a 16-byte random hex request ID.
func NewRequestID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; degrade to a
		// fixed marker rather than an empty ID.
		return "rnd-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// Trace accumulates per-request span timings and counters as a request
// flows Gateway→Broker→Engine→read path/repair→backend. It is carried
// in a context.Context; every method is safe on a nil receiver so
// instrumented code never has to check whether a trace is attached
// (background work like the optimizer runs traceless).
type Trace struct {
	ID string

	mu     sync.Mutex
	spans  map[string]*spanAgg
	counts map[string]int64
}

type spanAgg struct {
	n     int64
	total time.Duration
}

// NewTrace returns a trace with the given request ID.
func NewTrace(id string) *Trace {
	return &Trace{ID: id}
}

// AddSpan records one timed occurrence of a named stage ("plan",
// "encode", "fanout", "commit", "fetch", "decode", ...). Repeats of
// the same name aggregate (count + total duration).
func (t *Trace) AddSpan(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.spans == nil {
		t.spans = make(map[string]*spanAgg, 8)
	}
	s := t.spans[name]
	if s == nil {
		s = &spanAgg{}
		t.spans[name] = s
	}
	s.n++
	s.total += d
	t.mu.Unlock()
}

// Count bumps a named per-request counter ("stripes_cached",
// "stripes_fetched", "fallbacks", ...).
func (t *Trace) Count(name string, delta int64) {
	if t == nil || delta == 0 {
		return
	}
	t.mu.Lock()
	if t.counts == nil {
		t.counts = make(map[string]int64, 8)
	}
	t.counts[name] += delta
	t.mu.Unlock()
}

// Counts returns a copy of the per-request counters.
func (t *Trace) Counts() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// SpanSummary renders the aggregated spans as a compact, sorted,
// log-friendly string like "decode=3x1.2ms fetch=3x8.1ms plan=1x0.3ms".
func (t *Trace) SpanSummary() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	parts := make([]string, 0, len(t.spans))
	for name, s := range t.spans {
		parts = append(parts, fmt.Sprintf("%s=%dx%s", name, s.n,
			s.total.Round(10*time.Microsecond)))
	}
	t.mu.Unlock()
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

type traceKey struct{}

// WithTrace attaches t to ctx.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace attached to ctx, or nil. The nil result
// is usable as-is: all Trace methods accept a nil receiver.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
