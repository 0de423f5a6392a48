package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("scalia_test_total", "test counter")
	c.Inc()
	c.Add(4)
	c.Add(-10) // dropped: counters only go up
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	// Re-registering the same name returns the same counter.
	if again := r.Counter("scalia_test_total", "test counter"); again != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("scalia_test_gauge", "test gauge")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
}

func TestVecSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("scalia_ops_total", "ops", "provider", "op")
	v.With("s3", "get").Add(3)
	v.With("s3", "put").Inc()
	if got := v.With("s3", "get").Value(); got != 3 {
		t.Errorf("series value = %d, want 3", got)
	}
	// Concurrent With on the same labels must resolve to one series.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.With("gcs", "get").Inc()
		}()
	}
	wg.Wait()
	if got := v.With("gcs", "get").Value(); got != 16 {
		t.Errorf("concurrent series = %d, want 16", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("scalia_requests_total", "Total requests.")
	c.Add(3)
	v := r.CounterVec("scalia_provider_ops_total", "Per-provider ops.", "provider")
	v.With(`we"ird\pro` + "\n" + `vider`).Inc()
	r.GaugeFunc("scalia_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	h := r.HistogramVec("scalia_latency_seconds", "Latency.").With()
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP scalia_requests_total Total requests.\n",
		"# TYPE scalia_requests_total counter\n",
		"scalia_requests_total 3\n",
		"# TYPE scalia_latency_seconds histogram\n",
		`scalia_latency_seconds_bucket{le="0.1"} 1` + "\n",
		`scalia_latency_seconds_bucket{le="1"} 2` + "\n",
		`scalia_latency_seconds_bucket{le="+Inf"} 3` + "\n",
		"scalia_latency_seconds_count 3\n",
		"scalia_uptime_seconds 12.5\n",
		`scalia_provider_ops_total{provider="we\"ird\\pro\nvider"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n--- got ---\n%s", want, out)
		}
	}
	// Families must be sorted by name.
	if strings.Index(out, "scalia_latency_seconds") > strings.Index(out, "scalia_requests_total") {
		t.Error("families not sorted by name")
	}
	// Sum line present and parseable ordering: bucket lines precede sum/count.
	if !strings.Contains(out, "scalia_latency_seconds_sum") {
		t.Error("missing histogram _sum line")
	}
}

func TestRegistryHistograms(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("scalia_op_seconds", "op latency", "provider", "op")
	v.With("a", "get").Observe(0.5)
	v.With("a", "get").Observe(0.7)
	v.With("b", "get").Observe(1.5)

	hs := r.Histograms("scalia_op_seconds")
	if len(hs) != 2 {
		t.Fatalf("got %d series, want 2", len(hs))
	}
	var total uint64
	merged := HistogramSnapshot{}
	for _, lh := range hs {
		if lh.Labels["op"] != "get" {
			t.Errorf("unexpected labels %v", lh.Labels)
		}
		total += lh.Snapshot.Count
		merged = merged.Merge(lh.Snapshot)
	}
	if total != 3 || merged.Count != 3 {
		t.Errorf("merged count = %d (sum %d), want 3", merged.Count, total)
	}
	if r.Histograms("nope") != nil {
		t.Error("unknown family should return nil")
	}
	if r.Histograms("scalia_op_seconds_bogus") != nil {
		t.Error("unknown family should return nil")
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.AddSpan("plan", time.Millisecond) // must not panic
	tr.Count("fallbacks", 1)
	if tr.Counts() != nil {
		t.Error("nil trace Counts should be nil")
	}
	if tr.SpanSummary() != "" {
		t.Error("nil trace SpanSummary should be empty")
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Error("TraceFrom on bare context should be nil")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := NewTrace(NewRequestID())
	if len(tr.ID) != 32 {
		t.Errorf("request ID %q, want 32 hex chars", tr.ID)
	}
	ctx := WithTrace(context.Background(), tr)
	got := TraceFrom(ctx)
	if got != tr {
		t.Fatal("trace did not round-trip through context")
	}
	got.AddSpan("fetch", 2*time.Millisecond)
	got.AddSpan("fetch", 3*time.Millisecond)
	got.AddSpan("decode", time.Millisecond)
	got.Count("stripes_fetched", 2)
	got.Count("stripes_fetched", 1)

	counts := tr.Counts()
	if counts["stripes_fetched"] != 3 {
		t.Errorf("counts = %v, want stripes_fetched=3", counts)
	}
	sum := tr.SpanSummary()
	if !strings.Contains(sum, "fetch=2x5ms") || !strings.Contains(sum, "decode=1x1ms") {
		t.Errorf("span summary = %q", sum)
	}
	// Sorted: decode before fetch.
	if strings.Index(sum, "decode") > strings.Index(sum, "fetch") {
		t.Errorf("span summary not sorted: %q", sum)
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace("t")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				tr.AddSpan("fetch", time.Microsecond)
				tr.Count("n", 1)
			}
		}()
	}
	wg.Wait()
	if got := tr.Counts()["n"]; got != 4000 {
		t.Errorf("count = %d, want 4000", got)
	}
	if !strings.Contains(tr.SpanSummary(), "fetch=4000x") {
		t.Errorf("summary = %q", tr.SpanSummary())
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("scalia_x", "x")
	defer func() {
		if recover() == nil {
			t.Error("expected panic re-registering counter as gauge")
		}
	}()
	r.Gauge("scalia_x", "x")
}
