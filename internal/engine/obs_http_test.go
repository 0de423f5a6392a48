package engine

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"scalia/internal/cloud"
)

// promValues parses Prometheus text output into sample lines:
// "name{labels}" -> value. HELP/TYPE lines are skipped.
func promValues(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

func scrape(t *testing.T, client *http.Client, base string) (string, map[string]float64) {
	t.Helper()
	resp := doReq(t, client, http.MethodGet, base+"/metrics", nil, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw), promValues(t, string(raw))
}

// TestGatewayMetricsEndpoint drives traffic through the gateway and
// asserts (a) /metrics is valid Prometheus text carrying the request
// histogram, cache/planner counters and per-provider gauges, and (b)
// every /v1/stats counter equals its registry series — one bookkeeping
// path, two views.
func TestGatewayMetricsEndpoint(t *testing.T) {
	_, ts := newGatewayServer(t, Config{CacheBytes: 1 << 20})
	client := ts.Client()

	payload := bytes.Repeat([]byte("m"), 4096)
	resp := doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/c/obj", payload, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT = %d", resp.StatusCode)
	}
	for i := 0; i < 3; i++ { // first GET fetches, rest hit the stripe cache
		resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/objects/c/obj", nil, nil)
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}

	text, vals := scrape(t, client, ts.URL)

	// Request histogram: buckets, sum, count for the GET object route.
	getSeries := `scalia_http_request_duration_seconds_count{method="GET",route="/v1/objects/{container}/{key...}"}`
	if vals[getSeries] != 3 {
		t.Errorf("%s = %v, want 3", getSeries, vals[getSeries])
	}
	if !strings.Contains(text, `scalia_http_request_duration_seconds_bucket{method="GET",route="/v1/objects/{container}/{key...}",le="+Inf"}`) {
		t.Error("request histogram +Inf bucket missing")
	}
	putCount := `scalia_http_requests_total{method="PUT",route="/v1/objects/{container}/{key...}",code="201"}`
	if vals[putCount] != 1 {
		t.Errorf("%s = %v, want 1", putCount, vals[putCount])
	}

	// Stage histogram series exist for the write and read hot stages.
	for _, stage := range []string{"plan", "hash", "encode", "fanout", "commit", "fetch", "verify", "decode"} {
		key := fmt.Sprintf(`scalia_stage_duration_seconds_count{stage=%q}`, stage)
		if vals[key] == 0 {
			t.Errorf("stage %q unobserved", stage)
		}
	}

	// /v1/stats must be a view over the same registry.
	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/stats", nil, nil)
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Scrape again AFTER /v1/stats so monotonic counters cannot go down
	// between the two reads; equality still must hold because no object
	// traffic runs in between (the /v1/stats request itself only touches
	// HTTP series).
	_, vals = scrape(t, client, ts.URL)

	if got := vals["scalia_read_stripes_cached_total"]; got != float64(st.ReadPath.StripesFromCache) {
		t.Errorf("registry cached=%v, /v1/stats=%d", got, st.ReadPath.StripesFromCache)
	}
	if got := vals["scalia_read_stripes_fetched_total"]; got != float64(st.ReadPath.StripesFetched) {
		t.Errorf("registry fetched=%v, /v1/stats=%d", got, st.ReadPath.StripesFetched)
	}
	if got, ok := vals["scalia_read_stripes_reconstructed_total"]; !ok || got != 0 || st.ReadPath.StripesReconstructed != 0 {
		t.Errorf("registry reconstructed=%v (present %v), /v1/stats=%d; want 0 for healthy reads", got, ok, st.ReadPath.StripesReconstructed)
	}
	if got := vals["scalia_read_fallbacks_total"]; got != float64(st.ReadPath.FetchFallbacks) {
		t.Errorf("registry fallbacks=%v, /v1/stats=%d", got, st.ReadPath.FetchFallbacks)
	}
	if got := vals["scalia_planner_cache_hits_total"]; got != float64(st.Planner.Hits) {
		t.Errorf("registry planner hits=%v, /v1/stats=%d", got, st.Planner.Hits)
	}
	if got := vals["scalia_planner_cache_misses_total"]; got != float64(st.Planner.Misses) {
		t.Errorf("registry planner misses=%v, /v1/stats=%d", got, st.Planner.Misses)
	}
	var cacheHits, cacheMisses float64
	for series, v := range vals {
		if strings.HasPrefix(series, "scalia_cache_hits_total{") {
			cacheHits += v
		}
		if strings.HasPrefix(series, "scalia_cache_misses_total{") {
			cacheMisses += v
		}
	}
	if cacheHits != float64(st.StripeCache.Hits) {
		t.Errorf("registry cache hits=%v, /v1/stats=%d", cacheHits, st.StripeCache.Hits)
	}
	if cacheMisses != float64(st.StripeCache.Misses) {
		t.Errorf("registry cache misses=%v, /v1/stats=%d", cacheMisses, st.StripeCache.Misses)
	}
	if got := vals["scalia_cost_usd_total"]; got != st.CostUSD {
		t.Errorf("registry cost=%v, /v1/stats=%v", got, st.CostUSD)
	}
	if got := vals["scalia_pending_deletes"]; got != float64(st.PendingDeletes) {
		t.Errorf("registry pending=%v, /v1/stats=%d", got, st.PendingDeletes)
	}
	if got := vals["scalia_engines"]; got != float64(st.Engines) {
		t.Errorf("registry engines=%v, /v1/stats=%d", got, st.Engines)
	}

	// Per-provider gauges: one scalia_provider_up series per provider,
	// all 1 (nothing injected a failure).
	up := 0
	for series, v := range vals {
		if strings.HasPrefix(series, "scalia_provider_up{") {
			up++
			if v != 1 {
				t.Errorf("%s = %v, want 1", series, v)
			}
		}
	}
	if up != st.Providers {
		t.Errorf("provider_up series = %d, providers = %d", up, st.Providers)
	}
	// Provider op histograms observed puts and gets.
	var providerOps float64
	for series, v := range vals {
		if strings.HasPrefix(series, "scalia_provider_op_duration_seconds_count{") {
			providerOps += v
		}
	}
	if providerOps == 0 {
		t.Error("no provider op latency observed")
	}
}

func TestGatewayHealthz(t *testing.T) {
	b, ts := newGatewayServer(t, Config{})
	client := ts.Client()

	resp := doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/c/k", []byte("data"), nil)
	resp.Body.Close()

	var h Health
	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/healthz", nil, nil)
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.GoVersion == "" || h.UptimeSeconds < 0 || h.Engines == 0 {
		t.Errorf("malformed health: %+v", h)
	}
	if len(h.Providers) == 0 {
		t.Fatal("no providers in health")
	}
	var sawCalls bool
	for _, p := range h.Providers {
		if !p.Available {
			t.Errorf("provider %s reported down", p.Name)
		}
		if p.Calls > 0 {
			sawCalls = true
			if p.P50Ms < 0 || p.P99Ms < p.P50Ms {
				t.Errorf("provider %s percentiles p50=%v p99=%v", p.Name, p.P50Ms, p.P99Ms)
			}
		}
	}
	if !sawCalls {
		t.Error("no provider recorded calls after a PUT")
	}

	// Down a provider: status degrades, the row flips.
	victim := h.Providers[0].Name
	store, _ := b.Registry().Store(victim)
	store.(cloud.AvailabilitySetter).SetAvailable(false)
	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/healthz", nil, nil)
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "degraded" {
		t.Errorf("status = %q, want degraded", h.Status)
	}
	for _, p := range h.Providers {
		if p.Name == victim && p.Available {
			t.Errorf("victim %s still reported available", victim)
		}
	}
}

func TestGatewayRequestID(t *testing.T) {
	_, ts := newGatewayServer(t, Config{})
	client := ts.Client()

	// Client-provided IDs echo back.
	resp := doReq(t, client, http.MethodGet, ts.URL+"/v1/stats", nil,
		map[string]string{"X-Request-ID": "req-42"})
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "req-42" {
		t.Errorf("echoed request ID = %q, want req-42", got)
	}

	// Absent IDs are generated (32 hex chars).
	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/stats", nil, nil)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); len(got) != 32 {
		t.Errorf("generated request ID = %q, want 32 hex chars", got)
	}
}

// syncBuffer is a goroutine-safe buffer for the access-log handler (the
// server handles requests on its own goroutines).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestGatewayAccessLog(t *testing.T) {
	b := NewBroker(Config{CacheBytes: 1 << 20})
	t.Cleanup(b.Close)
	g := NewGateway(b)
	var buf syncBuffer
	g.Logger = slog.New(slog.NewJSONHandler(&buf, nil))
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	client := ts.Client()

	resp := doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/c/logged", []byte("hello"), nil)
	resp.Body.Close()
	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/objects/c/logged", nil,
		map[string]string{"X-Request-ID": "trace-me"})
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	logs := buf.String()
	var getLine map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		if rec["method"] == "GET" {
			getLine = rec
		}
	}
	if getLine == nil {
		t.Fatalf("no GET access log in %q", logs)
	}
	if getLine["requestID"] != "trace-me" {
		t.Errorf("logged requestID = %v", getLine["requestID"])
	}
	if getLine["path"] != "/v1/objects/c/logged" {
		t.Errorf("logged path = %v", getLine["path"])
	}
	if getLine["status"] != float64(http.StatusOK) {
		t.Errorf("logged status = %v", getLine["status"])
	}
	if getLine["bytes"] != float64(5) {
		t.Errorf("logged bytes = %v, want 5", getLine["bytes"])
	}
	// The GET fetched its one stripe from providers (cold cache).
	if getLine["stripesFetched"] != float64(1) {
		t.Errorf("logged stripesFetched = %v, want 1", getLine["stripesFetched"])
	}
	if spans, _ := getLine["spans"].(string); !strings.Contains(spans, "fetch=") ||
		!strings.Contains(spans, "decode=") {
		t.Errorf("logged spans = %v, want fetch/decode", getLine["spans"])
	}
}

func TestGatewayIfRange(t *testing.T) {
	_, ts := newGatewayServer(t, Config{})
	client := ts.Client()

	payload := bytes.Repeat([]byte("r"), 100)
	resp := doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/c/ranged", payload, nil)
	etag := resp.Header.Get("ETag")
	resp.Body.Close()
	if etag == "" {
		t.Fatal("PUT returned no ETag")
	}

	get := func(hdr map[string]string) *http.Response {
		return doReq(t, client, http.MethodGet, ts.URL+"/v1/objects/c/ranged", nil, hdr)
	}

	// Current ETag -> the 206 partial the client asked for.
	resp = get(map[string]string{"Range": "bytes=0-9", "If-Range": etag})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent || len(body) != 10 {
		t.Errorf("current If-Range: status=%d len=%d, want 206/10", resp.StatusCode, len(body))
	}

	// Stale ETag -> full 200 body, no Content-Range.
	resp = get(map[string]string{"Range": "bytes=0-9", "If-Range": `"stale"`})
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 100 {
		t.Errorf("stale If-Range: status=%d len=%d, want 200/100", resp.StatusCode, len(body))
	}
	if resp.Header.Get("Content-Range") != "" {
		t.Error("stale If-Range must not carry Content-Range")
	}

	// Weak validator -> never a match (strong comparison only).
	resp = get(map[string]string{"Range": "bytes=0-9", "If-Range": "W/" + etag})
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 100 {
		t.Errorf("weak If-Range: status=%d len=%d, want 200/100", resp.StatusCode, len(body))
	}

	// HTTP-date validator -> stale (no Last-Modified served).
	resp = get(map[string]string{"Range": "bytes=0-9", "If-Range": "Tue, 29 Oct 2024 16:56:32 GMT"})
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 100 {
		t.Errorf("date If-Range: status=%d len=%d, want 200/100", resp.StatusCode, len(body))
	}

	// Without If-Range the Range still works as before.
	resp = get(map[string]string{"Range": "bytes=90-"})
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent || len(body) != 10 {
		t.Errorf("plain Range: status=%d len=%d, want 206/10", resp.StatusCode, len(body))
	}

	// If-Range on a missing object is still a 404.
	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/objects/c/ghost", nil,
		map[string]string{"Range": "bytes=0-9", "If-Range": etag})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("If-Range on missing object = %d, want 404", resp.StatusCode)
	}
}

func TestGatewayPprofGated(t *testing.T) {
	b := NewBroker(Config{})
	t.Cleanup(b.Close)
	g := NewGateway(b)
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)

	// Off by default.
	resp := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/debug/pprof/", nil, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without EnablePprof = %d, want 404", resp.StatusCode)
	}

	g2 := NewGateway(b)
	g2.EnablePprof()
	ts2 := httptest.NewServer(g2)
	t.Cleanup(ts2.Close)
	resp = doReq(t, ts2.Client(), http.MethodGet, ts2.URL+"/debug/pprof/", nil, nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index = %d, body %.60q", resp.StatusCode, string(body))
	}
}
