package engine

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/cloud/cloudtest"
	"scalia/internal/core"
)

// TestProviderOpSeriesPinned pins what a scripted deployment's provider
// ops leave in /metrics and /v1/healthz: the exact set of
// scalia_provider_op_* series and their counts. A (4, 5) object of four
// 1 KiB stripes over the paper's five providers is written, read, read
// again with Google failing every Get, and deleted; then /v1/healthz is
// asked, which lists an error count for every provider and op.
func TestProviderOpSeriesPinned(t *testing.T) {
	reg, backends := cloudtest.Wrap(cloud.NewPaperRegistry())
	b, ts := newGatewayServer(t, Config{Registry: reg, Clock: NewSimClock(), StripeBytes: 1024})
	b.Rules().SetContainerRule("c", core.PaperRules()[2])
	client := ts.Client()
	payload := testPayload(4 * 1024)
	obj := ts.URL + "/v1/objects/c/k"

	expect := func(method, url string, body []byte, code int) []byte {
		t.Helper()
		resp := doReq(t, client, method, url, body, nil)
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != code {
			t.Fatalf("%s %s = %d (%v), want %d", method, url, resp.StatusCode, err, code)
		}
		return got
	}
	expect(http.MethodPut, obj, payload, http.StatusCreated)
	meta, err := b.Engine(0).Head(ctx, "c", "k")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{cloud.NameRackspace, cloud.NameAzure, cloud.NameGoogle, cloud.NameS3High, cloud.NameS3Low}
	if !slices.Equal(meta.Chunks, want) {
		t.Fatalf("slots %v, scenario expects %v", meta.Chunks, want)
	}
	if got := expect(http.MethodGet, obj, nil, http.StatusOK); string(got) != string(payload) {
		t.Fatal("healthy read returned other bytes")
	}
	for _, f := range backends {
		if f.Spec().Name == cloud.NameGoogle {
			f.OnGet = func(context.Context, string) error { return errors.New("injected fetch failure") }
		}
	}
	if got := expect(http.MethodGet, obj, nil, http.StatusOK); string(got) != string(payload) {
		t.Fatal("read around a failing provider returned other bytes")
	}
	expect(http.MethodDelete, obj, nil, http.StatusNoContent)
	b.ProcessPendingDeletes(ctx)

	// Four stripes: every provider took 4 Puts and 4 Deletes; the data
	// slots served 4 Gets per read, and Google's 4 failed Gets of the
	// second read went to S3(l), the parity slot. An error series exists
	// once its provider failed an op of its kind, or once /v1/healthz
	// has asked for it.
	wantSeries, afterHealth := map[string]float64{}, map[string]float64{}
	for _, p := range want {
		gets := 8.0
		if p == cloud.NameS3Low {
			gets = 4
		}
		for op, n := range map[string]float64{"get": gets, "put": 4, "delete": 4} {
			labels := `{provider="` + p + `",op="` + op + `"}`
			wantSeries["scalia_provider_op_duration_seconds_count"+labels] = n
			afterHealth["scalia_provider_op_errors_total"+labels] = 0
		}
	}
	wantSeries[`scalia_provider_op_errors_total{provider="Ggl",op="get"}`] = 4
	maps.Copy(afterHealth, wantSeries)
	providerSeries := func(want map[string]float64) {
		t.Helper()
		_, vals := scrape(t, client, ts.URL)
		got := map[string]float64{}
		for k, v := range vals {
			if strings.HasPrefix(k, "scalia_provider_op_") &&
				!strings.HasPrefix(k, "scalia_provider_op_duration_seconds_bucket") &&
				!strings.HasPrefix(k, "scalia_provider_op_duration_seconds_sum") {
				got[k] = v
			}
		}
		if !maps.Equal(got, want) {
			t.Fatalf("scalia_provider_op_* series differ from the script's:\n got %v\nwant %v", got, want)
		}
	}
	providerSeries(wantSeries)
	var h Health
	if err := json.Unmarshal(expect(http.MethodGet, ts.URL+"/v1/healthz", nil, http.StatusOK), &h); err != nil {
		t.Fatal(err)
	}
	providerSeries(afterHealth)

	for _, p := range h.Providers {
		calls := uint64(wantSeries[`scalia_provider_op_duration_seconds_count{provider="`+p.Name+`",op="get"}`] + 8)
		errs := int64(wantSeries[`scalia_provider_op_errors_total{provider="`+p.Name+`",op="get"}`])
		if p.Calls != calls || p.Errors != errs {
			t.Errorf("healthz %s: %d calls, %d errors; want %d, %d", p.Name, p.Calls, p.Errors, calls, errs)
		}
	}
	if len(h.Providers) != len(want) {
		t.Fatalf("healthz lists %d providers, want %d", len(h.Providers), len(want))
	}
}

// TestObserveProviderOpAllocatesNothing: a provider op updates fields its
// record already holds, on success and on error; no series key is built.
func TestObserveProviderOpAllocatesNothing(t *testing.T) {
	b := newTestBroker(t, Config{})
	failed := errors.New("injected failure")
	for op := range providerOpNames {
		for _, err := range []error{nil, failed} {
			observe := func() { b.observeProviderOp(cloud.NameGoogle, providerOp(op), time.Now(), err) }
			observe() // the record and the series it asks for
			if a := testing.AllocsPerRun(100, observe); a != 0 {
				t.Errorf("%s, error %v: %v allocations per op", providerOpNames[op], err, a)
			}
		}
	}
}

// TestGatewayObserveAllocatesNothing: a request on a route and status
// the gateway has served before updates series its route record holds;
// a new status adds its own counter, and /metrics counts both.
func TestGatewayObserveAllocatesNothing(t *testing.T) {
	b := newTestBroker(t, Config{})
	g := NewGateway(b)
	const route = "/v1/objects/{container}/{key...}"
	observe := func() { g.observe(http.MethodGet, route, http.StatusOK, time.Millisecond, 10) }
	observe() // the record and its 200 counter
	if a := testing.AllocsPerRun(100, observe); a != 0 {
		t.Fatalf("%v allocations per request", a)
	}
	g.observe(http.MethodGet, route, http.StatusNotFound, time.Millisecond, 0)
	var text strings.Builder
	if err := b.metrics.reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	labels := `{method="GET",route="` + route + `"`
	for _, want := range []string{
		`scalia_http_requests_total` + labels + `,code="200"} 102`,
		`scalia_http_requests_total` + labels + `,code="404"} 1`,
		`scalia_http_request_duration_seconds_count` + labels + `} 103`,
		`scalia_http_response_bytes_total` + labels + `} 1020`,
	} {
		if !strings.Contains(text.String(), want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
