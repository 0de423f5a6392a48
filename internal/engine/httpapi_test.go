package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/crc32c"
)

func newGatewayServer(t *testing.T, cfg Config) (*Broker, *httptest.Server) {
	t.Helper()
	b := NewBroker(cfg)
	t.Cleanup(b.Close)
	ts := httptest.NewServer(NewGateway(b))
	t.Cleanup(ts.Close)
	return b, ts
}

func doReq(t *testing.T, client *http.Client, method, url string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// errCode decodes the typed JSON error envelope.
func errCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	var env map[string]APIError
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("malformed error body: %v", err)
	}
	return env["error"].Code
}

func TestGatewayPutGetHeadDeleteList(t *testing.T) {
	_, ts := newGatewayServer(t, Config{})
	client := ts.Client()

	resp := doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/docs/hello.txt",
		[]byte("hello scalia"), map[string]string{
			"Content-Type": "text/plain", "X-Scalia-TTL-Hours": "24",
		})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	var meta ObjectMeta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if meta.Size != 12 || meta.M < 1 || len(meta.Chunks) < meta.M {
		t.Fatalf("PUT meta = %+v", meta)
	}
	if resp.Header.Get("ETag") == "" || resp.Header.Get("X-Scalia-Providers") == "" {
		t.Fatal("placement headers missing")
	}

	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/objects/docs/hello.txt", nil, nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "hello scalia" {
		t.Fatalf("GET = %d %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != "12" {
		t.Fatalf("Content-Length = %q", cl)
	}

	resp = doReq(t, client, http.MethodHead, ts.URL+"/v1/objects/docs/hello.txt", nil, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" {
		t.Fatalf("HEAD = %d", resp.StatusCode)
	}

	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/objects/docs", nil, nil)
	var list ListResult
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list.Keys) != 1 || list.Keys[0] != "hello.txt" || list.Truncated {
		t.Fatalf("LIST = %+v", list)
	}

	resp = doReq(t, client, http.MethodDelete, ts.URL+"/v1/objects/docs/hello.txt", nil, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/objects/docs/hello.txt", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after delete = %d", resp.StatusCode)
	}
	if code := errCode(t, resp); code != "not_found" {
		t.Fatalf("error code = %q, want not_found", code)
	}
	resp.Body.Close()
}

// TestGatewayStreamsMultiStripeObject proves the acceptance criterion:
// a multi-chunk, multi-stripe object round-trips through the gateway
// with the body split into stripes on the serving path, and every
// stripe is parity-consistent at the providers. The PUT, GET and HEAD
// replies name the body's CRC-32C, composed from the stripe sums.
func TestGatewayStreamsMultiStripeObject(t *testing.T) {
	b, ts := newGatewayServer(t, Config{StripeBytes: 1024})
	client := ts.Client()

	payload := make([]byte, 10*1024+137) // 11 stripes, last one partial
	rand.New(rand.NewSource(42)).Read(payload)

	resp := doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/big/blob",
		payload, map[string]string{"Content-Type": "application/octet-stream"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	var meta ObjectMeta
	json.NewDecoder(resp.Body).Decode(&meta)
	resp.Body.Close()
	if meta.Stripes != 11 {
		t.Fatalf("Stripes = %d, want 11", meta.Stripes)
	}
	wantCRC := formatCRC32C(crc32c.Checksum(payload))
	if got := resp.Header.Get("X-Checksum-CRC32C"); got != wantCRC {
		t.Fatalf("PUT X-Checksum-CRC32C = %q, want %q", got, wantCRC)
	}

	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/objects/big/blob", nil, nil)
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, payload) {
		t.Fatalf("GET = %d, %d bytes (want %d)", resp.StatusCode, len(got), len(payload))
	}
	if resp.Header.Get("X-Checksum-CRC32C") != wantCRC || resp.Header.Get("ETag") != meta.ETag() {
		t.Fatalf("GET headers %v, want CRC-32C %s and ETag %s", resp.Header, wantCRC, meta.ETag())
	}
	resp = doReq(t, client, http.MethodHead, ts.URL+"/v1/objects/big/blob", nil, nil)
	resp.Body.Close()
	if resp.Header.Get("X-Checksum-CRC32C") != wantCRC {
		t.Fatalf("HEAD headers %v, want CRC-32C %s", resp.Header, wantCRC)
	}

	// Every stripe must verify against its parity at the providers.
	if _, err := b.Engine(0).VerifyObject(context.Background(), "big", "blob"); err != nil {
		t.Fatalf("VerifyObject: %v", err)
	}

	// Deleting must clear all stripes' chunks everywhere.
	resp = doReq(t, client, http.MethodDelete, ts.URL+"/v1/objects/big/blob", nil, nil)
	resp.Body.Close()
	b.ProcessPendingDeletes(context.Background())
	for _, s := range b.Registry().Snapshot() {
		if bs, ok := s.(*cloud.BlobStore); ok && bs.ObjectCount() != 0 {
			t.Fatalf("%s still holds %d chunks after delete", bs.Spec().Name, bs.ObjectCount())
		}
	}
}

func TestGatewayConditionalRequests(t *testing.T) {
	b, ts := newGatewayServer(t, Config{})
	client := ts.Client()

	resp := doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/c/k", []byte("v1"), nil)
	etag := resp.Header.Get("ETag")
	resp.Body.Close()
	if etag == "" {
		t.Fatal("no ETag on PUT")
	}

	// A HEAD, a 304 and a 416 are answered from the row alone: they ask
	// no provider, take no stripe and log no read.
	reads := func() int64 { return int64(b.statsDB.History("c/k").Summary(b.Clock().Period(), 1).Reads) }
	ops, rs, before := b.Registry().TotalUsage().Ops, b.ReadStats(), reads()
	for _, req := range []struct {
		method string
		hdr    map[string]string
		want   int
	}{
		{http.MethodHead, nil, http.StatusOK},
		{http.MethodGet, map[string]string{"If-None-Match": etag}, http.StatusNotModified},
		{http.MethodGet, map[string]string{"Range": "bytes=2-"}, http.StatusRequestedRangeNotSatisfiable},
	} {
		resp = doReq(t, client, req.method, ts.URL+"/v1/objects/c/k", nil, req.hdr)
		resp.Body.Close()
		if resp.StatusCode != req.want {
			t.Fatalf("%s %v = %d, want %d", req.method, req.hdr, resp.StatusCode, req.want)
		}
	}
	if b.Registry().TotalUsage().Ops != ops || b.ReadStats() != rs || reads() != before {
		t.Fatalf("HEAD, 304 and 416 read: provider ops %d -> %d, read stats %+v -> %+v, logged reads %d -> %d",
			ops, b.Registry().TotalUsage().Ops, rs, b.ReadStats(), before, reads())
	}

	// Conditional GET with the current ETag -> 304, no body.
	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/objects/c/k", nil,
		map[string]string{"If-None-Match": etag})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("conditional GET = %d, %d body bytes", resp.StatusCode, len(body))
	}

	// A weakened ETag matches too (If-None-Match compares weakly, RFC
	// 9110 §13.1.2): alone, or in a list behind a stale one.
	for _, inm := range []string{"W/" + etag, `"deadbeef", W/` + etag} {
		resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/objects/c/k", nil,
			map[string]string{"If-None-Match": inm})
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %s: GET = %d, want 304", inm, resp.StatusCode)
		}
	}

	// Stale ETag -> full 200.
	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/objects/c/k", nil,
		map[string]string{"If-None-Match": `"deadbeef"`})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale conditional GET = %d", resp.StatusCode)
	}

	// PUT with wrong If-Match -> 412; with right If-Match -> 201.
	resp = doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/c/k", []byte("v2"),
		map[string]string{"If-Match": `"deadbeef"`})
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("PUT wrong If-Match = %d", resp.StatusCode)
	}
	if code := errCode(t, resp); code != "precondition_failed" {
		t.Fatalf("error code = %q", code)
	}
	resp.Body.Close()
	resp = doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/c/k", []byte("v2"),
		map[string]string{"If-Match": etag})
	etag2 := resp.Header.Get("ETag")
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || etag2 == etag {
		t.Fatalf("PUT right If-Match = %d, etag %q", resp.StatusCode, etag2)
	}

	// If-None-Match: * refuses to overwrite an existing object.
	resp = doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/c/k", []byte("v3"),
		map[string]string{"If-None-Match": "*"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("create-only PUT over existing = %d", resp.StatusCode)
	}

	// DELETE with wrong If-Match -> 412, object survives.
	resp = doReq(t, client, http.MethodDelete, ts.URL+"/v1/objects/c/k", nil,
		map[string]string{"If-Match": etag})
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("DELETE stale If-Match = %d", resp.StatusCode)
	}
	resp = doReq(t, client, http.MethodDelete, ts.URL+"/v1/objects/c/k", nil,
		map[string]string{"If-Match": etag2})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE right If-Match = %d", resp.StatusCode)
	}
}

// TestGatewayListWire covers what only the wire shows of a listing (the
// paging behaviour itself is a conformance case): a malformed limit is a
// typed 400, and an empty page is an empty JSON array, not null.
func TestGatewayListWire(t *testing.T) {
	_, ts := newGatewayServer(t, Config{})
	for _, route := range []string{"/v1/objects/c", "/v1/jobs"} {
		resp := doReq(t, ts.Client(), http.MethodGet, ts.URL+route+"?limit=0", nil, nil)
		if resp.StatusCode != http.StatusBadRequest || errCode(t, resp) != "invalid_argument" {
			t.Fatalf("%s?limit=0 = %d", route, resp.StatusCode)
		}
		resp.Body.Close()
		resp = doReq(t, ts.Client(), http.MethodGet, ts.URL+route, nil, nil)
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(raw), `"keys":[]`) && !strings.Contains(string(raw), `"jobs":[]`) {
			t.Fatalf("empty %s body = %s", route, raw)
		}
	}
}

func TestGatewayTypedErrors(t *testing.T) {
	b, ts := newGatewayServer(t, Config{})
	client := ts.Client()

	// Rule-validation failure -> 400 invalid_rule.
	bad, _ := json.Marshal(core.Rule{Name: "bad", LockIn: 2})
	resp := doReq(t, client, http.MethodPut, ts.URL+"/v1/rules/c", bad, nil)
	if resp.StatusCode != http.StatusBadRequest || errCode(t, resp) != "invalid_rule" {
		t.Fatalf("bad rule = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Infeasible placement -> 422: APAC-only with two distinct providers,
	// but only the two S3 profiles serve APAC and lock-in 0.3 needs four.
	infeasible, _ := json.Marshal(core.Rule{
		Name: "apac", Durability: 0.9999, Availability: 0.99,
		Zones: []cloud.Zone{cloud.ZoneAPAC}, LockIn: 0.25,
	})
	resp = doReq(t, client, http.MethodPut, ts.URL+"/v1/rules/apac", infeasible, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("feasible-shaped rule rejected: %d", resp.StatusCode)
	}
	resp = doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/apac/k", []byte("x"), nil)
	if resp.StatusCode != http.StatusUnprocessableEntity || errCode(t, resp) != "infeasible_placement" {
		t.Fatalf("infeasible PUT = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// A lifetime hint or a CRC-32C the client sent is validated before
	// any chunk traffic: never silently dropped ("abc" used to be a 201
	// without the hint), never discovered after the chunks were written
	// and billed ("+Inf" used to be a 500 after a roll-back).
	ops := b.Registry().TotalUsage().Ops
	for _, hdr := range []map[string]string{
		{"X-Scalia-TTL-Hours": "abc"}, {"X-Scalia-TTL-Hours": "+Inf"}, {"X-Scalia-TTL-Hours": "NaN"}, {"X-Scalia-TTL-Hours": "-1"},
		{"X-Checksum-CRC32C": "not base64"}, {"X-Checksum-CRC32C": "AAAA"}, // three bytes, not four
	} {
		for _, u := range []string{"/v1/objects/c/ttl", "/v1/objects/c/ttl?uploads"} {
			method := http.MethodPut
			if strings.HasSuffix(u, "?uploads") {
				method = http.MethodPost
			}
			resp = doReq(t, client, method, ts.URL+u, []byte("hello"), hdr)
			if resp.StatusCode != http.StatusBadRequest || errCode(t, resp) != "invalid_argument" {
				t.Fatalf("%s %s with %v = %d, want 400 invalid_argument", method, u, hdr, resp.StatusCode)
			}
			resp.Body.Close()
		}
	}
	if got := b.Registry().TotalUsage().Ops - ops; got != 0 {
		t.Fatalf("refused writes cost %v provider ops", got)
	}

	// Outage beyond the erasure threshold -> 503 unavailable.
	resp = doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/c/k", make([]byte, 1000), nil)
	resp.Body.Close()
	meta, err := b.Engine(0).Head(context.Background(), "c", "k")
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range meta.Chunks {
		if i >= len(meta.Chunks)-meta.M+1 {
			break
		}
		s, _ := b.Registry().Store(name)
		s.(*cloud.BlobStore).SetAvailable(false)
	}
	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/objects/c/k", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, resp) != "unavailable" {
		t.Fatalf("GET during blackout = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	// Missing Content-Length -> 411.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/objects/c/chunked", nil)
	pr, pw := io.Pipe()
	req.Body = pr
	req.ContentLength = -1
	go func() { pw.Write([]byte("data")); pw.Close() }()
	lresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusLengthRequired {
		t.Fatalf("chunked PUT = %d, want 411", lresp.StatusCode)
	}
}

func TestGatewayOversizedUpload(t *testing.T) {
	b := NewBroker(Config{})
	t.Cleanup(b.Close)
	g := NewGateway(b)
	g.MaxObjectBytes = 10
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)

	resp := doReq(t, ts.Client(), http.MethodPut, ts.URL+"/v1/objects/c/k", make([]byte, 11), nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || errCode(t, resp) != "too_large" {
		t.Fatalf("oversized PUT = %d", resp.StatusCode)
	}
}

func TestGatewayAdminSurface(t *testing.T) {
	_, ts := newGatewayServer(t, Config{})
	client := ts.Client()

	// Providers: the five Fig. 3 profiles, all available.
	resp := doReq(t, client, http.MethodGet, ts.URL+"/v1/providers", nil, nil)
	var provs []ProviderStatus
	json.NewDecoder(resp.Body).Decode(&provs)
	resp.Body.Close()
	if len(provs) != 5 {
		t.Fatalf("providers = %d, want 5", len(provs))
	}
	for _, p := range provs {
		if !p.Available {
			t.Fatalf("%s reported unavailable", p.Name)
		}
	}

	// Register CheapStor over the wire, then drop it.
	spec, _ := json.Marshal(cloud.CheapStorProvider())
	resp = doReq(t, client, http.MethodPost, ts.URL+"/v1/providers", spec, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST provider = %d", resp.StatusCode)
	}
	// A name collision must be refused, not silently replace the live
	// backend (which would orphan its chunks).
	resp = doReq(t, client, http.MethodPost, ts.URL+"/v1/providers", spec, nil)
	if resp.StatusCode != http.StatusConflict || errCode(t, resp) != "already_exists" {
		t.Fatalf("duplicate POST provider = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/providers", nil, nil)
	provs = nil
	json.NewDecoder(resp.Body).Decode(&provs)
	resp.Body.Close()
	if len(provs) != 6 {
		t.Fatalf("providers after POST = %d, want 6", len(provs))
	}
	resp = doReq(t, client, http.MethodDelete, ts.URL+"/v1/providers/CheapStor", nil, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE provider = %d", resp.StatusCode)
	}
	resp = doReq(t, client, http.MethodDelete, ts.URL+"/v1/providers/CheapStor", nil, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double DELETE provider = %d", resp.StatusCode)
	}

	// Synchronous (?wait=true) optimize and repair return their reports
	// with a 200 — the pre-jobs blocking contract.
	resp = doReq(t, client, http.MethodPost, ts.URL+"/v1/optimize?wait=true", nil, nil)
	var orep OptimizeReport
	json.NewDecoder(resp.Body).Decode(&orep)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || orep.Leader == "" {
		t.Fatalf("optimize = %d, %+v", resp.StatusCode, orep)
	}
	resp = doReq(t, client, http.MethodPost, ts.URL+"/v1/repair?wait=true&policy=active", nil, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair = %d", resp.StatusCode)
	}
	resp = doReq(t, client, http.MethodPost, ts.URL+"/v1/repair?policy=bogus", nil, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus repair policy = %d", resp.StatusCode)
	}
	resp = doReq(t, client, http.MethodPost, ts.URL+"/v1/repair?wait=maybe", nil, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus wait = %d", resp.StatusCode)
	}
}

// TestGatewayRangeRequests drives the Range header end to end: partial
// content with correct Content-Range, suffix and open-ended forms,
// unsatisfiable ranges, and the stripe-aligned mapping (a small range
// of a big object must not fetch every stripe).
func TestGatewayRangeRequests(t *testing.T) {
	b, ts := newGatewayServer(t, Config{StripeBytes: 1024, CacheBytes: 1 << 20})
	client := ts.Client()
	payload := make([]byte, 8*1024+200)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	resp := doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/big/blob", payload, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT = %d", resp.StatusCode)
	}
	size := int64(len(payload))

	get := func(rng string) *http.Response {
		t.Helper()
		return doReq(t, client, http.MethodGet, ts.URL+"/v1/objects/big/blob", nil,
			map[string]string{"Range": rng})
	}

	// Absolute range crossing a stripe boundary.
	resp = get("bytes=1500-2499")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range GET = %d, want 206", resp.StatusCode)
	}
	if !bytes.Equal(body, payload[1500:2500]) {
		t.Fatalf("range body mismatch: %d bytes", len(body))
	}
	if cr := resp.Header.Get("Content-Range"); cr != fmt.Sprintf("bytes 1500-2499/%d", size) {
		t.Fatalf("Content-Range = %q", cr)
	}
	if resp.Header.Get("Accept-Ranges") != "bytes" {
		t.Fatal("Accept-Ranges header missing")
	}
	// The 1000-byte range overlaps exactly stripes 1 and 2: only those
	// may have been fetched.
	if rs := b.ReadStats(); rs.StripesFetched != 2 {
		t.Fatalf("ranged GET fetched %d stripes, want 2", rs.StripesFetched)
	}

	// Open-ended and suffix forms.
	resp = get("bytes=8192-")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, payload[8192:]) {
		t.Fatalf("open-ended range = %d, %d bytes", resp.StatusCode, len(body))
	}
	resp = get("bytes=-100")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, payload[size-100:]) {
		t.Fatalf("suffix range = %d, %d bytes", resp.StatusCode, len(body))
	}
	if cr := resp.Header.Get("Content-Range"); cr != fmt.Sprintf("bytes %d-%d/%d", size-100, size-1, size) {
		t.Fatalf("suffix Content-Range = %q", cr)
	}

	// A last-pos past the end clamps to it (RFC 9110 §14.1.2), however
	// far past.
	resp = get("bytes=0-9223372036854775807")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, payload) {
		t.Fatalf("range to the largest last-pos = %d, %d bytes; want 206 of the whole body", resp.StatusCode, len(body))
	}
	if cr := resp.Header.Get("Content-Range"); cr != fmt.Sprintf("bytes 0-%d/%d", size-1, size) {
		t.Fatalf("clamped Content-Range = %q", cr)
	}

	// Unsatisfiable: starts at/past the end.
	resp = get(fmt.Sprintf("bytes=%d-", size))
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("past-end range = %d, want 416", resp.StatusCode)
	}
	if cr := resp.Header.Get("Content-Range"); cr != fmt.Sprintf("bytes */%d", size) {
		t.Fatalf("416 Content-Range = %q", cr)
	}
	if code := errCode(t, resp); code != "range_not_satisfiable" {
		t.Fatalf("error code = %q", code)
	}
	resp.Body.Close()

	// Multi-range headers are served as a true multipart/byteranges 206
	// (RFC 9110 §14.6): one part per range, each with its own
	// Content-Range against the same complete-length.
	resp = get("bytes=1500-2499,4000-4099")
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("multi-range GET = %d, want 206", resp.StatusCode)
	}
	mediatype, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil || mediatype != "multipart/byteranges" || params["boundary"] == "" {
		t.Fatalf("multi-range Content-Type = %q (%v)", resp.Header.Get("Content-Type"), err)
	}
	mr := multipart.NewReader(resp.Body, params["boundary"])
	wantParts := []struct {
		cr   string
		data []byte
	}{
		{fmt.Sprintf("bytes 1500-2499/%d", size), payload[1500:2500]},
		{fmt.Sprintf("bytes 4000-4099/%d", size), payload[4000:4100]},
	}
	for i, want := range wantParts {
		part, err := mr.NextPart()
		if err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
		if cr := part.Header.Get("Content-Range"); cr != want.cr {
			t.Fatalf("part %d Content-Range = %q, want %q", i, cr, want.cr)
		}
		got, err := io.ReadAll(part)
		if err != nil || !bytes.Equal(got, want.data) {
			t.Fatalf("part %d body mismatch: %d bytes (%v)", i, len(got), err)
		}
	}
	if _, err := mr.NextPart(); err != io.EOF {
		t.Fatalf("expected exactly 2 parts, NextPart = %v", err)
	}
	resp.Body.Close()

	// A multi-range mixing satisfiable and unsatisfiable elements serves
	// only the satisfiable subset; all-unsatisfiable is a 416.
	resp = get(fmt.Sprintf("bytes=0-99,%d-", size))
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("partially satisfiable multi-range = %d, want 206", resp.StatusCode)
	}
	_, params, _ = mime.ParseMediaType(resp.Header.Get("Content-Type"))
	mr = multipart.NewReader(resp.Body, params["boundary"])
	part, err := mr.NextPart()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := io.ReadAll(part); !bytes.Equal(got, payload[:100]) {
		t.Fatalf("satisfiable-subset part mismatch: %d bytes", len(got))
	}
	if _, err := mr.NextPart(); err != io.EOF {
		t.Fatalf("expected exactly 1 part, NextPart = %v", err)
	}
	resp.Body.Close()
	resp = get(fmt.Sprintf("bytes=%d-,-0", size))
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("all-unsatisfiable multi-range = %d, want 416", resp.StatusCode)
	}
	if cr := resp.Header.Get("Content-Range"); cr != fmt.Sprintf("bytes */%d", size) {
		t.Fatalf("multi-range 416 Content-Range = %q", cr)
	}
	resp.Body.Close()

	// Any malformed element invalidates the whole header (RFC 9110
	// §14.2): the response degrades to the full 200 body.
	for _, rng := range []string{"bytes=abc-def", "bytes=abc-def,0-10", "bytes=0-10,abc-def", "items=0-1"} {
		resp = get(rng)
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || int64(len(body)) != size {
			t.Fatalf("range %q = %d (%d bytes), want full 200", rng, resp.StatusCode, len(body))
		}
	}
}

// overwriteOnWrite is a ResponseWriter that runs overwrite on the first
// body Write it gets.
type overwriteOnWrite struct {
	*httptest.ResponseRecorder
	overwrite func()
}

func (w *overwriteOnWrite) Write(p []byte) (int, error) {
	if f := w.overwrite; f != nil {
		w.overwrite = nil
		f()
	}
	return w.ResponseRecorder.Write(p)
}

// TestGatewayMultiRangeServesOneVersion: every part of a multi-range 206
// is bytes of the version its Content-Range and ETag describe, also when
// an overwrite, and a settle behind it, land after the first part began.
func TestGatewayMultiRangeServesOneVersion(t *testing.T) {
	b := newTestBroker(t, Config{})
	e := b.Engine(0)
	old := bytes.Repeat([]byte("A"), 4000)
	if _, err := e.Put(ctx, "c", "k", old, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	w := &overwriteOnWrite{ResponseRecorder: httptest.NewRecorder(), overwrite: func() {
		if _, err := e.Put(ctx, "c", "k", bytes.Repeat([]byte("B"), 4000), PutOptions{}); err != nil {
			t.Error(err)
		}
		b.ProcessPendingDeletes(ctx)
	}}
	req := httptest.NewRequest(http.MethodGet, "/v1/objects/c/k", nil)
	req.Header.Set("Range", "bytes=0-9,3000-3009")
	NewGateway(b).ServeHTTP(w, req)
	if w.Code != http.StatusPartialContent {
		t.Fatalf("multi-range GET = %d, want 206", w.Code)
	}
	_, params, err := mime.ParseMediaType(w.Header().Get("Content-Type"))
	if err != nil {
		t.Fatal(err)
	}
	mr := multipart.NewReader(w.Body, params["boundary"])
	var parts []string
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after %q: %v", parts, err)
		}
		got, _ := io.ReadAll(part)
		parts = append(parts, string(got))
	}
	if want := []string{string(old[:10]), string(old[3000:3010])}; !slices.Equal(parts, want) {
		t.Fatalf("parts = %q, want %q: the body spliced two versions", parts, want)
	}
}

// TestGatewayStatsStripeCacheVisible asserts the acceptance criterion:
// stripe-cache hit/miss counters and the read-path fan-out counters are
// visible on GET /v1/stats after a repeat multi-stripe GET.
func TestGatewayStatsStripeCacheVisible(t *testing.T) {
	_, ts := newGatewayServer(t, Config{StripeBytes: 1024, CacheBytes: 1 << 20, EnginesPerDC: 1, Datacenters: []string{"dc1"}})
	client := ts.Client()
	payload := make([]byte, 6*1024)
	resp := doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/big/blob", payload, nil)
	resp.Body.Close()

	for i := 0; i < 2; i++ {
		resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/objects/big/blob", nil, nil)
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/stats", nil, nil)
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.StripeCache.Hits < 6 {
		t.Fatalf("stripe cache hits = %d, want >= 6 (repeat GET of 6 stripes): %+v", st.StripeCache.Hits, st.StripeCache)
	}
	if st.StripeCache.Misses == 0 || st.StripeCache.Entries != 6 {
		t.Fatalf("stripe cache counters = %+v", st.StripeCache)
	}
	if st.ReadPath.StripesFetched != 6 || st.ReadPath.StripesFromCache < 6 {
		t.Fatalf("read path counters = %+v", st.ReadPath)
	}
	if st.ReadPath.PrefetchedStripes == 0 {
		t.Fatalf("prefetch counter missing from stats: %+v", st.ReadPath)
	}
	// Write-path observability: the 6-stripe PUT above must be counted,
	// with the pipeline depth and the (drained) buffer gauges visible.
	if st.WritePath.StripesWritten != 6 || st.WritePath.PipelineDepth != DefaultWritePipelineDepth {
		t.Fatalf("write path counters = %+v", st.WritePath)
	}
	if st.WritePath.BufferedStripesPeak < 1 || st.WritePath.StripesInFlight != 0 {
		t.Fatalf("write buffer gauges = %+v", st.WritePath)
	}
}

// TestGatewayMultipartUpload drives the S3-style multipart protocol end
// to end over HTTP: open, stage parts, list, complete, read the object
// back across the part seam, and the 404 mapping for dead sessions.
func TestGatewayMultipartUpload(t *testing.T) {
	b, ts := newGatewayServer(t, Config{StripeBytes: 1024, CacheBytes: 1 << 20})
	client := ts.Client()
	objURL := ts.URL + "/v1/objects/mp/big"

	part1 := bytes.Repeat([]byte{3}, 2*1024)
	part2 := bytes.Repeat([]byte{4}, 700)
	whole := append(append([]byte(nil), part1...), part2...)

	// Open the session.
	resp := doReq(t, client, http.MethodPost, objURL+"?uploads", nil, map[string]string{
		"Content-Type":       "application/octet-stream",
		"X-Scalia-Size-Hint": fmt.Sprint(len(whole)),
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create upload = %d", resp.StatusCode)
	}
	var up UploadInfo
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if up.UploadID == "" || up.Container != "mp" || up.Key != "big" {
		t.Fatalf("upload info = %+v", up)
	}

	// Stage the parts; each answer carries the part's quoted ETag.
	etags := make([]string, 2)
	for i, body := range [][]byte{part1, part2} {
		u := fmt.Sprintf("%s?partNumber=%d&uploadId=%s", objURL, i+1, up.UploadID)
		resp = doReq(t, client, http.MethodPut, u, body, nil)
		var part PartInfo
		if err := json.NewDecoder(resp.Body).Decode(&part); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || part.Size != int64(len(body)) {
			t.Fatalf("part %d = %d (%+v)", i+1, resp.StatusCode, part)
		}
		if got := resp.Header.Get("ETag"); got != `"`+part.ETag+`"` {
			t.Fatalf("part %d ETag header = %q, body etag %q", i+1, got, part.ETag)
		}
		etags[i] = part.ETag
	}

	// List what is staged.
	resp = doReq(t, client, http.MethodGet, objURL+"?uploadId="+up.UploadID, nil, nil)
	var lp ListPartsResult
	if err := json.NewDecoder(resp.Body).Decode(&lp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(lp.Parts) != 2 || lp.Parts[0].PartNumber != 1 {
		t.Fatalf("list parts = %d (%+v)", resp.StatusCode, lp)
	}

	// Complete with the part list.
	completeBody, _ := json.Marshal(map[string][]CompletedPart{"parts": {
		{PartNumber: 1, ETag: etags[0]}, {PartNumber: 2, ETag: etags[1]},
	}})
	resp = doReq(t, client, http.MethodPost, objURL+"?uploadId="+up.UploadID, completeBody,
		map[string]string{"Content-Type": "application/json"})
	var meta ObjectMeta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || meta.Size != int64(len(whole)) || !meta.Multipart() {
		t.Fatalf("complete = %d (%+v)", resp.StatusCode, meta)
	}

	// The object serves whole and across the part seam.
	resp = doReq(t, client, http.MethodGet, objURL, nil, nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, whole) {
		t.Fatalf("GET completed object = %d (%d bytes)", resp.StatusCode, len(body))
	}
	resp = doReq(t, client, http.MethodGet, objURL, nil,
		map[string]string{"Range": "bytes=1500-2300"}) // spans part 1 -> part 2
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, whole[1500:2301]) {
		t.Fatalf("range across part seam = %d (%d bytes)", resp.StatusCode, len(body))
	}

	// The session is gone: 404 with the dedicated code.
	resp = doReq(t, client, http.MethodGet, objURL+"?uploadId="+up.UploadID, nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("list after complete = %d, want 404", resp.StatusCode)
	}
	if code := errCode(t, resp); code != "upload_not_found" {
		t.Fatalf("error code = %q, want upload_not_found", code)
	}
	resp.Body.Close()

	// A bare POST on an object path is a protocol error, and an abort of
	// an unknown upload maps to the same 404.
	resp = doReq(t, client, http.MethodPost, objURL, nil, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bare POST = %d, want 400", resp.StatusCode)
	}
	resp = doReq(t, client, http.MethodDelete, objURL+"?uploadId=ghost", nil, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("abort unknown upload = %d, want 404", resp.StatusCode)
	}
	if got := b.activeUploads(); got != 0 {
		t.Fatalf("active uploads left behind = %d", got)
	}
}

// TestGatewayRoundRobinsAcrossEngines: consecutive requests must spread
// over every engine of every datacenter (the Engine(0)-only bug).
func TestGatewayRoundRobinsAcrossEngines(t *testing.T) {
	b, ts := newGatewayServer(t, Config{Datacenters: []string{"dc1", "dc2"}, EnginesPerDC: 2})
	client := ts.Client()
	before := b.next.Load()
	const n = 8
	for i := 0; i < n; i++ {
		resp := doReq(t, client, http.MethodPut,
			fmt.Sprintf("%s/v1/objects/c/k%d", ts.URL, i), []byte("x"), nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %d = %d", i, resp.StatusCode)
		}
	}
	if got := b.next.Load() - before; got < n {
		t.Fatalf("round-robin counter advanced %d, want >= %d", got, n)
	}
	// All four engines share the metadata fabric, so every object must be
	// readable regardless of which engine serves the read.
	for i := 0; i < n; i++ {
		resp := doReq(t, client, http.MethodGet,
			fmt.Sprintf("%s/v1/objects/c/k%d", ts.URL, i), nil, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET k%d = %d", i, resp.StatusCode)
		}
	}
}

// cancelAfterReader delivers data until n bytes have been read, then
// cancels the context and keeps delivering; the engine must notice the
// cancellation and abort the fan-out.
type cancelAfterReader struct {
	n      int
	cancel context.CancelFunc
	read   int
}

func (r *cancelAfterReader) Read(p []byte) (int, error) {
	if r.read >= r.n && r.cancel != nil {
		r.cancel()
		r.cancel = nil
	}
	for i := range p {
		p[i] = byte(i)
	}
	r.read += len(p)
	return len(p), nil
}

// TestPutReaderCancellationAbortsFanOut asserts the acceptance
// criterion: cancelling the request context aborts the in-flight chunk
// fan-out, no metadata is committed, and written chunks roll back.
func TestPutReaderCancellationAbortsFanOut(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024})
	e := b.Engine(0)
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	src := &cancelAfterReader{n: 3 * 1024, cancel: cancel}
	_, err := e.PutReader(cctx, "c", "big", src, 64*1024, PutOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("PutReader after cancel = %v, want context.Canceled", err)
	}
	if _, err := e.Head(context.Background(), "c", "big"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("metadata committed despite cancellation: %v", err)
	}
	// Rollback must leave no orphan chunks at any provider once the reaper
	// has settled: the rollback's deletes run in the background.
	b.ProcessPendingDeletes(ctx)
	for _, s := range b.Registry().Snapshot() {
		if bs, ok := s.(*cloud.BlobStore); ok && bs.ObjectCount() != 0 {
			t.Fatalf("%s holds %d orphan chunks after cancel", bs.Spec().Name, bs.ObjectCount())
		}
	}
}

// TestGatewayCancelledPutRollsBack drives the same property end to end
// over HTTP: a client that disconnects mid-upload must not leave a
// partial object behind.
func TestGatewayCancelledPutRollsBack(t *testing.T) {
	b, ts := newGatewayServer(t, Config{StripeBytes: 1024})
	client := ts.Client()

	cctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, _ := http.NewRequestWithContext(cctx, http.MethodPut, ts.URL+"/v1/objects/c/huge", pr)
	req.ContentLength = 1 << 20
	done := make(chan error, 1)
	go func() {
		_, err := client.Do(req)
		done <- err
	}()
	pw.Write(make([]byte, 8*1024)) // a few stripes through, then vanish
	cancel()
	pw.CloseWithError(context.Canceled)
	if err := <-done; err == nil {
		t.Fatal("cancelled PUT reported success")
	}

	// The handler rolls back asynchronously; wait for it to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := b.Engine(0).Head(context.Background(), "c", "huge"); errors.Is(err, ErrObjectNotFound) {
			orphans := 0
			for _, s := range b.Registry().Snapshot() {
				if bs, ok := s.(*cloud.BlobStore); ok {
					orphans += bs.ObjectCount()
				}
			}
			if orphans == 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled PUT left metadata or orphan chunks behind")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGatewayFaultInjectionRepairSwap is the fault-injection e2e: boot
// the gateway over a registry, flip a provider dead directly on the
// backend (BlobStore.SetAvailable, bypassing the registry), keep a
// streaming GET open across the repair, POST the admin repair endpoint,
// and assert the report shows a chunk swap — not a re-stripe — with the
// repaired chunk parity-verified.
func TestGatewayFaultInjectionRepairSwap(t *testing.T) {
	reg := cloud.NewRegistry()
	for i, name := range []string{"A", "B", "C", "D"} {
		reg.Register(cloud.NewBlobStore(cloud.Spec{
			Name: name, Durability: 0.9999, Availability: 0.999,
			Zones:   []cloud.Zone{cloud.ZoneUS},
			Pricing: cloud.Pricing{StorageGBMonth: 0.10 + 0.01*float64(i), BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
		}))
	}
	b, ts := newGatewayServer(t, Config{Registry: reg, StripeBytes: 32 << 10})
	client := ts.Client()

	// Pin a wide rule so the placement stripes over {A, B, C} with D as
	// the only spare.
	rule := []byte(`{"name":"wide","durability":0.9999,"availability":0.99,"lockIn":0.334}`)
	resp := doReq(t, client, http.MethodPut, ts.URL+"/v1/rules/bk", rule, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("set rule: %d", resp.StatusCode)
	}

	payload := make([]byte, 192<<10)
	rand.New(rand.NewSource(3)).Read(payload)
	resp = doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/bk/obj", payload, nil)
	var meta ObjectMeta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || len(meta.Chunks) != 3 || meta.M != 2 {
		t.Fatalf("put: %d, meta %+v", resp.StatusCode, meta)
	}
	victim := meta.Chunks[0]

	// Fault injection directly on the backend: the change-notifier
	// back-reference must carry the epoch bump into the planner.
	st, ok := b.Registry().Store(victim)
	if !ok {
		t.Fatalf("unknown provider %q", victim)
	}
	st.(*cloud.BlobStore).SetAvailable(false)

	// Open a streaming GET before the repair and drain only half: the
	// stream must survive the in-place repair and finish bitwise intact.
	midReq, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/objects/bk/obj", nil)
	if err != nil {
		t.Fatal(err)
	}
	midResp, err := client.Do(midReq)
	if err != nil {
		t.Fatal(err)
	}
	defer midResp.Body.Close()
	if midResp.StatusCode != http.StatusOK {
		t.Fatalf("degraded GET: %d", midResp.StatusCode)
	}
	head := make([]byte, len(payload)/2)
	if _, err := io.ReadFull(midResp.Body, head); err != nil {
		t.Fatalf("mid-repair stream (first half): %v", err)
	}

	resp = doReq(t, client, http.MethodPost, ts.URL+"/v1/repair?wait=true&policy=active", nil, nil)
	var rep RepairReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair: %d", resp.StatusCode)
	}
	if rep.Swapped != 1 || rep.Restriped != 0 || rep.Repaired != 1 {
		t.Fatalf("repair must swap, not re-stripe: %+v", rep)
	}
	if rep.ChunksWritten != meta.StripeCount() {
		t.Fatalf("swap wrote %d chunks, want %d", rep.ChunksWritten, meta.StripeCount())
	}

	// Finish the stream opened before the repair.
	tail, err := io.ReadAll(midResp.Body)
	if err != nil {
		t.Fatalf("mid-repair stream (second half): %v", err)
	}
	if !bytes.Equal(append(head, tail...), payload) {
		t.Fatal("stream spanning the repair delivered corrupted bytes")
	}

	// Post-repair: the object references the spare, a fresh GET matches
	// with the ETag and CRC-32C of before, and the repaired chunk's sum and
	// parity verify across all n chunks.
	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/objects/bk/obj", nil, nil)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.Equal(body, payload) {
		t.Fatalf("post-repair GET mismatch: %v", err)
	}
	if providers := resp.Header.Get("X-Scalia-Providers"); strings.Contains(providers, victim) {
		t.Fatalf("repaired object still references %s: %s", victim, providers)
	}
	if resp.Header.Get("ETag") != meta.ETag() || resp.Header.Get("X-Checksum-CRC32C") != formatCRC32C(crc32c.Checksum(payload)) {
		t.Fatalf("post-repair headers %v, want ETag %s and the payload's CRC-32C", resp.Header, meta.ETag())
	}
	reachable, err := b.Engine(0).VerifyObject(context.Background(), "bk", "obj")
	if err != nil {
		t.Fatalf("post-repair parity verification: %v", err)
	}
	if reachable != len(meta.Chunks) {
		t.Fatalf("reachable = %d, want %d", reachable, len(meta.Chunks))
	}

	// The swap is visible on the stats surface.
	resp = doReq(t, client, http.MethodGet, ts.URL+"/v1/stats", nil, nil)
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Repair.Swapped != 1 || stats.Repair.Passes != 1 {
		t.Fatalf("stats.repair = %+v", stats.Repair)
	}
}

// TestGatewayChecksumCRC32C: X-Checksum-CRC32C is the body's end-to-end
// digest, composed from the stripe sums. A PUT that sends the right one
// lands; one whose bytes do not match it is a 400 invalid_argument before
// it commits — the live version stays, and nothing is left at the
// providers. A multipart upload's is the assembled object's, checked when
// the upload completes.
func TestGatewayChecksumCRC32C(t *testing.T) {
	b, ts := newGatewayServer(t, Config{StripeBytes: 1024})
	payload := testPayload(5*1024 + 77) // six stripes, ragged tail
	sum := crc32c.Checksum(payload)
	put := func(key string, body []byte, crc uint32) *http.Response {
		t.Helper()
		return doReq(t, ts.Client(), http.MethodPut, ts.URL+"/v1/objects/c/"+key, body,
			map[string]string{"X-Checksum-CRC32C": formatCRC32C(crc)})
	}
	resp := put("k", payload, sum)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusCreated || resp.Header.Get("X-Checksum-CRC32C") != formatCRC32C(sum) {
		t.Fatalf("PUT with the body's CRC-32C = %d, headers %v", resp.StatusCode, resp.Header)
	}
	b.ProcessPendingDeletes(ctx)
	before := usedBytesTotal(b)

	for _, refused := range []struct {
		key  string
		body []byte
		crc  uint32
	}{
		{"k", testPayload(len(payload) + 1)[1:], sum}, // an overwrite: other bytes, same length
		{"fresh", payload, sum + 1},
	} {
		resp := put(refused.key, refused.body, refused.crc)
		if resp.StatusCode != http.StatusBadRequest || errCode(t, resp) != "invalid_argument" {
			t.Fatalf("PUT %s whose bytes miss its CRC-32C = %d, want 400 invalid_argument", refused.key, resp.StatusCode)
		}
		resp.Body.Close()
	}
	e, bad := b.Engine(0), sum+1
	up, err := e.CreateUpload(ctx, "c", "mp", 0, PutOptions{CRC32C: &bad})
	if err != nil {
		t.Fatal(err)
	}
	part, err := e.UploadPart(ctx, up.UploadID, 1, bytes.NewReader(payload), int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CompleteUpload(ctx, up.UploadID, []CompletedPart{{PartNumber: 1, ETag: part.ETag}}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("upload completing with a wrong CRC-32C = %v, want ErrInvalidArgument", err)
	}

	b.ProcessPendingDeletes(ctx)
	if after := usedBytesTotal(b); after != before {
		t.Fatalf("refused writes left %d bytes at the providers", after-before)
	}
	got, meta, err := e.Get(ctx, "c", "k")
	if err != nil || !bytes.Equal(got, payload) || meta.ETag() != etag {
		t.Fatalf("after the refused overwrite: %v, ETag %s (want %s)", err, meta.ETag(), etag)
	}
	for _, key := range []string{"fresh", "mp"} {
		if _, err := e.Head(ctx, "c", key); !errors.Is(err, ErrObjectNotFound) {
			t.Fatalf("Head %s after its refused write = %v", key, err)
		}
	}
}

// TestETagSurvivesMaintenance: an ETag names the write, and neither a
// migration nor a swap repair is one — they rewrite chunks, not the
// object — so If-None-Match with the ETag a client holds still gets a 304
// after each, and If-Match still names the version.
func TestETagSurvivesMaintenance(t *testing.T) {
	b, ts := newGatewayServer(t, Config{Registry: marketOf("A", "B", "C", "D")})
	client := ts.Client()
	rule := exactRule(2, 3) // three of the four: one spare to swap onto
	b.Rules().SetContainerRule("c", rule)
	resp := doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/c/k", testPayload(5000), nil)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	notModified := func(after string) {
		t.Helper()
		resp := doReq(t, client, http.MethodGet, ts.URL+"/v1/objects/c/k", nil, map[string]string{"If-None-Match": etag})
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %s after %s: GET = %d, want 304", etag, after, resp.StatusCode)
		}
	}
	notModified("the PUT")

	e := b.Engine(0)
	meta, err := e.Head(ctx, "c", "k")
	if err != nil || len(meta.Chunks) != 3 {
		t.Fatalf("Head = %+v, %v; the scenario needs three of four providers", meta, err)
	}
	to := core.Placement{M: meta.M}
	for _, name := range meta.Chunks {
		s, _ := b.Registry().Store(name)
		to.Providers = append(to.Providers, s.Spec())
	}
	if err := e.migrate(ctx, meta, to); err != nil {
		t.Fatal(err)
	}
	if moved, _ := e.Head(ctx, "c", "k"); moved.UUID == meta.UUID {
		t.Fatal("the migration wrote no new version")
	}
	notModified("a migration")

	b.Registry().UpdateAvailability(meta.Chunks[0], false)
	if rep, err := b.Repair(ctx, RepairActive); err != nil || rep.Swapped != 1 {
		t.Fatalf("repair = %+v, %v; want one swap", rep, err)
	}
	b.Registry().UpdateAvailability(meta.Chunks[0], true)
	if swapped, _ := e.Head(ctx, "c", "k"); slices.Contains(swapped.Chunks, meta.Chunks[0]) {
		t.Fatalf("the swap left %s in %v", meta.Chunks[0], swapped.Chunks)
	}
	notModified("a swap repair")

	resp = doReq(t, client, http.MethodPut, ts.URL+"/v1/objects/c/k", testPayload(5000), map[string]string{"If-Match": etag})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || resp.Header.Get("ETag") == etag {
		t.Fatalf("If-Match PUT after maintenance = %d, ETag %s; want 201 and a new ETag", resp.StatusCode, resp.Header.Get("ETag"))
	}
}

// FuzzParseRangeHeader: whatever a client sends as Range, parseRanges
// never panics, and against any object size a header it accepts yields no
// more windows than it has elements, each non-empty and inside the object;
// a header it rejects yields none.
func FuzzParseRangeHeader(f *testing.F) {
	for _, seed := range []string{
		"bytes=1500-2499", "bytes=8192-", "bytes=-100", "bytes=8392-", "bytes=1500-2499,4000-4099",
		"bytes=0-99,8392-", "bytes=8392-,-0", "bytes=abc-def", "bytes=abc-def,0-10", "bytes=0-10,abc-def",
		"items=0-1", "", "bytes=", "bytes=-", "bytes= 1 - 2 , -3", "bytes=5-4", "bytes=9223372036854775807-",
		"bytes=0-9223372036854775807", "bytes=-9223372036854775807",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, header string) {
		for _, size := range []int64{0, 1, 8392, 1 << 62} {
			windows, elements, ok := parseRanges(header, size)
			if !ok {
				if windows != nil {
					t.Fatalf("%q rejected for size %d but returned %v", header, size, windows)
				}
				continue
			}
			if len(windows) > elements {
				t.Fatalf("%q, size %d: %d windows from %d elements", header, size, len(windows), elements)
			}
			for _, w := range windows {
				if w.offset < 0 || w.length < 1 || w.offset >= size || w.length > size-w.offset {
					t.Fatalf("%q, size %d: window %+v outside the object", header, size, w)
				}
			}
		}
	})
}
