package client_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"scalia"
	"scalia/client"
	"scalia/internal/apitest"
	"scalia/internal/engine"
)

var ctx = context.Background()

// newRemote stands up a full deployment behind the v1 gateway and a
// typed client against it — the same topology as scalia-server plus a
// remote caller.
func newRemote(t *testing.T, opts scalia.Options) (*scalia.Client, *client.Client) {
	t.Helper()
	deployment, err := scalia.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(deployment.Close)
	ts := httptest.NewServer(deployment.NewGateway())
	t.Cleanup(ts.Close)
	return deployment, client.New(ts.URL, client.WithHTTPClient(ts.Client()))
}

// TestConformance runs the v1 contract suite through the typed client:
// against an in-process gateway, one fresh deployment per case — or, when
// SCALIA_GATEWAY_ADDR names a running scalia-server (e.g.
// "http://127.0.0.1:8080"; the CI gateway-smoke job), against that real
// process over TCP, where cases needing their own options skip.
func TestConformance(t *testing.T) {
	addr := os.Getenv("SCALIA_GATEWAY_ADDR")
	if addr == "" {
		apitest.Run(t, func(t *testing.T, opts scalia.Options) (scalia.API, *engine.Broker) {
			deployment, c := newRemote(t, opts)
			return c, deployment.Broker()
		})
		return
	}
	c := client.New(addr)
	var err error
	for i := 0; i < 50; i++ { // the server may still be binding its listener
		if _, err = c.Stats(ctx); err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("gateway unreachable at %s: %v", addr, err)
	}
	apitest.Run(t, func(t *testing.T, opts scalia.Options) (scalia.API, *engine.Broker) {
		if !reflect.ValueOf(opts).IsZero() {
			t.Skip("needs its own deployment options; the server under test has its own")
		}
		return c, nil
	})
}

// TestClientRejectsPerObjectRule: WithRule has no wire form, and dropping
// it silently would store the object under the wrong rule.
func TestClientRejectsPerObjectRule(t *testing.T) {
	_, c := newRemote(t, scalia.Options{})
	rule := scalia.Rule{Name: "wide", Durability: 0.99999, Availability: 0.99, LockIn: 0.2}
	if _, err := c.Put(ctx, "c", "k", []byte("v"), scalia.WithRule(rule)); !errors.Is(err, scalia.ErrInvalidArgument) {
		t.Fatalf("Put with a per-object rule = %v, want ErrInvalidArgument", err)
	}
	if _, err := c.CreateUpload(ctx, "c", "k", 0, scalia.WithRule(rule)); !errors.Is(err, scalia.ErrInvalidArgument) {
		t.Fatalf("CreateUpload with a per-object rule = %v, want ErrInvalidArgument", err)
	}
	if _, err := c.Head(ctx, "c", "k"); !errors.Is(err, scalia.ErrObjectNotFound) {
		t.Fatalf("Head after the refused writes = %v", err)
	}
}

// TestClientGetIfNoneMatch: the HTTP-only conditional fetch answers 304
// for the current ETag and the body for a stale one.
func TestClientGetIfNoneMatch(t *testing.T) {
	_, c := newRemote(t, scalia.Options{})
	meta, err := c.Put(ctx, "c", "k", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	rc, got, notModified, err := c.GetIfNoneMatch(ctx, "c", "k", meta.ETag())
	if err != nil || !notModified || rc != nil || got.Checksum != meta.Checksum {
		t.Fatalf("current ETag: notModified=%v, meta %+v, %v", notModified, got, err)
	}
	rc, _, notModified, err = c.GetIfNoneMatch(ctx, "c", "k", `"stale"`)
	if err != nil || notModified {
		t.Fatalf("stale ETag: notModified=%v, %v", notModified, err)
	}
	body, _ := io.ReadAll(rc)
	rc.Close()
	if string(body) != "v1" {
		t.Fatalf("stale ETag body = %q", body)
	}
}

// TestClientGetRangeFullBodyFallback: when a server (or intermediary)
// ignores the Range header and answers 200 with the whole body, the
// client must carve out the requested window instead of silently
// returning the full object from byte 0.
func TestClientGetRangeFullBodyFallback(t *testing.T) {
	payload := []byte("0123456789abcdefghij")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK) // Range ignored on purpose
		w.Write(payload)             //nolint:errcheck
	}))
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, client.WithHTTPClient(ts.Client()))

	rc, _, err := c.GetRange(ctx, "c", "k", 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || string(got) != "5678" {
		t.Fatalf("windowed fallback = %q, %v; want \"5678\"", got, err)
	}

	// Open-ended tail through the same degraded path.
	rc, _, err = c.GetRange(ctx, "c", "k", 15, -1)
	if err != nil {
		t.Fatal(err)
	}
	got, err = io.ReadAll(rc)
	rc.Close()
	if err != nil || string(got) != "fghij" {
		t.Fatalf("open-ended fallback = %q, %v; want \"fghij\"", got, err)
	}
}

// TestClientMatchesEmbeddedFacade: the same object written remotely is
// readable through the embedded facade and vice versa — one deployment,
// two interchangeable surfaces.
func TestClientMatchesEmbeddedFacade(t *testing.T) {
	deployment, c := newRemote(t, scalia.Options{})

	if _, err := c.Put(ctx, "c", "via-wire", []byte("remote write")); err != nil {
		t.Fatal(err)
	}
	got, _, err := deployment.Get(ctx, "c", "via-wire")
	if err != nil || string(got) != "remote write" {
		t.Fatalf("embedded read of remote write: %q, %v", got, err)
	}

	if _, err := deployment.Put(ctx, "c", "via-facade", []byte("embedded write")); err != nil {
		t.Fatal(err)
	}
	got2, _, err := c.Get(ctx, "c", "via-facade")
	if err != nil || string(got2) != "embedded write" {
		t.Fatalf("remote read of embedded write: %q, %v", got2, err)
	}
}
