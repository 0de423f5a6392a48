package privstore

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"scalia/internal/cloud"
)

var ctx = context.Background()

func newPair(t *testing.T, capacity int64) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(t.TempDir(), []byte("secret-token"), capacity)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, []byte("secret-token"))
}

func TestServerRejectsBadToken(t *testing.T) {
	srv, err := NewServer(t.TempDir(), []byte("right"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, []byte("wrong"))
	if err := c.Put(ctx, "k", []byte("v")); !errors.Is(err, ErrRemote) {
		t.Fatalf("bad token accepted: %v", err)
	}
}

func TestServerRejectsMissingSignature(t *testing.T) {
	srv, _ := NewServer(t.TempDir(), []byte("tok"), 0)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/objects/k")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d, want 401", resp.StatusCode)
	}
}

func TestServerRejectsReplayedTimestamp(t *testing.T) {
	srv, _ := NewServer(t.TempDir(), []byte("tok"), 0)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, []byte("tok"))
	// An old timestamp (beyond the skew window) must be refused even with
	// a valid signature.
	c.now = func() time.Time { return time.Now().Add(-MaxClockSkew - time.Minute) }
	if err := c.Put(ctx, "k", []byte("v")); !errors.Is(err, ErrRemote) {
		t.Fatalf("stale timestamp accepted: %v", err)
	}
}

func TestUsageSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(dir, []byte("tok"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	c := NewClient(ts.URL, []byte("tok"))
	c.Put(ctx, "k", make([]byte, 123))
	ts.Close()

	srv2, err := NewServer(dir, []byte("tok"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if srv2.UsedBytes() != 123 {
		t.Fatalf("restarted usage = %d, want 123", srv2.UsedBytes())
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	c2 := NewClient(ts2.URL, []byte("tok"))
	got, err := c2.Get(ctx, "k")
	if err != nil || len(got) != 123 {
		t.Fatalf("data lost across restart: %v", err)
	}
}

// TestStatusSpeaksTheCloudVocabulary: a refusal the cloud package has a
// sentinel for wraps it, so the broker tells a missing chunk, a full
// store and an outage apart; every refusal stays an ErrRemote.
func TestStatusSpeaksTheCloudVocabulary(t *testing.T) {
	for code, want := range map[int]error{
		http.StatusNotFound:            cloud.ErrNotFound,
		http.StatusInsufficientStorage: cloud.ErrOverCapacity,
		http.StatusInternalServerError: cloud.ErrUnavailable,
		http.StatusServiceUnavailable:  cloud.ErrUnavailable,
		http.StatusUnauthorized:        nil,
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(code)
		}))
		_, err := NewClient(ts.URL, []byte("tok")).Get(ctx, "k")
		ts.Close()
		if !errors.Is(err, ErrRemote) {
			t.Errorf("%d: %v is not an ErrRemote", code, err)
		}
		for _, sentinel := range []error{cloud.ErrNotFound, cloud.ErrOverCapacity, cloud.ErrUnavailable} {
			if errors.Is(err, sentinel) != (sentinel == want) {
				t.Errorf("%d: errors.Is(%v, %v) = %v", code, err, sentinel, !(sentinel == want))
			}
		}
	}
}

func TestSignDeterministic(t *testing.T) {
	a := Sign([]byte("t"), "PUT", "/objects/x", 42)
	b := Sign([]byte("t"), "PUT", "/objects/x", 42)
	if a != b {
		t.Fatal("signature must be deterministic")
	}
	if a == Sign([]byte("t"), "GET", "/objects/x", 42) {
		t.Fatal("method must be part of the signature")
	}
	if a == Sign([]byte("t"), "PUT", "/objects/y", 42) {
		t.Fatal("path must be part of the signature")
	}
	if a == Sign([]byte("t"), "PUT", "/objects/x", 43) {
		t.Fatal("timestamp must be part of the signature")
	}
	if a == Sign([]byte("u"), "PUT", "/objects/x", 42) {
		t.Fatal("token must be part of the signature")
	}
}

// TestOverwriteIsAtomic: the broker heals a rotten chunk by writing the
// same key again, while reads of it go on. A read that races an overwrite
// returns one version's body whole, never a truncated file.
func TestOverwriteIsAtomic(t *testing.T) {
	_, c := newPair(t, 0)
	versions := [][]byte{bytes.Repeat([]byte("a"), 256<<10), bytes.Repeat([]byte("b"), 256<<10+1)}
	if err := c.Put(ctx, "k", versions[0]); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := c.Put(ctx, "k", versions[(w+i)%2]); err != nil {
					t.Errorf("put: %v", err)
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	for torn := false; ; {
		got, err := c.Get(ctx, "k")
		if !torn && (err != nil || !bytes.Equal(got, versions[0]) && !bytes.Equal(got, versions[1])) {
			torn = true
			t.Errorf("read %d bytes that are neither version (%v)", len(got), err)
		}
		select {
		case <-done:
			if keys, err := c.List(ctx, ""); err != nil || len(keys) != 1 {
				t.Errorf("List = %v, %v: a temporary file is showing", keys, err)
			}
			return
		default:
		}
	}
}
