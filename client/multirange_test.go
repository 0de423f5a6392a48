package client_test

import (
	"bytes"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"scalia"
	"scalia/client"
)

// TestClientGetRanges round-trips a multi-range GET through the
// gateway's multipart/byteranges body: every window comes back with its
// resolved offset and exact bytes, unsatisfiable windows are dropped,
// and all-unsatisfiable maps to the range sentinel.
func TestClientGetRanges(t *testing.T) {
	_, c := newRemote(t, scalia.Options{StripeBytes: 2048, CacheBytes: 1 << 20})

	payload := make([]byte, 12*1024+7)
	rand.New(rand.NewSource(23)).Read(payload)
	if _, err := c.Put(ctx, "big", "blob", payload); err != nil {
		t.Fatal(err)
	}
	size := int64(len(payload))

	parts, meta, err := c.GetRanges(ctx, "big", "blob", []client.ByteRange{
		{Offset: 100, Length: 200},
		{Offset: 5000, Length: 1024},
		{Offset: size - 50, Length: -1}, // open-ended tail
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Size != size {
		t.Fatalf("meta = %+v", meta)
	}
	if len(parts) != 3 {
		t.Fatalf("got %d parts, want 3", len(parts))
	}
	want := []struct {
		offset int64
		data   []byte
	}{
		{100, payload[100:300]},
		{5000, payload[5000:6024]},
		{size - 50, payload[size-50:]},
	}
	for i, w := range want {
		if parts[i].Offset != w.offset || !bytes.Equal(parts[i].Data, w.data) {
			t.Fatalf("part %d = offset %d, %d bytes; want offset %d, %d bytes",
				i, parts[i].Offset, len(parts[i].Data), w.offset, len(w.data))
		}
	}

	// A single range degrades to a plain 206 — still one part.
	parts, _, err = c.GetRanges(ctx, "big", "blob", []client.ByteRange{{Offset: 10, Length: 20}})
	if err != nil || len(parts) != 1 || parts[0].Offset != 10 || !bytes.Equal(parts[0].Data, payload[10:30]) {
		t.Fatalf("single-range = %v (%d parts)", err, len(parts))
	}

	// Mixed satisfiable/unsatisfiable: the gateway serves the subset.
	parts, _, err = c.GetRanges(ctx, "big", "blob", []client.ByteRange{
		{Offset: 0, Length: 10},
		{Offset: size + 100, Length: 10},
	})
	if err != nil || len(parts) != 1 || !bytes.Equal(parts[0].Data, payload[:10]) {
		t.Fatalf("subset serving = %v (%d parts)", err, len(parts))
	}

	// Entirely unsatisfiable: the sentinel round-trips the wire.
	_, _, err = c.GetRanges(ctx, "big", "blob", []client.ByteRange{
		{Offset: size, Length: 10},
		{Offset: size + 5, Length: -1},
	})
	if !errors.Is(err, scalia.ErrRangeNotSatisfiable) {
		t.Fatalf("all-unsatisfiable = %v, want ErrRangeNotSatisfiable", err)
	}

	// Windows the wire form cannot express fail fast.
	for _, bad := range [][]client.ByteRange{
		nil,
		{{Offset: -1, Length: 5}},
		{{Offset: 0, Length: 0}},
		{{Offset: 0, Length: -2}},
	} {
		if _, _, err := c.GetRanges(ctx, "big", "blob", bad); !errors.Is(err, scalia.ErrInvalidArgument) {
			t.Fatalf("GetRanges(%v) = %v, want ErrInvalidArgument", bad, err)
		}
	}
}

// TestClientGetRangesFullBodyFallback: a server that ignores the Range
// header and ships the whole 200 body still yields every requested
// window, carved client-side.
func TestClientGetRangesFullBodyFallback(t *testing.T) {
	payload := []byte("0123456789abcdefghij")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write(payload) //nolint:errcheck
	}))
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, client.WithHTTPClient(ts.Client()))

	parts, _, err := c.GetRanges(ctx, "c", "k", []client.ByteRange{
		{Offset: 5, Length: 4},
		{Offset: 15, Length: -1},
		{Offset: 100, Length: 5}, // past the end: dropped
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || string(parts[0].Data) != "5678" || string(parts[1].Data) != "fghij" {
		t.Fatalf("fallback parts = %v", parts)
	}
}
