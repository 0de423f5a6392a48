package cloud_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/cloud/cloudtest"
	"scalia/internal/privstore"
)

// backend is one cloud.Store implementation under test, with the means
// to take it down and bring it back.
type backend struct {
	cloud.Backend
	setAvailable func(up bool)
	// another opens a second empty store of the same kind and spec.
	another func() backend
	// requests counts the requests a remote store was sent; nil for an
	// in-memory one.
	requests *atomic.Int64
}

// backends opens a fresh, empty store of each kind for spec; a private
// store takes its capacity limit from spec.CapacityBytes.
var backends = []struct {
	name string
	open func(t *testing.T, spec cloud.Spec) backend
}{
	{"BlobStore", func(t *testing.T, spec cloud.Spec) backend {
		s := cloud.NewBlobStore(spec)
		return backend{Backend: s, setAvailable: s.SetAvailable}
	}},
	{"privstore", openPrivstore},
	// The fake the engine's tests stand on, armed with a delay and hooks
	// that let every op through.
	{"Faulty", func(t *testing.T, spec cloud.Spec) backend {
		f := &cloudtest.Faulty{BlobStore: cloud.NewBlobStore(spec), GetDelay: time.Microsecond, PutDelay: time.Microsecond, DeleteDelay: time.Microsecond}
		pass := func(context.Context, string) error { return nil }
		f.OnGet, f.OnPut, f.OnDelete = pass, pass, pass
		return backend{Backend: f, setAvailable: f.SetAvailable}
	}},
}

// openPrivstore serves a private store on httptest. While it is down the
// service drops every connection unanswered: a transport failure.
func openPrivstore(t *testing.T, spec cloud.Spec) backend {
	token := []byte("conformance")
	srv, err := privstore.NewServer(t.TempDir(), token, spec.CapacityBytes)
	if err != nil {
		t.Fatal(err)
	}
	var down atomic.Bool
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if down.Load() {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	b := privstore.NewBackend(privstore.NewClient(ts.URL, token), spec)
	return backend{Backend: b, setAvailable: func(up bool) { down.Store(!up) }, requests: &requests}
}

var ctx = context.Background()

// storeCases is the cloud.Store contract every backend meets. A case
// whose spec sets a limit runs on a store opened with that limit.
var storeCases = []struct {
	name string
	spec cloud.Spec
	run  func(t *testing.T, s backend)
}{
	{name: "PutGetRoundTrip", run: func(t *testing.T, s backend) {
		objects := map[string][]byte{
			"a/b":                        []byte("payload"),
			"dir/../weird key/äöü/..%2F": []byte("safe"),
			"q?x=1&y#frag+ ":             {0, 1, 2, 255},
			"empty":                      {},
		}
		var keys []string
		var total int64
		for k, v := range objects {
			mustPut(t, s, k, v)
			keys, total = append(keys, k), total+int64(len(v))
		}
		for k, v := range objects {
			if got, err := s.Get(ctx, k); err != nil || !bytes.Equal(got, v) {
				t.Errorf("Get(%q) = %v, %v; want %v", k, got, err, v)
			}
		}
		slices.Sort(keys)
		wantList(t, s, "", keys...)
		if got := s.UsedBytes(); got != total {
			t.Errorf("UsedBytes = %d, want %d", got, total)
		}
	}},
	{name: "DeleteFrees", run: func(t *testing.T, s backend) {
		mustPut(t, s, "a/b", []byte("payload"))
		if got := s.UsedBytes(); got != 7 {
			t.Fatalf("UsedBytes = %d, want 7", got)
		}
		if err := s.Delete(ctx, "a/b"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(ctx, "a/b"); !errors.Is(err, cloud.ErrNotFound) {
			t.Errorf("Get after Delete: %v, want ErrNotFound", err)
		}
		if got := s.UsedBytes(); got != 0 {
			t.Errorf("UsedBytes after Delete = %d, want 0", got)
		}
		wantList(t, s, "")
	}},
	{name: "MissingKeyIsNotFound", run: func(t *testing.T, s backend) {
		if _, err := s.Get(ctx, "nope"); !errors.Is(err, cloud.ErrNotFound) {
			t.Errorf("Get of a missing key: %v, want ErrNotFound", err)
		}
		if err := s.Delete(ctx, "nope"); !errors.Is(err, cloud.ErrNotFound) {
			t.Errorf("Delete of a missing key: %v, want ErrNotFound", err)
		}
	}},
	{name: "OverwriteAccounting", run: func(t *testing.T, s backend) {
		mustPut(t, s, "k", make([]byte, 100))
		mustPut(t, s, "k", make([]byte, 40))
		if got := s.UsedBytes(); got != 40 {
			t.Errorf("UsedBytes = %d, want 40", got)
		}
		if got, err := s.Get(ctx, "k"); err != nil || len(got) != 40 {
			t.Errorf("Get = %d bytes, %v; want 40", len(got), err)
		}
		wantList(t, s, "", "k")
		if c, ok := s.Backend.(interface{ ObjectCount() int }); ok && c.ObjectCount() != 1 {
			t.Errorf("ObjectCount = %d, want 1", c.ObjectCount())
		}
	}},
	{name: "ListPrefixSorted", run: func(t *testing.T, s backend) {
		for _, k := range []string{"x/2", "y/1", "x/1", "xa"} {
			mustPut(t, s, k, nil)
		}
		wantList(t, s, "x/", "x/1", "x/2")
		wantList(t, s, "z")
	}},
	{name: "OverCapacity", spec: cloud.Spec{CapacityBytes: 100}, run: func(t *testing.T, s backend) {
		mustPut(t, s, "a", make([]byte, 60))
		if err := s.Put(ctx, "b", make([]byte, 60)); !errors.Is(err, cloud.ErrOverCapacity) {
			t.Fatalf("Put past capacity: %v, want ErrOverCapacity", err)
		}
		wantList(t, s, "", "a")
		// Overwriting within capacity is allowed.
		mustPut(t, s, "a", make([]byte, 100))
		if got := s.UsedBytes(); got != 100 {
			t.Errorf("UsedBytes = %d, want 100", got)
		}
	}},
	// A store is known to be down by its failed calls: after the four
	// below, Available must say so, and one answer brings it back.
	{name: "DownIsUnavailable", run: func(t *testing.T, s backend) {
		mustPut(t, s, "k", []byte("x"))
		s.setAvailable(false)
		if _, err := s.Get(ctx, "k"); !errors.Is(err, cloud.ErrUnavailable) {
			t.Errorf("Get while down: %v", err)
		}
		if err := s.Put(ctx, "k2", nil); !errors.Is(err, cloud.ErrUnavailable) {
			t.Errorf("Put while down: %v", err)
		}
		if err := s.Delete(ctx, "k"); !errors.Is(err, cloud.ErrUnavailable) {
			t.Errorf("Delete while down: %v", err)
		}
		if _, err := s.List(ctx, ""); !errors.Is(err, cloud.ErrUnavailable) {
			t.Errorf("List while down: %v", err)
		}
		if s.Available() {
			t.Error("Available after four failed calls")
		}
		// A transient outage keeps the data.
		s.setAvailable(true)
		if got, err := s.Get(ctx, "k"); err != nil || string(got) != "x" {
			t.Errorf("Get after recovery = %q, %v", got, err)
		}
		if !s.Available() {
			t.Error("not Available after an answer")
		}
		wantList(t, s, "", "k")
	}},
	// Available and UsedBytes are read under the registry's market
	// rebuild and on every write's capacity check: they answer from
	// memory and send nothing.
	{name: "HealthAnswersFromMemory", spec: cloud.Spec{CapacityBytes: 100}, run: func(t *testing.T, s backend) {
		mustPut(t, s, "k", make([]byte, 30))
		var sent int64
		if s.requests != nil {
			sent = s.requests.Load()
		}
		for i := 0; i < 10; i++ {
			if !s.Available() || s.UsedBytes() != 30 {
				t.Fatalf("Available = %v, UsedBytes = %d; want true, 30", s.Available(), s.UsedBytes())
			}
		}
		if s.requests != nil && s.requests.Load() != sent {
			t.Errorf("Available and UsedBytes sent %d requests", s.requests.Load()-sent)
		}
	}},
	{name: "CancelledContext", run: func(t *testing.T, s backend) {
		mustPut(t, s, "k", []byte("x"))
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		for op, err := range map[string]error{
			"Put":    s.Put(cancelled, "k2", []byte("y")),
			"Get":    second(s.Get(cancelled, "k")),
			"Delete": s.Delete(cancelled, "k"),
			"List":   second(s.List(cancelled, "")),
		} {
			if !errors.Is(err, context.Canceled) || errors.Is(err, cloud.ErrUnavailable) {
				t.Errorf("%s with a cancelled context: %v, want context.Canceled only", op, err)
			}
		}
		wantList(t, s, "", "k")
	}},
	// The write path hands Put pooled chunk memory and recycles it for
	// the next stripe once Put returns (erasure.EncodeFill); this row is
	// what makes that safe.
	{name: "PutCopiesIn", run: func(t *testing.T, s backend) {
		data := []byte{1, 2, 3}
		mustPut(t, s, "k", data)
		data[0] = 99
		if got, err := s.Get(ctx, "k"); err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
			t.Errorf("stored %v, %v after the caller reused its buffer", got, err)
		}
	}},
	{name: "PutBatchAllOrNothing", spec: cloud.Spec{CapacityBytes: 100, MaxChunkBytes: 45},
		run: func(t *testing.T, s backend) {
			bw := batchWriter(t, s)
			mustPut(t, s, "keep", bytes.Repeat([]byte{1}, 40))
			rejected := []struct {
				why   string
				items []cloud.BatchItem
				want  error
			}{
				// 40 used + 70 batched > 100, though "a" alone would fit.
				{"over capacity", []cloud.BatchItem{{Key: "a", Data: make([]byte, 30)}, {Key: "b", Data: make([]byte, 40)}},
					cloud.ErrOverCapacity},
				{"chunk limit mid-batch", []cloud.BatchItem{{Key: "ok", Data: []byte("small")}, {Key: "big", Data: make([]byte, 46)}},
					cloud.ErrTooLarge},
				{"empty key", []cloud.BatchItem{{Key: "ok", Data: []byte("small")}, {Key: "", Data: []byte("x")}}, nil},
			}
			for _, r := range rejected {
				err := bw.PutBatch(ctx, r.items)
				if err == nil || r.want != nil && !errors.Is(err, r.want) {
					t.Errorf("%s: PutBatch = %v, want %v", r.why, err, r.want)
				}
			}
			s.setAvailable(false)
			if err := bw.PutBatch(ctx, []cloud.BatchItem{{Key: "a", Data: []byte("x")}}); !errors.Is(err, cloud.ErrUnavailable) {
				t.Errorf("PutBatch while down: %v", err)
			}
			s.setAvailable(true)
			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			if err := bw.PutBatch(cancelled, []cloud.BatchItem{{Key: "a", Data: []byte("x")}}); !errors.Is(err, context.Canceled) {
				t.Errorf("PutBatch with a cancelled context: %v", err)
			}
			wantList(t, s, "", "keep")
			if got := s.UsedBytes(); got != 40 {
				t.Errorf("rejected batches moved UsedBytes to %d, want 40", got)
			}
		}},
	{name: "PutBatchMeteringParity", run: func(t *testing.T, batched backend) {
		bw := batchWriter(t, batched)
		if _, ok := batched.Backend.(cloud.Meterer); !ok {
			t.Skip("not metered")
		}
		single := batched.another() // takes the same writes one by one
		items := []cloud.BatchItem{
			{Key: "a", Data: bytes.Repeat([]byte{1}, 1000)},
			{Key: "b", Data: bytes.Repeat([]byte{2}, 500)},
			{Key: "a", Data: bytes.Repeat([]byte{3}, 200)}, // overwritten within the batch
		}
		for _, s := range []backend{batched, single} {
			mustPut(t, s, "b", bytes.Repeat([]byte{9}, 300)) // overwritten by the batch
		}
		if err := bw.PutBatch(ctx, items); err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			mustPut(t, single, it.Key, it.Data)
		}
		if got := batched.UsedBytes(); got != 700 || single.UsedBytes() != got {
			t.Errorf("UsedBytes: batch %d, puts %d, want 700", got, single.UsedBytes())
		}
		bu := batched.Backend.(cloud.Meterer).Meter().Snapshot()
		if su := single.Backend.(cloud.Meterer).Meter().Snapshot(); bu != su {
			t.Errorf("billing diverged: batch %+v, puts %+v", bu, su)
		}
		if got, err := batched.Get(ctx, "a"); err != nil || len(got) != 200 || got[0] != 3 {
			t.Errorf("in-batch overwrite: %d bytes, %v", len(got), err)
		}
	}},
}

// TestStoreConformance runs the Store contract against every backend.
func TestStoreConformance(t *testing.T) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			for _, c := range storeCases {
				t.Run(c.name, func(t *testing.T) {
					s := be.open(t, c.spec)
					s.another = func() backend { return be.open(t, c.spec) }
					c.run(t, s)
				})
			}
		})
	}
}

func mustPut(t *testing.T, s cloud.Store, key string, data []byte) {
	t.Helper()
	if err := s.Put(ctx, key, data); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

// wantList checks that List(prefix) returns exactly want, in order.
func wantList(t *testing.T, s cloud.Store, prefix string, want ...string) {
	t.Helper()
	got, err := s.List(ctx, prefix)
	if err != nil || !slices.Equal(got, want) {
		t.Errorf("List(%q) = %q, %v; want %q", prefix, got, err, want)
	}
}

func batchWriter(t *testing.T, s backend) cloud.BatchWriter {
	bw, ok := s.Backend.(cloud.BatchWriter)
	if !ok {
		t.Skip("not a cloud.BatchWriter")
	}
	return bw
}

func second[T any](_ T, err error) error { return err }
