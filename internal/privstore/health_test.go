package privstore

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"scalia/internal/cloud"
)

// store is a private store on httptest whose service can be made to hang
// or answer a fixed status, counting the stats requests it is sent.
type store struct {
	srv   *Server
	ts    *httptest.Server
	code  atomic.Int32 // when set, every request is answered with it
	stats atomic.Int64 // stats requests served
	sent  atomic.Int64 // stats requests its backends sent
	// hung is set while the service hangs; closing it releases the hang.
	hung atomic.Pointer[chan struct{}]
}

func newStore(t *testing.T) *store {
	t.Helper()
	srv, err := NewServer(t.TempDir(), []byte("tok"), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &store{srv: srv}
	s.ts = httptest.NewServer(http.HandlerFunc(s.serve))
	t.Cleanup(func() {
		s.release()
		s.ts.Close()
	})
	return s
}

func (s *store) serve(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/stats" {
		s.stats.Add(1)
	}
	if hang := s.hung.Load(); hang != nil {
		select {
		case <-*hang:
		case <-r.Context().Done():
			return
		}
	}
	if code := s.code.Load(); code != 0 {
		w.WriteHeader(int(code))
		return
	}
	s.srv.ServeHTTP(w, r)
}

// stall makes every request hang until release.
func (s *store) stall() {
	hang := make(chan struct{})
	s.hung.Store(&hang)
}

func (s *store) release() {
	if hang := s.hung.Swap(nil); hang != nil {
		close(*hang)
	}
}

func (s *store) backend() *Backend {
	c := NewClient(s.ts.URL, []byte("tok"))
	c.http.Transport = statsSends{&s.sent}
	return NewBackend(c, cloud.Spec{Name: "nas"})
}

// statsSends counts the stats requests a client sends. A request sent
// just before its loop ended may reach the server after: the server's
// count would blame it on the detached loop.
type statsSends struct{ n *atomic.Int64 }

func (c statsSends) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/stats" {
		c.n.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// flips counts notifier calls and passes each on.
type flips struct {
	n  atomic.Int64
	at chan time.Time
}

func newFlips() *flips { return &flips{at: make(chan time.Time, 16)} }

func (f *flips) notify() {
	f.n.Add(1)
	f.at <- time.Now()
}

// wait returns when the next flip is announced, failing after limit.
func (f *flips) wait(t *testing.T, limit time.Duration) time.Time {
	t.Helper()
	select {
	case at := <-f.at:
		return at
	case <-time.After(limit):
		t.Fatalf("no flip announced within %v", limit)
		return time.Time{}
	}
}

// TestHealthCountsOnlyTheStoresFailures: a transport failure or a 5xx
// counts, downAfter in a row mark the store down, and any answer resets
// the count and marks it up. A full store's 507 is an answer, and a call
// the caller's own ctx ended says nothing about the store. No loop runs
// here: the calls alone decide.
func TestHealthCountsOnlyTheStoresFailures(t *testing.T) {
	s := newStore(t)
	b := s.backend()
	f := newFlips()
	b.mu.Lock()
	b.notify = f.notify // the notifier without the loop
	b.mu.Unlock()
	get := func(ctx context.Context) error { _, err := b.Get(ctx, "k"); return err }

	s.code.Store(http.StatusInsufficientStorage)
	for i := 0; i < 2*downAfter; i++ {
		get(ctx) //nolint:errcheck
	}
	s.code.Store(0)
	s.stall()
	for i := 0; i < 2*downAfter; i++ {
		short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
		if err := get(short); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Get of a hung store with a short deadline: %v", err)
		}
		cancel()
	}
	s.release()
	if !b.Available() || f.n.Load() != 0 {
		t.Fatalf("507s and the caller's deadlines took the store down (%d flips)", f.n.Load())
	}

	s.code.Store(http.StatusServiceUnavailable)
	for i := 0; i < downAfter-1; i++ {
		get(ctx) //nolint:errcheck
	}
	s.code.Store(http.StatusNotFound)
	get(ctx) //nolint:errcheck // an answer: the count starts over
	s.code.Store(http.StatusServiceUnavailable)
	for i := 0; i < downAfter-1; i++ {
		get(ctx) //nolint:errcheck
	}
	if !b.Available() {
		t.Fatal("down before downAfter failures in a row")
	}
	get(ctx) //nolint:errcheck
	if b.Available() || f.n.Load() != 1 {
		t.Fatalf("after %d failures in a row: Available = %v, %d flips; want false, 1", downAfter, b.Available(), f.n.Load())
	}
	s.code.Store(0)
	if err := get(ctx); !errors.Is(err, cloud.ErrNotFound) {
		t.Fatalf("Get after recovery: %v", err)
	}
	if !b.Available() || f.n.Load() != 2 {
		t.Fatalf("after one answer: Available = %v, %d flips; want true, 2", b.Available(), f.n.Load())
	}
	if n := s.stats.Load(); n != 0 {
		t.Fatalf("%d stats requests with no loop running", n)
	}
}

// TestMarkedDownWithinThreshold: with a registry's notifier installed, a
// store that no request reaches is marked down by the stats loop within
// downAfter × healthInterval of its first missed call, whether it hangs
// or refuses connections, and one answer brings it back.
func TestMarkedDownWithinThreshold(t *testing.T) {
	// From the outage: up to one interval before the first missed call,
	// then downAfter-1 more and one timeout, with room for the scheduler.
	limit := downAfter*healthInterval + statsTimeout + healthInterval/2
	t.Run("hang", func(t *testing.T) {
		t.Parallel()
		s := newStore(t)
		b := s.backend()
		f := newFlips()
		b.SetChangeNotifier(f.notify)
		defer b.SetChangeNotifier(nil)
		s.stall()
		start := time.Now()
		if at := f.wait(t, 2*limit); at.Sub(start) > limit || b.Available() {
			t.Fatalf("hung store marked down after %v (limit %v); Available = %v", at.Sub(start), limit, b.Available())
		}
		s.release()
		f.wait(t, 2*healthInterval)
		if !b.Available() {
			t.Fatal("not up after the store answered again")
		}
	})
	t.Run("refuse", func(t *testing.T) {
		t.Parallel()
		s := newStore(t)
		b := s.backend()
		f := newFlips()
		b.SetChangeNotifier(f.notify)
		defer b.SetChangeNotifier(nil)
		addr := s.ts.Listener.Addr().String()
		s.ts.Close() // connections are refused from here on
		start := time.Now()
		if at := f.wait(t, 2*limit); at.Sub(start) > limit || b.Available() {
			t.Fatalf("refusing store marked down after %v (limit %v); Available = %v", at.Sub(start), limit, b.Available())
		}
		l, err := net.Listen("tcp", addr)
		if err != nil {
			t.Skipf("cannot listen on %s again: %v", addr, err)
		}
		back := httptest.NewUnstartedServer(s.srv)
		back.Listener.Close()
		back.Listener = l
		back.Start()
		defer back.Close()
		f.wait(t, 2*healthInterval)
		if !b.Available() {
			t.Fatal("not up after the store answered again")
		}
	})
}

// TestHealthLoopEndsOnDetach: the stats loop runs exactly while a
// registry holds the notifier. Deregister, a replacing Register and
// SetChangeNotifier(nil) each return only after it has exited; it
// learns the used bytes of a store that held data before it was attached.
func TestHealthLoopEndsOnDetach(t *testing.T) {
	s := newStore(t)
	if err := NewClient(s.ts.URL, []byte("tok")).Put(ctx, "old", make([]byte, 123)); err != nil {
		t.Fatal(err)
	}
	// attach runs install, which hands b a notifier, and returns the loop
	// that started.
	attach := func(b *Backend, install func()) chan struct{} {
		t.Helper()
		install()
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.done == nil {
			t.Fatal("no stats loop while attached")
		}
		return b.done
	}
	ended := func(b *Backend, done chan struct{}) {
		t.Helper()
		select {
		case <-done:
		default:
			t.Fatal("the stats loop outlived its detach")
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.stop != nil || b.done != nil {
			t.Fatal("a detached backend still holds a loop")
		}
	}

	reg := cloud.NewRegistry()
	b := s.backend()
	done := attach(b, func() { reg.Register(b) })
	for deadline := time.Now().Add(2 * healthInterval); b.UsedBytes() != 123; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("UsedBytes = %d after the first stats call, want 123", b.UsedBytes())
		}
	}
	reg.Deregister("nas")
	ended(b, done)

	b = s.backend()
	done = attach(b, func() { reg.Register(b) })
	c := s.backend()
	doneC := attach(c, func() { reg.Register(c) }) // replaces b under the same name
	ended(b, done)
	reg.Deregister("nas")
	ended(c, doneC)

	done = attach(b, func() { b.SetChangeNotifier(func() {}) })
	b.SetChangeNotifier(nil)
	ended(b, done)

	calls := s.sent.Load()
	time.Sleep(healthInterval + healthInterval/2)
	if n := s.sent.Load(); n != calls {
		t.Fatalf("%d stats calls after every backend was detached", n-calls)
	}
}
