package scalia_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"scalia"
	"scalia/internal/cloud"
	"scalia/internal/privstore"
)

// privateStore serves a private store on httptest, counting the stats
// requests and the object requests it is sent. While hung is set every
// request waits for it to be closed (or for its client to give up).
type privateStore struct {
	server       *privstore.Server
	url          string
	stats, calls atomic.Int64
	hung         atomic.Pointer[chan struct{}]
}

var nasToken = []byte("corp-private-token")

// nasSpec is the corporate NAS of examples/private-store: effectively
// free, so placement prefers it while it has room.
func nasSpec(capacity int64) scalia.Provider {
	return scalia.Provider{
		Name:          "corp-nas",
		Durability:    0.999999,
		Availability:  0.999,
		Zones:         []scalia.Zone{scalia.ZoneEU},
		Pricing:       scalia.Pricing{StorageGBMonth: 0.001},
		CapacityBytes: capacity,
	}
}

var hybrid = scalia.Rule{Name: "hybrid", Durability: 0.99999, Availability: 0.9999, LockIn: 1}

func servePrivateStore(t *testing.T, capacity int64) *privateStore {
	t.Helper()
	server, err := scalia.NewPrivateStoreServer(t.TempDir(), nasToken, capacity)
	if err != nil {
		t.Fatal(err)
	}
	p := &privateStore{server: server}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stats" {
			p.stats.Add(1)
		} else {
			p.calls.Add(1)
		}
		if hang := p.hung.Load(); hang != nil {
			select {
			case <-*hang:
			case <-r.Context().Done():
				return
			}
		}
		server.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		p.release()
		ts.Close()
	})
	p.url = ts.URL
	return p
}

func (p *privateStore) stall() {
	hang := make(chan struct{})
	p.hung.Store(&hang)
}

func (p *privateStore) release() {
	if hang := p.hung.Swap(nil); hang != nil {
		close(*hang)
	}
}

// TestPrivateStoreSpills runs examples/private-store: 20 KiB objects fill
// a 64 KB private store, then placement spills to the public providers
// with no failed PUT. The capacity is exact after every write because
// each write's answer carries the server's used bytes; no PUT and no GET
// sends a stats request (only the health loop does, once a second).
func TestPrivateStoreSpills(t *testing.T) {
	p := servePrivateStore(t, 64<<10)
	c := newClient(t, scalia.Options{})
	c.AddPrivateResource(p.url, nasToken, nasSpec(64<<10))
	nas, _ := c.Broker().Registry().Store("corp-nas")

	start := time.Now()
	var private []bool
	for i := 0; i < 6; i++ {
		meta, err := c.Put(ctx, "corp", fmt.Sprintf("doc-%d", i), make([]byte, 20<<10), scalia.WithRule(hybrid))
		if err != nil {
			t.Fatalf("doc-%d: %v", i, err)
		}
		private = append(private, slices.Contains(meta.Chunks, "corp-nas"))
		if got, want := nas.UsedBytes(), p.server.UsedBytes(); got != want {
			t.Fatalf("after doc-%d: UsedBytes = %d, the server holds %d", i, got, want)
		}
	}
	if want := []bool{true, true, true, false, false, false}; !slices.Equal(private, want) {
		t.Fatalf("on the private store: %v, want %v", private, want)
	}
	for i := 0; i < 60; i++ {
		if _, _, err := c.Get(ctx, "corp", fmt.Sprintf("doc-%d", i%6)); err != nil {
			t.Fatal(err)
		}
	}
	// The loop's calls: one at attach, then one a second.
	if n, most := p.stats.Load(), 2+int64(time.Since(start)/time.Second); n > most {
		t.Fatalf("%d stats requests beside %d object requests in %v, want at most %d", n, p.calls.Load(), time.Since(start), most)
	}
}

// TestHungPrivateStore: a private store that accepts connections and
// never answers costs a request no more than its own deadline. Within
// the health loop's threshold the store is marked down, a MarketEvent
// names it and its objects are queued for maintenance with no operator
// call; a PUT then plans around it. One answer brings it back.
func TestHungPrivateStore(t *testing.T) {
	p := servePrivateStore(t, 0)
	c := newClient(t, scalia.Options{})
	events := make(chan cloud.MarketEvent, 16)
	reg := c.Broker().Registry()
	reg.Subscribe(func(ev cloud.MarketEvent) {
		if ev.Provider == "corp-nas" {
			events <- ev
		}
	})
	c.AddPrivateResource(p.url, nasToken, nasSpec(0))
	<-events // the registration
	nas, _ := reg.Store("corp-nas")
	meta, err := c.Put(ctx, "corp", "doc", make([]byte, 20<<10), scalia.WithRule(hybrid))
	if err != nil || !slices.Contains(meta.Chunks, "corp-nas") {
		t.Fatalf("Put = %v, %v; want a placement on corp-nas", meta.Chunks, err)
	}
	queued := c.Broker().MaintStats().Enqueued

	p.stall()
	hung := time.Now()
	within := func(what string, op func(context.Context) error) {
		t.Helper()
		dctx, cancel := context.WithTimeout(ctx, time.Second)
		defer cancel()
		start := time.Now()
		err := op(dctx)
		if took := time.Since(start); took > 1500*time.Millisecond {
			t.Fatalf("%s with a 1 s deadline took %v (%v)", what, took, err)
		}
	}
	within("GET", func(ctx context.Context) error { _, _, err := c.Get(ctx, "corp", "doc"); return err })
	within("PUT", func(ctx context.Context) error {
		_, err := c.Put(ctx, "corp", "doc-2", make([]byte, 20<<10), scalia.WithRule(hybrid))
		return err
	})

	select {
	case ev := <-events:
		if nas.Available() {
			t.Fatalf("event %+v, yet corp-nas is still Available", ev)
		}
		if took := time.Since(hung); took > 4500*time.Millisecond {
			t.Fatalf("hung store marked down after %v", took)
		}
	case <-time.After(6 * time.Second):
		t.Fatal("no market event for the hung store")
	}
	if st := c.Broker().MaintStats(); st.Enqueued <= queued {
		t.Fatalf("the outage queued nothing: %+v", st)
	}
	dctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	meta, err = c.Put(dctx, "corp", "doc-3", make([]byte, 20<<10), scalia.WithRule(hybrid))
	if err != nil || slices.Contains(meta.Chunks, "corp-nas") {
		t.Fatalf("Put with corp-nas down = %v, %v; want a public placement", meta.Chunks, err)
	}

	p.release()
	select {
	case <-events:
		if !nas.Available() {
			t.Fatal("event, yet corp-nas is not Available")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no market event for the store's return")
	}
}

// TestCloseEndsPrivateHealthLoops: Client.Close deregisters the private
// resources, and no health loop outlives it.
func TestCloseEndsPrivateHealthLoops(t *testing.T) {
	p := servePrivateStore(t, 0)
	c, err := scalia.New(scalia.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.AddPrivateResource(p.url, nasToken, nasSpec(0))
	for deadline := time.Now().Add(time.Second); p.stats.Load() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no health loop after AddPrivateResource")
		}
	}
	c.Close()
	if _, ok := c.Broker().Registry().Store("corp-nas"); ok {
		t.Fatal("corp-nas still registered after Close")
	}
	// A request the loop sent before it ended may still be on its way.
	time.Sleep(200 * time.Millisecond)
	calls := p.stats.Load()
	time.Sleep(1500 * time.Millisecond)
	if n := p.stats.Load(); n != calls {
		t.Fatalf("%d stats requests after Close", n-calls)
	}
}

// TestAddPrivateResourceValidates: a private resource whose spec the
// planner cannot plan with is refused with ErrInvalidArgument before it
// reaches the market; a valid one registers.
func TestAddPrivateResourceValidates(t *testing.T) {
	p := servePrivateStore(t, 0)
	c := newClient(t, scalia.Options{})
	for name, bad := range map[string]func(*scalia.Provider){
		"negative capacity":  func(s *scalia.Provider) { s.CapacityBytes = -1 },
		"negative price":     func(s *scalia.Provider) { s.Pricing.BandwidthOutGB = -0.01 },
		"durability above 1": func(s *scalia.Provider) { s.Durability = 1.5 },
	} {
		spec := nasSpec(0)
		bad(&spec)
		if err := c.AddPrivateResource(p.url, nasToken, spec); !errors.Is(err, scalia.ErrInvalidArgument) {
			t.Errorf("%s: AddPrivateResource = %v, want ErrInvalidArgument", name, err)
		}
		if _, ok := c.Broker().Registry().Store(spec.Name); ok {
			t.Fatalf("%s: the refused resource is in the market", name)
		}
	}
	if err := c.AddPrivateResource(p.url, nasToken, nasSpec(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Broker().Registry().Store("corp-nas"); !ok {
		t.Fatal("the valid resource is not in the market")
	}
}
