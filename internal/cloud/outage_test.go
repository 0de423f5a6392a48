package cloud_test

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/privstore"
)

// TestEveryOutageIsAMarketEvent: however a registered provider goes
// down — a private store that hangs, one that refuses connections, a
// simulated store switched off on the backend itself — the registry
// advances the epoch, emits a MarketEvent naming it and leaves it out of
// the market, with nobody calling the registry.
func TestEveryOutageIsAMarketEvent(t *testing.T) {
	// private serves a private store on httptest; once stall is closed
	// every request hangs until the test ends or its client gives up.
	private := func(t *testing.T, stall <-chan struct{}) (*httptest.Server, cloud.Backend) {
		srv, err := privstore.NewServer(t.TempDir(), []byte("tok"), 0)
		if err != nil {
			t.Fatal(err)
		}
		end := make(chan struct{})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-stall:
				select {
				case <-end:
				case <-r.Context().Done():
				}
				return
			default:
			}
			srv.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		t.Cleanup(func() { close(end) })
		return ts, privstore.NewBackend(privstore.NewClient(ts.URL, []byte("tok")), cloud.Spec{Name: "nas"})
	}
	cases := []struct {
		name string
		// open returns the backend and the function that takes it down.
		open func(t *testing.T) (cloud.Backend, func())
	}{
		{"hang", func(t *testing.T) (cloud.Backend, func()) {
			stall := make(chan struct{})
			_, b := private(t, stall)
			return b, func() { close(stall) }
		}},
		{"refuse", func(t *testing.T) (cloud.Backend, func()) {
			ts, b := private(t, nil)
			return b, ts.Close
		}},
		{"SetAvailable", func(t *testing.T) (cloud.Backend, func()) {
			s := cloud.NewBlobStore(cloud.Spec{Name: "blob"})
			return s, func() { s.SetAvailable(false) }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			b, down := c.open(t)
			name := b.Spec().Name
			r := cloud.NewRegistry()
			events := make(chan cloud.MarketEvent, 16)
			r.Subscribe(func(ev cloud.MarketEvent) { events <- ev })
			r.Register(b)
			t.Cleanup(func() { r.Deregister(name) })
			<-events // the registration
			e0, specs, _ := r.Market()
			if len(specs) != 1 {
				t.Fatalf("market before the outage: %v", specs)
			}
			down()
			select {
			case ev := <-events:
				e1, specs, _ := r.Market()
				if ev.Provider != name || ev.Epoch <= e0 || e1 < ev.Epoch || len(specs) != 0 || b.Available() {
					t.Fatalf("event %+v after epoch %d: market %v at epoch %d, Available = %v",
						ev, e0, specs, e1, b.Available())
				}
			case <-time.After(6 * time.Second):
				t.Fatalf("no market event for %s's outage", name)
			}
		})
	}
}
