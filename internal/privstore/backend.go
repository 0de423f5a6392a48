package privstore

import (
	"context"
	"io"
	"net/http"
	"time"

	"scalia/internal/cloud"
)

// Backend adapts a private-store client to the registry's Backend
// interface so corporate resources participate in placement like any
// public provider (§III-E: "the placement algorithm will take into
// account these new resources").
type Backend struct {
	*Client
	spec cloud.Spec
	// probe is the stats loop's HTTP client. Its timeout fails a call to
	// a hung store on the loop's own clock, not through a caller's ctx,
	// so the failure counts against the store.
	probe *http.Client
	// stop ends the stats loop and done is closed once it has; both are
	// nil while no registry holds a notifier. Guarded by Client.mu.
	stop context.CancelFunc
	done chan struct{}
}

const (
	// healthInterval is the stats loop's period: a store no request
	// reaches, hung or refusing, is marked down within
	// downAfter × healthInterval of its first missed call.
	healthInterval = time.Second
	// statsTimeout bounds one call of the loop.
	statsTimeout = healthInterval / 2
)

// NewBackend wraps a client with the resource's registered properties
// (amount and price of available storage, bandwidth and operation
// prices).
func NewBackend(c *Client, spec cloud.Spec) *Backend {
	spec.Private = true
	return &Backend{Client: c, spec: spec, probe: &http.Client{Transport: c.http.Transport, Timeout: statsTimeout}}
}

// Spec implements cloud.Backend.
func (b *Backend) Spec() cloud.Spec { return b.spec }

// Available implements cloud.Backend from memory: the store is down once
// downAfter calls in a row have failed, and up again at its next answer.
func (b *Backend) Available() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.down
}

// UsedBytes implements cloud.Backend from memory: the used bytes the
// server's last PUT, DELETE or stats answer carried.
func (b *Backend) UsedBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// SetChangeNotifier implements cloud.ChangeNotifierSetter: fn is called
// on every flip of Available. While a registry holds fn, a loop asks
// GET /stats every healthInterval, starting at once, so that a store no
// request reaches is still noticed and its used bytes known.
// SetChangeNotifier(nil) stops the loop and returns once it has exited,
// so it must not be called from within a notification.
func (b *Backend) SetChangeNotifier(fn func()) {
	b.mu.Lock()
	b.notify = fn
	stop, done := b.stop, b.done
	switch {
	case fn != nil && stop == nil:
		ctx, cancel := context.WithCancel(context.Background())
		b.stop, b.done = cancel, make(chan struct{})
		go b.watch(ctx, b.done)
	case fn == nil:
		b.stop, b.done = nil, nil
	}
	b.mu.Unlock()
	if fn == nil && stop != nil {
		stop()
		<-done
	}
}

// watch is the stats loop. do records each outcome; a call cut short by
// the loop's own end counts for nothing.
func (b *Backend) watch(ctx context.Context, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(healthInterval)
	defer tick.Stop()
	for {
		if resp, err := b.do(ctx, b.probe, http.MethodGet, "/stats", nil); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse only
			resp.Body.Close()
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

var (
	_ cloud.Backend              = (*Backend)(nil)
	_ cloud.ChangeNotifierSetter = (*Backend)(nil)
)
