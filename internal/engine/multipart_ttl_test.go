package engine

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// usedBytesTotal sums the registry's provider footprints — staged part
// chunks show up here until they are garbage-collected.
func usedBytesTotal(b *Broker) int64 {
	var total int64
	for _, s := range b.Registry().Snapshot() {
		total += s.UsedBytes()
	}
	return total
}

// TestSweepExpiredUploads drives the TTL sweep with a fake clock: an
// abandoned session with a staged part is evicted once idle past the
// TTL, its chunks are garbage-collected and the activeUploads gauge
// falls; fresh, in-flight and closed sessions are left alone.
func TestSweepExpiredUploads(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024})
	fakeNow := time.Unix(1_000_000, 0)
	b.now = func() time.Time { return fakeNow }
	e := b.Engine(0)
	ctx := context.Background()

	up, err := e.CreateUpload(ctx, "mp", "abandoned", 2048, PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 2048)
	if _, err := e.UploadPart(ctx, up.UploadID, 1, bytes.NewReader(payload), 2048); err != nil {
		t.Fatal(err)
	}
	if used := usedBytesTotal(b); used == 0 {
		t.Fatal("staged part left no provider footprint")
	}
	if b.activeUploads() != 1 {
		t.Fatalf("activeUploads = %d, want 1", b.activeUploads())
	}

	// Young sessions survive the sweep.
	if n := b.SweepExpiredUploads(time.Hour); n != 0 {
		t.Fatalf("fresh session evicted: %d", n)
	}
	// A disabled TTL never evicts.
	fakeNow = fakeNow.Add(48 * time.Hour)
	if n := b.SweepExpiredUploads(0); n != 0 {
		t.Fatalf("ttl=0 must disable the sweep, evicted %d", n)
	}

	// An in-flight part is activity, whatever the clock says.
	s, err := b.getUpload(up.UploadID)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.inflight[2] = true
	s.mu.Unlock()
	if n := b.SweepExpiredUploads(time.Hour); n != 0 {
		t.Fatalf("session with a streaming part evicted: %d", n)
	}
	s.mu.Lock()
	delete(s.inflight, 2)
	s.mu.Unlock()

	// Idle past the TTL: evicted, gauge down, chunks GC'd, session 404s.
	if n := b.SweepExpiredUploads(time.Hour); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	if b.activeUploads() != 0 {
		t.Fatalf("activeUploads = %d after sweep, want 0", b.activeUploads())
	}
	b.ProcessPendingDeletes(ctx)
	if used := usedBytesTotal(b); used != 0 {
		t.Fatalf("staged chunks not garbage-collected: %d bytes remain", used)
	}
	if _, _, err := e.ListParts(ctx, up.UploadID); !errors.Is(err, ErrUploadNotFound) {
		t.Fatalf("swept session still resolvable: %v", err)
	}
	if _, err := e.UploadPart(ctx, up.UploadID, 1, bytes.NewReader(payload), 2048); !errors.Is(err, ErrUploadNotFound) {
		t.Fatalf("part upload to a swept session: %v", err)
	}
}

// TestSweepRespectsActivity asserts that part uploads and ListParts
// refresh the idle clock, so a slow-but-live resumable upload is never
// evicted mid-flight.
func TestSweepRespectsActivity(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024})
	fakeNow := time.Unix(1_000_000, 0)
	b.now = func() time.Time { return fakeNow }
	e := b.Engine(0)
	ctx := context.Background()

	up, err := e.CreateUpload(ctx, "mp", "slow", 4096, PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("y"), 1024)
	for part := 1; part <= 3; part++ {
		// 40 minutes between parts, TTL one hour: each upload must
		// reset the clock or the session dies between parts.
		fakeNow = fakeNow.Add(40 * time.Minute)
		if n := b.SweepExpiredUploads(time.Hour); n != 0 {
			t.Fatalf("live session evicted before part %d", part)
		}
		if _, err := e.UploadPart(ctx, up.UploadID, part, bytes.NewReader(payload), 1024); err != nil {
			t.Fatal(err)
		}
	}
	// A resume probe (ListParts) also counts as activity.
	fakeNow = fakeNow.Add(40 * time.Minute)
	if _, _, err := e.ListParts(ctx, up.UploadID); err != nil {
		t.Fatal(err)
	}
	fakeNow = fakeNow.Add(40 * time.Minute)
	if n := b.SweepExpiredUploads(time.Hour); n != 0 {
		t.Fatal("probed session evicted")
	}
	// Silence for the full TTL finally evicts it.
	fakeNow = fakeNow.Add(time.Hour)
	if n := b.SweepExpiredUploads(time.Hour); n != 1 {
		t.Fatalf("idle session not evicted: %d", n)
	}
}
