package engine

import (
	"bytes"
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"

	"scalia/internal/cloud"
	"scalia/internal/core"
)

// TestWriteCancellationRollsBackAcrossModes drives the
// cancel-mid-upload property through every write-path mode: the
// sequential loop, a shallow pipeline and a pipeline deeper than the
// stripe count. In all of them a cancelled context must surface
// context.Canceled, commit no metadata and leave no orphan chunk at
// any provider.
func TestWriteCancellationRollsBackAcrossModes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		depth int
	}{
		{"sequential", -1},
		{"pipeline-depth-2", 2},
		{"pipeline-deeper-than-object", 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newTestBroker(t, Config{StripeBytes: 1024, WritePipelineDepth: tc.depth})
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
			b.ProcessPendingDeletes(context.Background())
			for _, s := range b.Registry().Snapshot() {
				if bs, ok := s.(*cloud.BlobStore); ok && bs.ObjectCount() != 0 {
					t.Fatalf("%s holds %d orphan chunks after cancel", bs.Spec().Name, bs.ObjectCount())
				}
			}
			// The budget and in-flight gauges must drain back to zero.
			if ws := b.WriteStats(); ws.StripesInFlight != 0 {
				t.Fatalf("stripes still in flight after cancel: %+v", ws)
			}
		})
	}
}

// TestWriteBudgetBoundsPeakBuffers asserts the acceptance criterion:
// the peak number of write stripe buffers held concurrently — across
// ALL concurrent streaming writes of the broker — never exceeds the
// shared MaxBufferBytes budget, and the pipeline still produces
// correct objects while squeezed through it.
func TestWriteBudgetBoundsPeakBuffers(t *testing.T) {
	const (
		stripeBytes = 1024
		stripes     = 8
		writers     = 4
	)
	// Two budget slots for four concurrent 8-stripe pipelined writes.
	b := newTestBroker(t, Config{StripeBytes: stripeBytes, MaxBufferBytes: 2 * stripeBytes})
	e := b.Engine(0)

	payloads := make([][]byte, writers)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		payloads[g] = bytes.Repeat([]byte{byte('a' + g)}, stripes*stripeBytes)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = e.PutReader(context.Background(), "c", fmt.Sprintf("k%d", g),
				bytes.NewReader(payloads[g]), int64(stripes*stripeBytes), PutOptions{})
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	ws := b.WriteStats()
	if ws.BufferedStripesPeak > 2 {
		t.Fatalf("write buffer peak = %d stripes, budget allows 2: %+v", ws.BufferedStripesPeak, ws)
	}
	if ws.BufferedStripesPeak < 1 {
		t.Fatalf("write buffer peak gauge never moved: %+v", ws)
	}
	if ws.StripesInFlight != 0 {
		t.Fatalf("stripes still in flight after all writes returned: %+v", ws)
	}
	if want := int64(writers * stripes); ws.StripesWritten != want {
		t.Fatalf("stripes written = %d, want %d", ws.StripesWritten, want)
	}
	for g := 0; g < writers; g++ {
		got, _, err := e.Get(context.Background(), "c", fmt.Sprintf("k%d", g))
		if err != nil || !bytes.Equal(got, payloads[g]) {
			t.Fatalf("k%d round-trip under budget contention: %v (%d bytes)", g, err, len(got))
		}
	}
}

// TestWriteGaugesWithUnboundedBudget: a negative MaxBufferBytes removes
// the budget but the in-flight/peak gauges must keep reporting, since
// they double as the pipeline observability on /v1/stats.
func TestWriteGaugesWithUnboundedBudget(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024, MaxBufferBytes: -1})
	if b.bufSem != nil {
		t.Fatal("negative MaxBufferBytes must disable the budget semaphore")
	}
	e := b.Engine(0)
	payload := bytes.Repeat([]byte{7}, 6*1024)
	if _, err := e.PutReader(context.Background(), "c", "k",
		bytes.NewReader(payload), int64(len(payload)), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	ws := b.WriteStats()
	if ws.BufferedStripesPeak < 1 || ws.StripesWritten != 6 || ws.StripesInFlight != 0 {
		t.Fatalf("write gauges with unbounded budget = %+v", ws)
	}
	if ws.PipelineDepth != DefaultWritePipelineDepth {
		t.Fatalf("pipeline depth = %d, want default %d", ws.PipelineDepth, DefaultWritePipelineDepth)
	}
}

// TestConcurrentPutGetRepair hammers one object with a writer, a
// reader and a repairer concurrently — the torn-state hunt for the
// write pipeline, the versioned read path and repair sharing one row.
// Run under -race; the invariant checked on every successful read is
// that body, size and checksum belong to ONE committed version.
func TestConcurrentPutGetRepair(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024, CacheBytes: 1 << 20})
	e := b.Engine(0)
	mkPayload := func(gen int) []byte {
		return bytes.Repeat([]byte{byte(gen)}, 4*1024)
	}
	if _, err := e.Put(context.Background(), "c", "k", mkPayload(0), PutOptions{}); err != nil {
		t.Fatal(err)
	}

	const iters = 25
	var wg sync.WaitGroup
	fail := make(chan error, 3)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}

	wg.Add(3)
	go func() { // writer: overwrite the object with new generations
		defer wg.Done()
		for i := 1; i <= iters; i++ {
			p := mkPayload(i)
			_, err := e.PutReader(context.Background(), "c", "k", bytes.NewReader(p), int64(len(p)), PutOptions{})
			if err != nil && !errors.Is(err, core.ErrNoProviders) && !errors.Is(err, cloud.ErrUnavailable) {
				// Placement may be briefly infeasible while the repairer
				// holds a provider down; anything else is a real failure.
				report(fmt.Errorf("put gen %d: %w", i, err))
				return
			}
		}
	}()
	go func() { // reader: every successful read must be self-consistent
		defer wg.Done()
		for i := 0; i < iters; i++ {
			data, meta, err := e.Get(context.Background(), "c", "k")
			if err != nil {
				if errors.Is(err, ErrNotEnoughChunks) || errors.Is(err, cloud.ErrUnavailable) {
					continue
				}
				report(fmt.Errorf("get: %w", err))
				return
			}
			if int64(len(data)) != meta.Size {
				report(fmt.Errorf("torn read: %d bytes, meta says %d", len(data), meta.Size))
				return
			}
			sum := md5.Sum(data)
			if got := hex.EncodeToString(sum[:]); got != meta.Checksum {
				report(fmt.Errorf("read of version %s does not match its checksum", meta.UUID))
				return
			}
		}
	}()
	go func() { // repairer: rotate provider outages through repair passes
		defer wg.Done()
		providers := b.Registry().Snapshot()
		for i := 0; i < 4; i++ {
			name := providers[i%len(providers)].Spec().Name
			b.Registry().UpdateAvailability(name, false)
			if _, err := b.Repair(context.Background(), RepairActive); err != nil {
				report(fmt.Errorf("repair with %s down: %w", name, err))
				return
			}
			b.Registry().UpdateAvailability(name, true)
			b.ProcessPendingDeletes(context.Background())
		}
	}()
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}

	data, meta, err := e.Get(context.Background(), "c", "k")
	if err != nil || int64(len(data)) != meta.Size {
		t.Fatalf("final read: %v (%d bytes)", err, len(data))
	}
}
