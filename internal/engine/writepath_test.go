package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/cloud/cloudtest"
	"scalia/internal/core"
	"scalia/internal/crc32c"
	"scalia/internal/erasure"
)

// exactRule places (m, n) on a market of exactly n providers priced as
// marketOf prices them: the lock-in admits only all n, and the
// availability target (each provider offers 0.999) rules out every
// threshold above m. It covers (n−1, n) for n ≤ 5 and (3, 5).
func exactRule(m, n int) core.Rule {
	availability := 0.9999 // one provider may be down
	if n-m == 2 {
		availability = 0.999999 // two may be
	}
	return core.Rule{Name: fmt.Sprintf("exact-%d-%d", m, n), Durability: 0.9999, Availability: availability, LockIn: 1 / float64(n)}
}

// storedAsEncoded checks body as stored at names under key: every chunk
// is what erasure.Encode cuts from its stripe of stripeBytes, and every
// sum record holds the CRC-32Cs taken directly over those chunks and the
// stripe's payload.
func storedAsEncoded(t *testing.T, b *Broker, m int, names []string, key func(s, i int) string, sums []StripeSum, body []byte, stripeBytes int) {
	t.Helper()
	coder, err := erasure.New(m, len(names))
	if err != nil {
		t.Fatal(err)
	}
	if want := int(stripeCount(int64(len(body)), int64(stripeBytes))); len(sums) != want {
		t.Fatalf("%d sum records for %d stripes", len(sums), want)
	}
	for s, sum := range sums {
		payload := body[min(s*stripeBytes, len(body)):min((s+1)*stripeBytes, len(body))]
		want, err := coder.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Payload != crc32c.Checksum(payload) || len(sum.Chunks) != len(want) {
			t.Fatalf("stripe %d: payload sum %08x over %d chunk sums, want %08x over %d",
				s, sum.Payload, len(sum.Chunks), crc32c.Checksum(payload), len(want))
		}
		for i, chunk := range want {
			store, _ := b.Registry().Store(names[i])
			got, err := store.Get(ctx, key(s, i))
			if err != nil || !bytes.Equal(got, chunk) {
				t.Fatalf("stripe %d slot %d at %s: stored %d bytes (%v), not what Encode cuts", s, i, names[i], len(got), err)
			}
			if sum.Chunks[i] != crc32c.Checksum(chunk) {
				t.Fatalf("stripe %d slot %d: sum %08x, want %08x", s, i, sum.Chunks[i], crc32c.Checksum(chunk))
			}
		}
	}
}

// bodyReaders are the ways a body can arrive: whole, one byte per Read,
// half of what each Read asks for, and with io.EOF on the last bytes.
var bodyReaders = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"data-eof", iotest.DataErrReader},
}

// TestWriteStoresWhatTheReferenceComputes: for bodies around every
// boundary of the stripe and chunk geometry — and stripes the body is
// read into in several pieces — each code and pipe depth, and bodies
// that arrive whole, a byte at a time, in halves or with io.EOF on their
// last bytes, PutReader, UploadPart and migrate store exactly the chunks
// erasure.Encode cuts from each stripe and record the sums taken directly
// over them; the sums compose to the body's CRC-32C; a PUT mints a fresh
// ETag token and a migration keeps it.
func TestWriteStoresWhatTheReferenceComputes(t *testing.T) {
	for _, geo := range []struct {
		name   string
		stripe int
		sizes  func(m int) []int
	}{
		{"", 1024, func(m int) []int { return []int{0, 1, m - 1, 1023, 1024, 1025, 5 * 1024 / 2} }},
		{"pieces/", 640 << 10, func(int) []int { return []int{640<<10 + 100<<10 + 3} }}, // stripe 0 is read in two pieces
	} {
		stripe := geo.stripe
		for _, code := range [][2]int{{1, 2}, {2, 3}, {3, 5}, {4, 5}} {
			m, n := code[0], code[1]
			rule := exactRule(m, n)
			names := []string{"A", "B", "C", "D", "E"}[:n]
			sizes := geo.sizes(m)
			slices.Sort(sizes)
			sizes = slices.Compact(sizes)
			for _, depth := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s(%d,%d)/depth-%d", geo.name, m, n, depth), func(t *testing.T) {
					b := newTestBroker(t, Config{Registry: marketOf(names...), StripeBytes: int64(stripe), WritePipelineDepth: depth})
					e := b.Engine(0)
					to := core.Placement{M: m}
					for _, name := range names {
						s, _ := b.Registry().Store(name)
						to.Providers = append(to.Providers, s.Spec())
					}
					for _, size := range sizes {
						for _, rd := range bodyReaders {
							writeAsEncoded(t, b, e, m, n, &rule, to, size, rd.name, rd.wrap, stripe)
						}
					}
				})
			}
		}
	}
}

// writeAsEncoded is one body of TestWriteStoresWhatTheReferenceComputes:
// it puts, migrates and uploads as a part size bytes arriving through
// wrap, checking each against storedAsEncoded.
func writeAsEncoded(t *testing.T, b *Broker, e *Engine, m, n int, rule *core.Rule, to core.Placement,
	size int, how string, wrap func(io.Reader) io.Reader, stripe int) {
	t.Helper()
	body := testPayload(size)
	key := fmt.Sprintf("k%d-%s", size, how)

	meta, err := e.PutReader(ctx, "c", key, wrap(bytes.NewReader(body)), int64(size), PutOptions{Rule: rule})
	if err != nil {
		t.Fatalf("put %d bytes %s: %v", size, how, err)
	}
	if meta.M != m || len(meta.Chunks) != n {
		t.Fatalf("scenario expects (%d, %d), placed (%d, %d)", m, n, meta.M, len(meta.Chunks))
	}
	if meta.Checksum != newToken(meta.UUID) || meta.CRC32C() != crc32c.Checksum(body) {
		t.Fatalf("put %d bytes %s: ETag %s, CRC-32C %08x; want the version's token and %08x",
			size, how, meta.Checksum, meta.CRC32C(), crc32c.Checksum(body))
	}
	storedAsEncoded(t, b, m, meta.Chunks, meta.chunkKey, meta.Sums, body, stripe)

	if err := e.migrate(ctx, meta, to); err != nil {
		t.Fatalf("migrate %d bytes: %v", size, err)
	}
	moved, err := e.Head(ctx, "c", key)
	if err != nil || moved.UUID == meta.UUID || moved.Checksum != meta.Checksum || moved.CRC32C() != crc32c.Checksum(body) {
		t.Fatalf("migrate %d bytes: %+v, %v; want a new version with the same ETag and CRC-32C", size, moved, err)
	}
	storedAsEncoded(t, b, m, moved.Chunks, moved.chunkKey, moved.Sums, body, stripe)

	if size == 0 {
		return // a part declares a positive size
	}
	up, err := e.CreateUpload(ctx, "c", "mp-"+key, int64(size), PutOptions{Rule: rule})
	if err != nil {
		t.Fatal(err)
	}
	u, err := b.getUpload(up.UploadID)
	if err != nil {
		t.Fatal(err)
	}
	info, err := e.UploadPart(ctx, up.UploadID, 1, wrap(bytes.NewReader(body)), int64(size))
	if err != nil || len(info.ETag) != 32 || info.ETag == u.draft.Checksum {
		t.Fatalf("part of %d bytes %s: ETag %q, %v; want a token of its own", size, how, info.ETag, err)
	}
	u.mu.Lock()
	part := u.parts[1]
	u.mu.Unlock()
	if u.draft.M != m || len(u.draft.Chunks) != n {
		t.Fatalf("upload placed (%d, %d), scenario expects (%d, %d)", u.draft.M, len(u.draft.Chunks), m, n)
	}
	partKey := func(s, i int) string { return PartChunkKey(u.draft.SKey, 1, s, i, part.gen) }
	storedAsEncoded(t, b, m, u.draft.Chunks, partKey, part.sums, body, stripe)
}

// TestPooledChunksOutliveTheirReaders: a stripe's pooled chunks go back
// to the pool only once every write of them and the stripe's sums are
// done. Every Put checks its bytes on entry and on return (cloudtest.Faulty);
// one provider sleeps for a varying while and the others only yield, so a
// stripe's sums and its writes finish in either order; and the stripes
// behind fill whatever the pool hands out. A chunk recycled under a
// reader fails a Put, the sums' CRC-32C of the body or the read back.
func TestPooledChunksOutliveTheirReaders(t *testing.T) {
	const stripe = 64 << 10
	reg, backends := cloudtest.Wrap(marketOf("A", "B", "C", "D", "E"))
	var puts atomic.Int64
	for i, hb := range backends {
		hb.OnPut = func(context.Context, string) error {
			if i == 0 {
				time.Sleep(time.Duration(puts.Add(1)%3) * time.Millisecond)
			} else {
				runtime.Gosched()
			}
			return nil
		}
	}
	b := newTestBroker(t, Config{Registry: reg, StripeBytes: stripe, WritePipelineDepth: 4, CacheBytes: 4 << 20})
	e := b.Engine(0)
	rule := exactRule(4, 5)
	rng := rand.New(rand.NewSource(34))
	for round := 0; round < 4; round++ {
		body := make([]byte, 10*stripe+stripe/3) // 11 stripes
		rng.Read(body)
		meta, err := e.PutReader(ctx, "c", "k", bytes.NewReader(body), int64(len(body)), PutOptions{Rule: &rule})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if meta.CRC32C() != crc32c.Checksum(body) {
			t.Fatalf("round %d: the sums compose to CRC-32C %08x, the body's is %08x", round, meta.CRC32C(), crc32c.Checksum(body))
		}
		got, _, err := e.Get(ctx, "c", "k") // caches it, so the next round's PUT copies what it replaces
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("round %d: read back %d bytes, %v", round, len(got), err)
		}
	}
}

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
// that body, size and ETag belong to ONE committed version: the bytes are
// exactly one generation's payload, and the ETag is the one the Put of
// that generation returned. A read can see a version before its Put has
// returned, so the ETags are checked once every goroutine is done.
func TestConcurrentPutGetRepair(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024, CacheBytes: 1 << 20})
	e := b.Engine(0)
	mkPayload := func(gen int) []byte {
		return bytes.Repeat([]byte{byte(gen)}, 4*1024)
	}
	const iters = 25
	written := make([]string, iters+1) // generation -> the ETag its Put returned
	seen := make(map[string]int)       // ETag read -> the generation read with it (reader only)
	v0, err := e.Put(context.Background(), "c", "k", mkPayload(0), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	written[0] = v0.Checksum

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
			meta, err := e.PutReader(context.Background(), "c", "k", bytes.NewReader(p), int64(len(p)), PutOptions{})
			written[i] = meta.Checksum
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
			gen := int(data[0])
			if gen > iters || !bytes.Equal(data, mkPayload(gen)) {
				report(fmt.Errorf("read of version %s: bytes that no generation wrote", meta.UUID))
				return
			}
			if prev, ok := seen[meta.Checksum]; ok && prev != gen {
				report(fmt.Errorf("ETag %s read with generations %d and %d", meta.Checksum, prev, gen))
				return
			}
			seen[meta.Checksum] = gen
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
	for etag, gen := range seen {
		if written[gen] != etag {
			t.Fatalf("a read of generation %d carried ETag %s, its Put returned %q", gen, etag, written[gen])
		}
	}

	data, meta, err := e.Get(context.Background(), "c", "k")
	if err != nil || int64(len(data)) != meta.Size {
		t.Fatalf("final read: %v (%d bytes)", err, len(data))
	}
}

// TestBodyReadContract pins what the write path's body read owes its
// callers, on stripes read in several pieces: a body shorter than its
// declared size — ending mid-piece, on a piece or a stripe boundary, or
// one byte short — is ErrInvalidArgument (HTTP 400); any other read error
// keeps its own identity; a Read that returns its last bytes with io.EOF
// succeeds; and a cancel mid-body rolls back every chunk written. None
// leaves a chunk behind once the reaper settles.
func TestBodyReadContract(t *testing.T) {
	const stripe = 768 << 10
	b := newTestBroker(t, Config{StripeBytes: stripe})
	e := b.Engine(0)
	body := testPayload(2*stripe + 5)
	noOrphans := func(what string) {
		t.Helper()
		b.ProcessPendingDeletes(ctx)
		for _, s := range b.Registry().Snapshot() {
			if bs, ok := s.(*cloud.BlobStore); ok && bs.ObjectCount() != 0 {
				t.Fatalf("%s: %s holds %d chunks", what, bs.Spec().Name, bs.ObjectCount())
			}
		}
		if _, err := e.Head(ctx, "c", "k"); !errors.Is(err, ErrObjectNotFound) {
			t.Fatalf("%s: committed a version: %v", what, err)
		}
	}
	put := func(r io.Reader) error {
		_, err := e.PutReader(ctx, "c", "k", r, int64(len(body)), PutOptions{})
		return err
	}

	for _, got := range []int{0, 1000, 512 << 10, stripe, stripe + 3, len(body) - 1} {
		err := put(bytes.NewReader(body[:got]))
		if status, _ := statusFromErr(err); !errors.Is(err, ErrInvalidArgument) || status != http.StatusBadRequest {
			t.Fatalf("body of %d of %d bytes: %v (HTTP %d), want ErrInvalidArgument (HTTP 400)", got, len(body), err, status)
		}
		noOrphans(fmt.Sprintf("short body of %d bytes", got))
	}

	boom := errors.New("connection reset")
	for _, at := range []int{0, 1000, stripe + 3} {
		err := put(io.MultiReader(bytes.NewReader(body[:at]), iotest.ErrReader(boom)))
		if !errors.Is(err, boom) || errors.Is(err, ErrInvalidArgument) {
			t.Fatalf("read error after %d bytes: %v, want the reader's own error", at, err)
		}
		noOrphans(fmt.Sprintf("read error after %d bytes", at))
	}

	cctx, cancel := context.WithCancel(ctx)
	_, err := e.PutReader(cctx, "c", "k", &cancelAfterReader{n: stripe + 3000, cancel: cancel}, int64(len(body)), PutOptions{})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel mid-body: %v, want context.Canceled", err)
	}
	noOrphans("cancel mid-body")

	if err := put(iotest.DataErrReader(bytes.NewReader(body))); err != nil {
		t.Fatalf("last bytes returned with io.EOF: %v", err)
	}
	if got, _, err := e.Get(ctx, "c", "k"); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("read back %d bytes, %v", len(got), err)
	}
}
