package engine

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"scalia/internal/cloud"
)

// TestMultipartResumeAfterDroppedPart is the resumability acceptance
// test: part 2's connection drops mid-stream, ListParts reports what
// survived, the client re-sends ONLY the missing part, and the
// completed object reads back whole — with part 1's chunks provably
// transferred exactly once.
func TestMultipartResumeAfterDroppedPart(t *testing.T) {
	reg, backends := hooked(cloud.NewPaperRegistry())
	var mu sync.Mutex
	puts := map[string]int{} // Puts per chunk key, at any provider
	for _, hb := range backends {
		hb.put = func(_ context.Context, key string) error {
			mu.Lock()
			puts[key]++
			mu.Unlock()
			return nil
		}
	}
	part1Puts := func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]int)
		for k, n := range puts {
			if strings.Contains(k, "/p00001/") {
				out[k] = n
			}
		}
		return out
	}
	b := newTestBroker(t, Config{StripeBytes: 1024, Registry: reg})
	e := b.Engine(0)
	ctx := context.Background()

	part1 := bytes.Repeat([]byte{1}, 2*1024) // two whole stripes
	part2 := bytes.Repeat([]byte{2}, 1536)   // final part: 1.5 stripes

	up, err := e.CreateUpload(ctx, "mp", "big", int64(len(part1)+len(part2)), PutOptions{MIME: "application/octet-stream"})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := e.UploadPart(ctx, up.UploadID, 1, bytes.NewReader(part1), int64(len(part1)))
	if err != nil {
		t.Fatal(err)
	}
	if p1.Stripes != 2 || p1.ETag == "" {
		t.Fatalf("part 1 = %+v", p1)
	}

	// Part 2 drops after one stripe: the upload must fail, roll its own
	// chunks back, and leave part 1 untouched.
	boom := errors.New("connection reset mid-part")
	_, err = e.UploadPart(ctx, up.UploadID, 2,
		io.MultiReader(bytes.NewReader(part2[:1024]), iotest.ErrReader(boom)), int64(len(part2)))
	if !errors.Is(err, boom) {
		t.Fatalf("dropped part = %v, want the transport error", err)
	}
	// Its rollback is deferred to the reaper: settle it before counting.
	b.ProcessPendingDeletes(ctx)
	staged, part1Chunks := 0, len(part1Puts())
	for _, hb := range backends {
		staged += hb.ObjectCount()
	}
	if part1Chunks == 0 || staged != part1Chunks {
		t.Fatalf("%d chunks staged after dropped part, want exactly part 1's %d", staged, part1Chunks)
	}

	// Resume: list what survived, re-send only the missing part.
	info, parts, err := e.ListParts(ctx, up.UploadID)
	if err != nil || info.UploadID != up.UploadID {
		t.Fatalf("ListParts: %v (%+v)", err, info)
	}
	if len(parts) != 1 || parts[0].PartNumber != 1 || parts[0].ETag != p1.ETag {
		t.Fatalf("surviving parts = %+v, want exactly part 1", parts)
	}
	p2, err := e.UploadPart(ctx, up.UploadID, 2, bytes.NewReader(part2), int64(len(part2)))
	if err != nil {
		t.Fatal(err)
	}

	// Completing with a gap or out-of-order numbering fails and leaves
	// the session open for the corrected retry.
	if _, err := e.CompleteUpload(ctx, up.UploadID, []CompletedPart{{PartNumber: 2, ETag: p2.ETag}}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("complete with missing part 1 = %v, want ErrInvalidArgument", err)
	}
	if _, err := e.CompleteUpload(ctx, up.UploadID, []CompletedPart{
		{PartNumber: 1, ETag: "deadbeef"}, {PartNumber: 2, ETag: p2.ETag},
	}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("complete with wrong etag = %v, want ErrInvalidArgument", err)
	}
	// Re-sending part 2's very bytes is a new attempt with an ETag of its
	// own, and the replaced attempt's no longer completes the upload.
	stale := p2
	if p2, err = e.UploadPart(ctx, up.UploadID, 2, bytes.NewReader(part2), int64(len(part2))); err != nil || p2.ETag == stale.ETag {
		t.Fatalf("identical re-send of part 2: %+v, %v; want a new ETag", p2, err)
	}
	if _, err := e.CompleteUpload(ctx, up.UploadID, []CompletedPart{
		{PartNumber: 1, ETag: p1.ETag}, {PartNumber: 2, ETag: stale.ETag},
	}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("complete with the replaced attempt's ETag = %v, want ErrInvalidArgument", err)
	}

	u, err := b.getUpload(up.UploadID)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := e.CompleteUpload(ctx, up.UploadID, []CompletedPart{
		{PartNumber: 1, ETag: p1.ETag}, {PartNumber: 2, ETag: p2.ETag},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), part1...), part2...)
	if meta.Size != int64(len(want)) || meta.StripeCount() != 4 || !meta.Multipart() {
		t.Fatalf("completed meta = %+v", meta)
	}
	if meta.Checksum != u.draft.Checksum || meta.Checksum == p1.ETag || meta.Checksum == p2.ETag {
		t.Fatalf("completed ETag %q, want the draft's token %q", meta.Checksum, u.draft.Checksum)
	}
	got, gotMeta, err := e.Get(ctx, "mp", "big")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("completed object round-trip: %v (%d bytes)", err, len(got))
	}
	if gotMeta.Checksum != meta.Checksum {
		t.Fatalf("read meta = %+v", gotMeta)
	}

	// The resume must not have re-transferred the completed part: every
	// part-1 chunk was put exactly once, ever.
	for key, n := range part1Puts() {
		if n != 1 {
			t.Fatalf("chunk %s was transferred %d times, want 1", key, n)
		}
	}

	// The session is gone once completed.
	if _, _, err := e.ListParts(ctx, up.UploadID); !errors.Is(err, ErrUploadNotFound) {
		t.Fatalf("ListParts after complete = %v, want ErrUploadNotFound", err)
	}
}

// TestAbortUploadGarbageCollectsParts asserts the satellite criterion:
// aborting an upload removes every staged chunk from every provider,
// and the session stops answering.
func TestAbortUploadGarbageCollectsParts(t *testing.T) {
	reg, backends := hooked(cloud.NewPaperRegistry())
	b := newTestBroker(t, Config{StripeBytes: 1024, Registry: reg})
	e := b.Engine(0)
	ctx := context.Background()

	up, err := e.CreateUpload(ctx, "mp", "doomed", 0, PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for n, size := range map[int]int{1: 2 * 1024, 2: 3 * 1024} {
		if _, err := e.UploadPart(ctx, up.UploadID, n, bytes.NewReader(make([]byte, size)), int64(size)); err != nil {
			t.Fatalf("part %d: %v", n, err)
		}
	}
	staged := 0
	for _, cb := range backends {
		staged += cb.ObjectCount()
	}
	if staged == 0 {
		t.Fatal("no chunks staged before abort")
	}
	if got := b.activeUploads(); got != 1 {
		t.Fatalf("active uploads = %d, want 1", got)
	}

	if err := e.AbortUpload(ctx, up.UploadID); err != nil {
		t.Fatal(err)
	}
	b.ProcessPendingDeletes(ctx)
	for _, cb := range backends {
		if n := cb.ObjectCount(); n != 0 {
			t.Fatalf("%s holds %d chunks after abort", cb.Spec().Name, n)
		}
	}
	if got := b.activeUploads(); got != 0 {
		t.Fatalf("active uploads after abort = %d", got)
	}
	if _, err := e.UploadPart(ctx, up.UploadID, 3, bytes.NewReader(make([]byte, 8)), 8); !errors.Is(err, ErrUploadNotFound) {
		t.Fatalf("UploadPart after abort = %v, want ErrUploadNotFound", err)
	}
	if err := e.AbortUpload(ctx, up.UploadID); !errors.Is(err, ErrUploadNotFound) {
		t.Fatalf("double abort = %v, want ErrUploadNotFound", err)
	}
}

// TestMultipartValidation covers the session-less argument errors.
func TestMultipartValidation(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024})
	e := b.Engine(0)
	ctx := context.Background()

	if _, err := e.CreateUpload(ctx, "", "k", 0, PutOptions{}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("empty container = %v", err)
	}
	if _, err := e.UploadPart(ctx, "nope", 1, bytes.NewReader([]byte{1}), 1); !errors.Is(err, ErrUploadNotFound) {
		t.Fatalf("unknown upload = %v", err)
	}
	up, err := e.CreateUpload(ctx, "mp", "k", 0, PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.UploadPart(ctx, up.UploadID, 0, bytes.NewReader([]byte{1}), 1); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("part 0 = %v", err)
	}
	if _, err := e.UploadPart(ctx, up.UploadID, 1, bytes.NewReader(nil), 0); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("empty part = %v", err)
	}
	// A non-final part that is not stripe-aligned is caught at complete
	// time, when the final part is known.
	if _, err := e.UploadPart(ctx, up.UploadID, 1, bytes.NewReader(make([]byte, 700)), 700); err != nil {
		t.Fatal(err)
	}
	if _, err := e.UploadPart(ctx, up.UploadID, 2, bytes.NewReader(make([]byte, 1024)), 1024); err != nil {
		t.Fatal(err)
	}
	_, err = e.CompleteUpload(ctx, up.UploadID, []CompletedPart{{PartNumber: 1}, {PartNumber: 2}})
	if !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("unaligned non-final part = %v, want ErrInvalidArgument", err)
	}
	if err := e.AbortUpload(ctx, up.UploadID); err != nil {
		t.Fatal(err)
	}
}
