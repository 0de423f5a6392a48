package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"scalia/internal/stats"
)

// Resumable multipart uploads. A large PUT whose connection drops at
// stripe 400/500 should resume, not restart: the client opens an
// upload session, streams stripe-aligned parts (each erasure-coded and
// fanned out through the write pipeline like a regular PUT), and
// completes the upload with the part list. Parts stage their chunks
// under part-scoped keys that ARE the committed object's chunk keys
// (ObjectMeta.PartStripes maps global stripe indexes onto them), so
// completion is one batched metadata commit under the row lock — no
// chunk data moves. A dropped part is simply re-sent — every attempt
// draws a generation (ObjectMeta.Gens), so under keys of its own, and the
// replaced attempt's chunks go whenever the reaper gets to them; completed
// parts are never re-transferred (ListParts reports what survived).
//
// Wire-level the /v1 gateway mirrors S3: POST …?uploads opens a
// session, PUT …?partNumber=N&uploadId=… stages a part and returns its
// ETag, POST …?uploadId=… completes, DELETE …?uploadId=… aborts, and
// GET …?uploadId=… lists staged parts.

// ErrUploadNotFound marks operations against an unknown (or already
// completed/aborted) multipart upload; gateways map it to 404.
var ErrUploadNotFound = errors.New("engine: multipart upload not found")

// MaxUploadParts bounds the parts of one multipart upload (S3's limit).
const MaxUploadParts = 10000

// UploadInfo identifies an open multipart upload session.
type UploadInfo struct {
	UploadID  string `json:"uploadId"`
	Container string `json:"container"`
	Key       string `json:"key"`
}

// PartInfo describes one staged part of a multipart upload.
type PartInfo struct {
	PartNumber int    `json:"partNumber"`
	ETag       string `json:"etag"` // the part attempt's token (newToken)
	Size       int64  `json:"size"`
	Stripes    int    `json:"stripes"`
}

// CompletedPart names one part in a CompleteUpload request. ETag is
// optional ("" skips verification) but strongly recommended.
type CompletedPart struct {
	PartNumber int    `json:"partNumber"`
	ETag       string `json:"etag"`
}

// uploadSession is one open multipart upload. It keeps the version's
// draft — identity, rule and placement, and with it the (m, n) code and
// provider set — made once at creation, so every part stripes
// identically, and CompleteUpload fills in the body the parts make.
type uploadSession struct {
	id    string
	draft ObjectMeta // what CompleteUpload commits, less its body
	opts  PutOptions

	mu       sync.Mutex
	closed   bool
	inflight map[int]bool        // part numbers currently streaming
	parts    map[int]*stagedPart // staged (fully written) parts
	// lastActive is the broker wall-clock of the session's most recent
	// use (creation, part claim/settle, part listing); the TTL sweep
	// evicts sessions idle past the deadline.
	lastActive time.Time
}

// stagedPart records one fully staged part.
type stagedPart struct {
	number  int
	gen     uint64 // of this attempt at the part: in its chunk keys
	size    int64
	etag    string
	stripes int
	sums    []StripeSum // chunk and payload sums, one record per stripe
}

// --- broker session table ---

func (b *Broker) activeUploads() int {
	b.uploadsMu.Lock()
	defer b.uploadsMu.Unlock()
	return len(b.uploads)
}

func (b *Broker) addUpload(s *uploadSession) {
	b.uploadsMu.Lock()
	b.uploads[s.id] = s
	b.uploadsMu.Unlock()
}

func (b *Broker) getUpload(id string) (*uploadSession, error) {
	b.uploadsMu.Lock()
	s, ok := b.uploads[id]
	b.uploadsMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUploadNotFound, id)
	}
	return s, nil
}

func (b *Broker) removeUpload(id string) {
	b.uploadsMu.Lock()
	delete(b.uploads, id)
	b.uploadsMu.Unlock()
}

// --- engine operations ---

// CreateUpload opens a multipart upload session for an object. The
// version is drafted now, as a PUT's is — sizeHint (0 = unknown, planned
// at one stripe) feeds the cost model — and every part inherits its
// placement, so all parts stripe across the same provider set with the
// same threshold. opts preconditions are fast-checked here and re-checked
// authoritatively when the upload completes.
func (e *Engine) CreateUpload(ctx context.Context, container, key string, sizeHint int64, opts PutOptions) (UploadInfo, error) {
	if sizeHint < 0 {
		return UploadInfo{}, fmt.Errorf("%w: negative size hint", ErrInvalidArgument)
	}
	planBytes := sizeHint
	if planBytes == 0 {
		planBytes = e.b.cfg.StripeBytes
	}
	draft, _, err := e.draft(ctx, container, key, planBytes, opts)
	if err != nil {
		return UploadInfo{}, err
	}
	s := &uploadSession{
		id:         NewUUID(),
		draft:      draft,
		opts:       opts,
		inflight:   make(map[int]bool),
		parts:      make(map[int]*stagedPart),
		lastActive: e.b.now(),
	}
	e.b.addUpload(s)
	return UploadInfo{UploadID: s.id, Container: container, Key: key}, nil
}

// UploadPart streams one part of an open upload through the write
// pipeline, staging its chunks under part-scoped keys. size must be
// the exact part length; re-sending a part number replaces the earlier
// attempt. Every part except the upload's final one must be a whole
// multiple of the deployment's stripe size, so the assembled object's
// stripe geometry stays uniform (violations surface at CompleteUpload,
// where the final part is known).
func (e *Engine) UploadPart(ctx context.Context, uploadID string, partNumber int, r io.Reader, size int64) (PartInfo, error) {
	if partNumber < 1 || partNumber > MaxUploadParts {
		return PartInfo{}, fmt.Errorf("%w: part number %d outside [1, %d]", ErrInvalidArgument, partNumber, MaxUploadParts)
	}
	if size < 1 {
		return PartInfo{}, fmt.Errorf("%w: parts must declare a positive size", ErrInvalidArgument)
	}
	s, err := e.b.getUpload(uploadID)
	if err != nil {
		return PartInfo{}, err
	}

	// Claim the part number: concurrent uploads of different parts
	// proceed in parallel, concurrent uploads of the same part conflict.
	// A replaced attempt's record is removed before its chunks are — a
	// mid-replace crash leaves no record, so the part reads as missing
	// and the client re-sends it.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return PartInfo{}, fmt.Errorf("%w: %s", ErrUploadNotFound, uploadID)
	}
	if s.inflight[partNumber] {
		s.mu.Unlock()
		return PartInfo{}, fmt.Errorf("%w: part %d is already uploading", ErrInvalidArgument, partNumber)
	}
	s.inflight[partNumber] = true
	s.lastActive = e.b.now()
	replaced := s.parts[partNumber]
	delete(s.parts, partNumber)
	s.mu.Unlock()
	settle := func() { // drop the claim on every exit path
		s.mu.Lock()
		delete(s.inflight, partNumber)
		s.lastActive = e.b.now()
		s.mu.Unlock()
	}
	if replaced != nil {
		e.deletePartChunks(s, replaced)
	}

	gen := e.b.gen.Add(1)
	l, err := e.partLayout(s, partNumber, gen, size)
	if err != nil {
		settle()
		return PartInfo{}, err
	}
	if err := e.writeStripes(ctx, l, r); err != nil {
		settle()
		return PartInfo{}, err
	}
	part := &stagedPart{
		number: partNumber, gen: gen, size: size, etag: newToken(NewUUID()),
		stripes: l.stripes, sums: l.sums,
	}
	s.mu.Lock()
	if s.closed {
		// The upload was aborted while this part streamed; its chunks
		// are ours to clean up.
		s.mu.Unlock()
		e.deletePartChunks(s, part)
		return PartInfo{}, fmt.Errorf("%w: %s", ErrUploadNotFound, uploadID)
	}
	s.parts[partNumber] = part
	delete(s.inflight, partNumber)
	s.lastActive = e.b.now()
	s.mu.Unlock()
	return PartInfo{PartNumber: partNumber, ETag: part.etag, Size: size, Stripes: l.stripes}, nil
}

// ListParts reports the staged parts of an open upload, sorted by part
// number — the resume protocol's "what survived" answer.
func (e *Engine) ListParts(ctx context.Context, uploadID string) (UploadInfo, []PartInfo, error) {
	if err := ctx.Err(); err != nil {
		return UploadInfo{}, nil, err
	}
	s, err := e.b.getUpload(uploadID)
	if err != nil {
		return UploadInfo{}, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return UploadInfo{}, nil, fmt.Errorf("%w: %s", ErrUploadNotFound, uploadID)
	}
	s.lastActive = e.b.now() // a resume probe is activity
	out := make([]PartInfo, 0, len(s.parts))
	for _, p := range s.parts {
		out = append(out, PartInfo{PartNumber: p.number, ETag: p.etag, Size: p.size, Stripes: p.stripes})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PartNumber < out[j].PartNumber })
	return UploadInfo{UploadID: s.id, Container: s.draft.Container, Key: s.draft.Key}, out, nil
}

// CompleteUpload assembles the staged parts into the live object
// version: one batched metadata commit under the row lock, no chunk
// movement. parts must name every part of the object — consecutive
// numbers from 1 — and non-final parts must be stripe-aligned; a
// mismatched or missing part fails with ErrInvalidArgument and leaves
// the session open, so the client can re-send the part and retry.
// Staged parts left out of the list are garbage-collected.
func (e *Engine) CompleteUpload(ctx context.Context, uploadID string, parts []CompletedPart) (ObjectMeta, error) {
	if err := ctx.Err(); err != nil {
		return ObjectMeta{}, err
	}
	if len(parts) == 0 {
		return ObjectMeta{}, fmt.Errorf("%w: empty part list", ErrInvalidArgument)
	}
	s, err := e.b.getUpload(uploadID)
	if err != nil {
		return ObjectMeta{}, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ObjectMeta{}, fmt.Errorf("%w: %s", ErrUploadNotFound, uploadID)
	}
	staged, extra, err := matchParts(s, parts, e.b.cfg.StripeBytes)
	if err != nil {
		s.mu.Unlock()
		return ObjectMeta{}, err // session stays open for a retry
	}
	if len(s.inflight) > 0 {
		s.mu.Unlock()
		return ObjectMeta{}, fmt.Errorf("%w: %d parts still uploading", ErrInvalidArgument, len(s.inflight))
	}
	s.closed = true
	s.mu.Unlock()
	e.b.removeUpload(uploadID)

	// Staged-but-unlisted parts will not be part of the object; GC them.
	for _, p := range extra {
		e.deletePartChunks(s, p)
	}

	meta := s.draft
	meta.PartStripes = make([]int, len(staged))
	meta.Gens = make([]uint64, 0, len(staged)*len(meta.Chunks))
	for i, p := range staged {
		meta.Size += p.size
		meta.Stripes += p.stripes
		meta.PartStripes[i] = p.stripes
		for range meta.Chunks {
			meta.Gens = append(meta.Gens, p.gen)
		}
		meta.Sums = append(meta.Sums, p.sums...)
	}
	meta.Class = stats.ClassKey(meta.MIME, meta.Size)
	meta.CreatedAt = e.b.clock.Period()
	if err := e.commitWrite(ctx, &meta, s.opts, nil); err != nil { // parts keep no copies: cached stripes are dropped
		return ObjectMeta{}, err
	}
	return meta, nil
}

// matchParts validates a CompleteUpload part list against the staged
// parts: consecutive numbers from 1, ETags matching, and every part but
// the last stripe-aligned. It returns the staged parts in part order
// plus the staged parts the list leaves out.
func matchParts(s *uploadSession, parts []CompletedPart, stripeBytes int64) (staged []*stagedPart, extra []*stagedPart, err error) {
	listed := make(map[int]bool, len(parts))
	ordered := append([]CompletedPart(nil), parts...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].PartNumber < ordered[j].PartNumber })
	staged = make([]*stagedPart, 0, len(ordered))
	for i, cp := range ordered {
		if cp.PartNumber != i+1 {
			return nil, nil, fmt.Errorf("%w: part numbers must be consecutive from 1 (got %d at position %d)",
				ErrInvalidArgument, cp.PartNumber, i+1)
		}
		p, ok := s.parts[cp.PartNumber]
		if !ok {
			return nil, nil, fmt.Errorf("%w: part %d was never uploaded", ErrInvalidArgument, cp.PartNumber)
		}
		if want := strings.Trim(cp.ETag, `"`); want != "" && want != p.etag {
			return nil, nil, fmt.Errorf("%w: part %d etag mismatch", ErrInvalidArgument, cp.PartNumber)
		}
		listed[cp.PartNumber] = true
		staged = append(staged, p)
	}
	for i, p := range staged[:len(staged)-1] {
		if p.size%stripeBytes != 0 {
			return nil, nil, fmt.Errorf("%w: part %d (%d bytes) is not stripe-aligned; only the final part may be",
				ErrInvalidArgument, i+1, p.size)
		}
	}
	for n, p := range s.parts {
		if !listed[n] {
			extra = append(extra, p)
		}
	}
	return staged, extra, nil
}

// AbortUpload tears an upload session down and garbage-collects every
// staged part's chunks. Parts still streaming clean up after
// themselves when they finish.
func (e *Engine) AbortUpload(ctx context.Context, uploadID string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s, err := e.b.getUpload(uploadID)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUploadNotFound, uploadID)
	}
	e.discardLocked(s)
	return nil
}

// discardLocked closes the session, drops it from the table and
// garbage-collects every staged part's chunks. The caller holds s.mu,
// which it releases before the provider calls.
func (e *Engine) discardLocked(s *uploadSession) {
	s.closed = true
	staged := s.parts
	s.parts = nil
	s.mu.Unlock()
	e.b.removeUpload(s.id)
	for _, p := range staged {
		e.deletePartChunks(s, p)
	}
}

// deletePartChunks discards every chunk a staged part wrote.
func (e *Engine) deletePartChunks(s *uploadSession, p *stagedPart) {
	l, _ := e.partLayout(s, p.number, p.gen, p.size) // deleting needs no coder
	e.discard(l, l.stripes, l.all)
}

// SweepExpiredUploads evicts multipart upload sessions whose last
// activity (creation, part upload, part listing) is at least ttl ago:
// abandoned sessions would otherwise pin their staged chunks — and the
// provider bytes billed for them — in perpetuity, since sessions live
// only in broker memory. Eviction follows the abort path: the session
// closes, leaves the table (the activeUploads gauge is the table
// length, so it drops with it) and every staged part's chunks are
// garbage-collected. Sessions with a part currently streaming are
// skipped — an in-flight part is activity, whatever the clock says.
// ttl <= 0 disables the sweep. Returns the number of sessions evicted.
func (b *Broker) SweepExpiredUploads(ttl time.Duration) int {
	if ttl <= 0 {
		return 0
	}
	now := b.now()
	b.uploadsMu.Lock()
	sessions := make([]*uploadSession, 0, len(b.uploads))
	for _, s := range b.uploads {
		sessions = append(sessions, s)
	}
	b.uploadsMu.Unlock()

	e := b.Engine(0)
	evicted := 0
	for _, s := range sessions {
		s.mu.Lock()
		if s.closed || len(s.inflight) > 0 || now.Sub(s.lastActive) < ttl {
			s.mu.Unlock()
			continue
		}
		e.discardLocked(s)
		evicted++
	}
	return evicted
}
