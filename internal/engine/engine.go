package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"

	"scalia/internal/core"
	"scalia/internal/metadata"
	"scalia/internal/obs"
	"scalia/internal/stats"
)

// Engine errors. They are sentinel values so API layers can map them to
// protocol status codes (the v1 gateway's statusFromErr).
var (
	ErrObjectNotFound  = errors.New("engine: object not found")
	ErrNotEnoughChunks = errors.New("engine: not enough reachable chunks to reconstruct")
	// ErrChecksum marks a read the stored sums condemn: a stripe whose
	// payload fails its sum, fewer than m chunks left that pass theirs, or
	// a stripe stored without usable sums.
	ErrChecksum = errors.New("engine: checksum mismatch")
	// ErrInvalidArgument marks malformed requests (missing container or
	// key, negative size, short body); gateways map it to 400.
	ErrInvalidArgument = errors.New("engine: invalid argument")
	// ErrPreconditionFailed is returned when a conditional operation's
	// expected ETag does not match the stored version; mapped to 412.
	ErrPreconditionFailed = errors.New("engine: precondition failed")
	// ErrRangeNotSatisfiable marks a byte-range request that lies
	// entirely outside the object; gateways map it to 416.
	ErrRangeNotSatisfiable = errors.New("engine: range not satisfiable")
)

// Engine is one stateless broker engine. All state lives in the shared
// metadata, cache and statistics layers, so engines scale by addition
// (§III-A). Each engine belongs to one datacenter and serves requests
// against that datacenter's metadata node and cache.
type Engine struct {
	id string
	dc string
	b  *Broker
}

// ID returns the engine identifier.
func (e *Engine) ID() string { return e.id }

// Datacenter returns the engine's datacenter.
func (e *Engine) Datacenter() string { return e.dc }

// PutOptions carries optional write parameters.
type PutOptions struct {
	MIME string
	// TTLHours is the user's lifetime hint (§III-A: "an indication of the
	// object lifetime may be provided by the end user at write time").
	TTLHours float64
	// Rule pins the placement rule of the version written (§II-B's
	// per-object rule): it is kept in the version's row (ObjectMeta.Rule),
	// so optimize, repair and the event drain re-plan the object under it
	// too. An overwrite without it follows the container's rule again.
	Rule *core.Rule
	// IfMatch, when non-empty, makes the write conditional: it succeeds
	// only if IfMatch ("*" or a list of ETags, matchETags) names the stored
	// version. A mismatch fails with ErrPreconditionFailed.
	IfMatch string
	// IfAbsent makes the write create-only: it fails with
	// ErrPreconditionFailed when a live version already exists.
	IfAbsent bool
	// CRC32C, when set, is the client's CRC-32C of the body: a write whose
	// sums compose to another (ObjectMeta.CRC32C) fails with ErrInvalidArgument.
	CRC32C *uint32
}

// validate is the one check of caller-supplied write options, run by
// draft before any planning or chunk traffic: a TTL hint must be a
// finite, non-negative hour count (it is stored in the metadata row,
// which cannot encode NaN or Inf) and a pinned rule must be well-formed.
func (o PutOptions) validate() error {
	if math.IsNaN(o.TTLHours) || math.IsInf(o.TTLHours, 0) || o.TTLHours < 0 {
		return fmt.Errorf("%w: TTL hint %v hours is not a finite, non-negative number", ErrInvalidArgument, o.TTLHours)
	}
	if o.Rule != nil {
		return validRule(*o.Rule)
	}
	return nil
}

// objectName joins container and key into the statistics identity.
func objectName(container, key string) string { return container + "/" + key }

// Put stores (or updates) an object from an in-memory payload. It is a
// thin compatibility wrapper over PutReader.
func (e *Engine) Put(ctx context.Context, container, key string, data []byte, opts PutOptions) (ObjectMeta, error) {
	return e.PutReader(ctx, container, key, bytes.NewReader(data), int64(len(data)), opts)
}

// PutReader stores (or updates) an object streamed from r: it drafts the
// version (the best provider set for its class and rule), erasure-codes
// each stripe of at most the deployment's stripe size into chunks under
// the draft's fresh UUID-derived storage key, and commits it (§III-D1).
// The body is never materialized whole: at most WritePipelineDepth
// stripes are in flight at a time, each held in its own chunks and
// charged one slot of the MaxBufferBytes budget, so arbitrarily large
// objects stream through in bounded memory (writepath.go). size must be the exact body length. Cancelling ctx
// aborts the in-flight chunk fan-out and rolls back the chunks already
// written.
func (e *Engine) PutReader(ctx context.Context, container, key string, r io.Reader, size int64, opts PutOptions) (ObjectMeta, error) {
	if size < 0 {
		return ObjectMeta{}, fmt.Errorf("%w: object size must be declared up front", ErrInvalidArgument)
	}
	meta, cur, err := e.draft(ctx, container, key, size, opts)
	if err != nil {
		return ObjectMeta{}, err
	}
	meta.Size, meta.Stripes = size, stripeCount(size, e.b.cfg.StripeBytes)
	l, err := e.layoutOf(meta)
	if err != nil {
		return ObjectMeta{}, err
	}
	if cur != nil {
		l.kept = e.b.caches.Held(cur.cacheID())
	}
	if err := e.writeStripes(ctx, l, r); err != nil {
		return ObjectMeta{}, err
	}
	meta.Sums = l.sums
	if err := e.commitWrite(ctx, &meta, opts, l.kept); err != nil {
		return ObjectMeta{}, err
	}
	return meta, nil
}

// validContainer refuses a container that could share a row, MD5(container
// | key), or an object name, container/key, with another container's
// objects: one holding '|' or '/'. Keys keep every character.
func validContainer(container string) error {
	if container == "" || strings.ContainsAny(container, "|/") {
		return fmt.Errorf("%w: container %q must be non-empty and hold no '|' or '/'", ErrInvalidArgument, container)
	}
	return nil
}

// draft is the one step that starts every new version, a PUT's and a
// multipart upload's alike: it checks the name and the options, classifies
// a planBytes-byte body, resolves its rule (opts.Rule, kept in the row,
// first), plans it on the providers reachable right now ("Scalia will
// choose the best placement that does not include the faulty provider",
// §III-D3) and fast-fails the preconditions against the stored version,
// cur (nil = absent); commitWrite repeats them under the row lock. It
// mints the version's ETag token (newToken). The version returned has no
// body: the caller fills in Size, Stripes and Sums.
func (e *Engine) draft(ctx context.Context, container, key string, planBytes int64, opts PutOptions) (meta ObjectMeta, cur *ObjectMeta, err error) {
	if err := ctx.Err(); err != nil {
		return ObjectMeta{}, nil, err
	}
	if err := validContainer(container); err != nil {
		return ObjectMeta{}, nil, err
	}
	if key == "" {
		return ObjectMeta{}, nil, fmt.Errorf("%w: key is required", ErrInvalidArgument)
	}
	if err := opts.validate(); err != nil {
		return ObjectMeta{}, nil, err
	}
	class := stats.ClassKey(opts.MIME, planBytes)
	rule := e.b.rules.Resolve(container, opts.Rule)
	now := e.b.clock.Period()
	planStart := time.Now()
	epoch, specs, free := e.b.registry.Market()
	res, err := e.b.planner.Best(epoch, specs, rule, e.writeLoad(objectName(container, key), class, planBytes), planBytes, free)
	if err != nil {
		return ObjectMeta{}, nil, err
	}
	e.b.observeStage(obs.TraceFrom(ctx), "plan", planStart)
	cur = e.currentVersion(RowKey(container, key))
	if err := checkWriteConditions(opts, cur); err != nil {
		return ObjectMeta{}, nil, err
	}
	uuid := NewUUID()
	return ObjectMeta{
		Container:   container,
		Key:         key,
		MIME:        opts.MIME,
		Checksum:    newToken(uuid),
		RuleName:    rule.Name,
		Rule:        opts.Rule,
		Class:       class,
		SKey:        StorageKey(container, key, uuid),
		M:           res.Placement.M,
		Chunks:      e.b.slotNames(res.Placement, min(planBytes, e.b.cfg.StripeBytes)),
		UUID:        uuid,
		TTLHours:    opts.TTLHours,
		CreatedAt:   now,
		StripeBytes: e.b.cfg.StripeBytes,
	}, cur, nil
}

// publish is the one place a row is written. Under the row lock it
// re-reads the live version, cur (nil = absent), and hands it to next,
// which vetoes with an error (a stale precondition, a version that changed
// under a background copy) or returns the version to store, nil for a
// tombstone; publish stamps, encodes and stores it. Still under the lock,
// so commits of one key land in the order they commit, the provider index
// follows the stored row, and cur's cached stripes become the new
// version's: re-keyed if it carries cur's token (the same bytes), else
// holding kept's stripes or dropped. A tombstone lets go of the object's
// decision-period controller and noted rot. The lock covers the row's
// delivery to every other datacenter (metadata.Cluster.Put), so
// read-your-writes holds on every path, and a row's next writer, in
// whichever datacenter, is shown this version as cur: its write dominates
// every head its node holds, so a version arriving between its read and
// its write would vanish with nobody to retire it. Last, the lock
// released, a cur the row no longer names goes to the reaper
// (retireVersion), whose chunks are deleted in the background once no
// reader pins them; past the backlog bound the committer reaps before it
// returns.
func (e *Engine) publish(container, key string, kept map[int][]byte, next func(cur *ObjectMeta) (*ObjectMeta, error)) (cur *ObjectMeta, err error) {
	if err := validContainer(container); err != nil {
		return nil, err
	}
	row := RowKey(container, key)
	lk := e.b.rowLock(row)
	lk.Lock()
	cur = e.currentVersion(row)
	stored, err := next(cur)
	if err == nil {
		var v metadata.Version
		if ts := e.b.clock.Timestamp(); stored != nil {
			v = rowVersion(*stored, ts)
		} else {
			v = metadata.Version{UUID: NewUUID(), Timestamp: ts, Deleted: true}
		}
		if err = e.b.meta.Put(e.dc, row, v); err != nil {
			err = fmt.Errorf("engine: metadata write: %w", err)
		}
	}
	switch obj := objectName(container, key); {
	case err != nil: // vetoed or failed: nothing was stored
	case stored != nil:
		e.b.provIndex.Set(obj, stored.Chunks)
		if cur != nil && stored.UUID != cur.UUID {
			e.b.caches.Replace(cur.cacheID(), stored.cacheID(), kept, stored.Checksum == cur.Checksum)
		}
	default:
		e.b.provIndex.Drop(obj)
		e.b.mu.Lock()
		delete(e.b.decisions, obj)
		delete(e.b.rot, obj)
		e.b.mu.Unlock()
	}
	lk.Unlock()
	if err != nil {
		return cur, err
	}
	if cur != nil && (stored == nil || stored.UUID != cur.UUID) && e.retireVersion(*cur) {
		e.b.reaper.reap(false)
	}
	return cur, nil
}

// commitWrite is the one commit of a drafted version, a PUT's and a
// multipart upload's alike. It publishes meta with the write preconditions
// re-checked against the stored version inside the row lock, so two
// concurrent conditional writes cannot both pass the check-then-act window
// (the body transfer runs unlocked; only this commit serializes). A body
// that fails the client's opts.CRC32C is refused like a stale
// precondition. It records the commit span and logs the write at the
// period meta was drafted in. If the row was not stored, meta's staged
// chunks are rolled back. kept holds the new version's bytes of the
// stripes cached of the one it replaces (publish).
func (e *Engine) commitWrite(ctx context.Context, meta *ObjectMeta, opts PutOptions, kept map[int][]byte) error {
	period := meta.CreatedAt // an overwrite keeps the first write's
	start := time.Now()
	_, err := e.publish(meta.Container, meta.Key, kept, func(prev *ObjectMeta) (*ObjectMeta, error) {
		if opts.CRC32C != nil && *opts.CRC32C != meta.CRC32C() {
			return nil, fmt.Errorf("%w: the body's CRC-32C is %08x, not %08x", ErrInvalidArgument, meta.CRC32C(), *opts.CRC32C)
		}
		if err := checkWriteConditions(opts, prev); err != nil {
			return nil, err
		}
		if prev != nil {
			meta.CreatedAt = prev.CreatedAt
		}
		return meta, nil
	})
	e.b.observeStage(obs.TraceFrom(ctx), "commit", start)
	if err != nil {
		l, _ := e.layoutOf(*meta)      // deleting needs no coder
		e.discard(l, l.stripes, l.all) // the commit never happened; reclaim the staged chunks
		return err
	}
	e.b.statsDB.Apply(stats.Event{
		Object: objectName(meta.Container, meta.Key), Class: meta.Class, Kind: stats.EventWrite,
		Bytes: meta.Size, StorageBytes: meta.Size, Period: period,
	})
	return nil
}

// currentVersion reads a row's live version (rowMeta), nil when there is
// none.
func (e *Engine) currentVersion(row string) *ObjectMeta {
	if m, err := e.rowMeta(row); err == nil {
		return m
	}
	return nil
}

// checkWriteConditions evaluates a write's (or a DeleteIf's) If-Match /
// create-only preconditions against the stored version (nil = absent).
func checkWriteConditions(opts PutOptions, prev *ObjectMeta) error {
	switch {
	case opts.IfAbsent && prev != nil:
		return fmt.Errorf("%w: object already exists", ErrPreconditionFailed)
	case opts.IfMatch == "":
		return nil
	case prev == nil:
		return fmt.Errorf("%w: no stored version to match", ErrPreconditionFailed)
	case !matchETags(opts.IfMatch, *prev, false):
		return fmt.Errorf("%w: stored version is %s", ErrPreconditionFailed, prev.ETag())
	}
	return nil
}

// matchETags reports whether an If-Match or If-None-Match value — "*" or
// a list of entity-tags, quoted or bare — names meta: weakly, W/ ignored,
// for If-None-Match; strongly, W/ never matching, for If-Match (RFC 9110
// §13.1.1–2).
func matchETags(header string, meta ObjectMeta, weak bool) bool {
	for _, tag := range strings.Split(header, ",") {
		tag = strings.TrimSpace(tag)
		if weak {
			tag = strings.TrimPrefix(tag, "W/")
		}
		if tag == "*" || tag == meta.ETag() || tag == meta.Checksum {
			return true
		}
	}
	return false
}

// stripeCount returns how many stripes an object of the given size
// occupies under the configured stripe size (at least 1).
func stripeCount(size, stripeBytes int64) int {
	if stripeBytes <= 0 || size <= stripeBytes {
		return 1
	}
	return int((size + stripeBytes - 1) / stripeBytes)
}

// writeLoad builds the pricing summary for a write: the object's own
// history when present, otherwise the class expectation (Fig. 6),
// otherwise just this write.
func (e *Engine) writeLoad(obj, class string, size int64) stats.Summary {
	if h := e.b.statsDB.History(obj); h != nil && h.Len() > 0 {
		// Over the object's current decision period D_obj.
		d := e.b.cfg.DecisionPeriod
		e.b.mu.Lock()
		if ctl, ok := e.b.decisions[obj]; ok {
			d = ctl.D()
		}
		e.b.mu.Unlock()
		sum := h.Summary(e.b.clock.Period(), d)
		sum.StorageBytes = float64(size)
		return sum
	}
	if rec, ok := e.b.statsDB.Classes().Lookup(class); ok {
		if sum, ok := rec.ExpectedSummary(); ok {
			sum.StorageBytes = float64(size)
			return sum
		}
	}
	return stats.Summary{
		Periods: 1, Writes: 1,
		BytesIn: float64(size), StorageBytes: float64(size),
	}
}

// Get serves an object fully buffered: stripes come from the stripe
// cache where present, otherwise from the m cheapest reachable chunks,
// cached, and the read is logged (§III-D2).
// It is a thin wrapper over GetReader.
func (e *Engine) Get(ctx context.Context, container, key string) ([]byte, ObjectMeta, error) {
	rc, meta, err := e.GetReader(ctx, container, key)
	if err != nil {
		return nil, ObjectMeta{}, err
	}
	defer rc.Close()
	data, err := ReadSized(rc, meta.Size)
	if err != nil {
		return nil, ObjectMeta{}, err
	}
	return data, meta, nil
}

// ReadSized buffers a body of known length — an object's Size, a
// response's Content-Length — in one allocation of that size, where
// io.ReadAll doubles its way to several times the body. A body that ends
// short fails with io.ErrUnexpectedEOF; a negative size means unknown.
func ReadSized(r io.Reader, size int64) ([]byte, error) {
	if size < 0 {
		return io.ReadAll(r)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// GetReader serves an object as a stream. Each stripe is consulted in
// the stripe-granular cache first; missing stripes are fetched from the
// m cheapest reachable providers with a bounded parallel chunk fan-out,
// and the stream is pipelined: while one stripe drains to the caller,
// the next ones prefetch in the background (Config.ReadParallelism /
// Config.PrefetchStripes). The first stripe is produced eagerly so
// placement and availability errors surface on the call itself rather
// than mid-stream; every fetched chunk and every stripe's payload is
// verified against its stored sum before a byte of it is handed out.
// The stream pins the object before it reads the row, until it is
// drained or closed, so an overwrite or delete that lands meanwhile
// cannot take away the chunks of the version it reads. Cancelling ctx
// tears down the prefetcher and all in-flight chunk fetches.
func (e *Engine) GetReader(ctx context.Context, container, key string) (io.ReadCloser, ObjectMeta, error) {
	return e.stream(ctx, container, key, 0, -1, false)
}

// GetRangeReader serves the byte range [offset, offset+length) of an
// object as a stream. The range maps onto whole stripes: only the
// stripes it overlaps are consulted in the cache or fetched, so a
// ranged read of a huge object touches a handful of stripes instead of
// all of them. length is clamped to the object end; length -1 means
// "to the object end" (matching the remote client's GetRange). A range
// starting at or past the object end fails with ErrRangeNotSatisfiable.
func (e *Engine) GetRangeReader(ctx context.Context, container, key string, offset, length int64) (io.ReadCloser, ObjectMeta, error) {
	if offset < 0 || length == 0 || length < -1 {
		return nil, ObjectMeta{}, fmt.Errorf("%w: range offset %d length %d", ErrInvalidArgument, offset, length)
	}
	return e.stream(ctx, container, key, offset, length, true)
}

// stream opens container/key for a user read and begins its stream. The
// meta returned is the caller's own copy.
func (e *Engine) stream(ctx context.Context, container, key string, offset, length int64, ranged bool) (io.ReadCloser, ObjectMeta, error) {
	or, err := e.openObject(ctx, container, key, true)
	if err != nil {
		return nil, ObjectMeta{}, err
	}
	if err := or.begin(ctx, offset, length, ranged); err != nil {
		or.Close()
		return nil, ObjectMeta{}, err
	}
	return or, or.meta.clone(), nil
}

// rowMeta reads a row's live version from the engine's datacenter node:
// the stored version itself (viewMeta), which the caller reads and never
// writes. The read collapses an MVCC conflict it finds, and the versions
// that lost are retired here (Fig. 10) — also when the winner is a
// tombstone and the row reads as not found: handing them to the reaper
// costs no provider call, so this may run under the row lock.
func (e *Engine) rowMeta(row string) (*ObjectMeta, error) {
	v, losers, err := e.b.meta.Store(e.dc).Get(row)
	for _, l := range losers {
		if m, verr := viewMeta(l); !l.Deleted && verr == nil {
			e.retireVersion(*m)
		}
	}
	switch {
	case errors.Is(err, metadata.ErrRowNotFound):
		return nil, ErrObjectNotFound
	case err != nil:
		return nil, err
	}
	return viewMeta(v)
}

// Delete removes an object: it tombstones the metadata — which retires
// the version: its cached stripes go at once, its chunks in the
// background (see publish) — and logs the deletion for lifetime
// statistics.
func (e *Engine) Delete(ctx context.Context, container, key string) error {
	return e.DeleteIf(ctx, container, key, "")
}

// DeleteIf is Delete with an optional If-Match precondition ("" = none).
// The precondition check and the tombstone write run under the row
// lock, so a concurrent conditional write cannot slip between them.
func (e *Engine) DeleteIf(ctx context.Context, container, key, ifMatch string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	prev, err := e.publish(container, key, nil, func(prev *ObjectMeta) (*ObjectMeta, error) {
		if prev == nil {
			return nil, ErrObjectNotFound
		}
		return nil, checkWriteConditions(PutOptions{IfMatch: ifMatch}, prev)
	})
	if err != nil {
		return err
	}
	e.b.statsDB.Apply(stats.Event{
		Object: objectName(container, key), Class: prev.Class, Kind: stats.EventDelete,
		StorageBytes: 0, Period: e.b.clock.Period(),
	})
	return nil
}

// ListResult is one page of a container listing (GET
// /v1/objects/{container}).
type ListResult struct {
	Container string   `json:"container"`
	Keys      []string `json:"keys"`
	Truncated bool     `json:"truncated"`
	// Next is the cursor to pass as After for the following page; set
	// only when Truncated.
	Next string `json:"next,omitempty"`
}

// ListOptions parameterize one page of a listing.
type ListOptions struct {
	// Prefix filters keys.
	Prefix string
	// After resumes after the given cursor (ListResult.Next).
	After string
	// Limit caps the page; <= 0 or above MaxListLimit means MaxListLimit.
	Limit int
}

// MaxListLimit is the default and the maximum size of one listing page,
// for objects and for jobs.
const MaxListLimit = 1000

// pageLimit resolves a caller's page-size request.
func pageLimit(limit int) int {
	if limit <= 0 || limit > MaxListLimit {
		return MaxListLimit
	}
	return limit
}

// List returns one page of the keys stored in a container, sorted, so
// the cursor of a truncated page is simply its last key. It reads the
// rows Head reads, on the engine's datacenter node, each resolved as Head
// resolves it: a listed key is one Head finds.
func (e *Engine) List(ctx context.Context, container string, opts ListOptions) (ListResult, error) {
	res := ListResult{Container: container, Keys: []string{}}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if err := validContainer(container); err != nil {
		return res, err
	}
	rows, err := e.b.meta.Store(e.dc).Scan()
	if err != nil {
		return res, err
	}
	for _, v := range rows {
		if m, err := viewMeta(v); err == nil && m.Container == container && strings.HasPrefix(m.Key, opts.Prefix) && m.Key > opts.After {
			res.Keys = append(res.Keys, m.Key)
		}
	}
	slices.Sort(res.Keys)
	if limit := pageLimit(opts.Limit); len(res.Keys) > limit {
		res.Keys, res.Truncated, res.Next = res.Keys[:limit], true, res.Keys[limit-1]
	}
	return res, nil
}

// Head returns an object's metadata, the caller's own copy, without
// transferring the payload.
func (e *Engine) Head(ctx context.Context, container, key string) (ObjectMeta, error) {
	if err := ctx.Err(); err != nil {
		return ObjectMeta{}, err
	}
	if err := validContainer(container); err != nil {
		return ObjectMeta{}, err
	}
	m, err := e.rowMeta(RowKey(container, key))
	if err != nil {
		return ObjectMeta{}, err
	}
	return m.clone(), nil
}
