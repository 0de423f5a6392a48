package engine

import (
	"context"
	"errors"
	"io"
	"sync/atomic"

	"scalia/internal/obs"
	"scalia/internal/stats"
)

// This file is the streaming read path: an object reader over the
// stripe cache and the stripe engine (stripe.go).
//
// A read of stripe s consults the stripe cache first — a hit costs no
// provider traffic at all — and otherwise fetches the stripe's m
// cheapest chunks that pass their sums, decodes and verifies it, and
// (user-facing reads only) writes it back to the cache. That per-stripe
// verification is the read's whole integrity check: it holds for ranged
// and multipart reads alike, and it runs before a stripe's first byte is
// handed out — no hash over the whole object follows it. The stream is a stripePipe of
// depth PrefetchStripes: while stripe s drains to the client, up to
// PrefetchStripes following stripes are fetched and decoded
// concurrently and handed over in order, so provider latency and decode
// cost overlap with client consumption. Cancelling the request context
// tears down every in-flight chunk fetch.

// objectReader streams the stripes [start, end] of a stored object.
type objectReader struct {
	e    *Engine
	meta ObjectMeta
	obj  string
	// cacheID is the stripe-cache identity of this object VERSION:
	// objectName plus the version UUID. Versioned keys make the cache
	// immune to the invalidate-then-fill race — a slow reader of the
	// old version fills old-version keys, which a reader of the new
	// version can never hit. Superseded entries are invalidated
	// eagerly where the previous version is known and age out of the
	// LRU otherwise.
	cacheID string
	// via is where the stream fetches from. Outages come and go and a
	// swap repair moves chunks of the pinned version mid-stream, so a
	// stripe that comes up short replaces it from the live row (refresh)
	// while other stripes are being produced.
	via atomic.Pointer[readVia]
	// userRead marks a client-facing stream: it fills the stripe cache
	// and logs the read event on completion. Internal streams
	// (migration) do neither.
	userRead bool

	start, end int // inclusive stripe range

	pipe *stripePipe

	cur     []byte // decoded, unconsumed bytes of the current stripe
	curSlot bool   // cur holds a stripe slot of the broker read budget
	curBuf  []byte // the fetched stripe cur is what is left of; recycled with the slot
	fetched int64  // payload bytes delivered so far
	logged  bool   // read event emitted
	pinned  bool   // holds a reader pin on meta.UUID
	err     error  // sticky terminal state (io.EOF after full drain)
}

// readVia is one chunk->provider map of a version and its ranking:
// order ranks the chunk slots cheapest provider first, computed once per
// map; rankErr defers an insufficient-providers error until a stripe
// actually needs a provider fetch, so fully cached objects stay readable
// through an outage.
type readVia struct {
	layout  *stripeLayout
	order   []int
	rankErr error
}

func (e *Engine) readViaOf(meta ObjectMeta) (*readVia, error) {
	l, err := e.layoutOf(meta)
	if err != nil {
		return nil, err
	}
	via := &readVia{layout: l}
	via.order, via.rankErr = l.rank(meta.Size, nil)
	return via, nil
}

// errSuperseded fails an open whose version stopped being the live one
// before the reader had pinned it. User reads start over on the version
// that replaced it; a migration gives the object up.
var errSuperseded = errors.New("engine: version superseded before the read pinned it")

// openObjectRange builds the stripe stream for stripes [start, end] and
// takes the first stripe before returning, so placement and
// availability errors surface at open rather than mid-stream. userRead
// selects client-read semantics: stripe-cache fill and a read
// statistics event when the stream completes.
//
// Every stream pins meta's version against the reaper until it is
// drained or closed. Pin first, then look at the row again: a version is
// retired only after the row that supersedes it has been stored and
// replicated, so if the row still names this UUID the pin precedes the
// retirement and the reaper will see it; if the row has moved, the pin
// may have come too late and the open fails with errSuperseded.
func (e *Engine) openObjectRange(ctx context.Context, meta ObjectMeta, start, end int, userRead bool) (*objectReader, error) {
	via, err := e.readViaOf(meta)
	if err != nil {
		return nil, err
	}
	obj := objectName(meta.Container, meta.Key)
	or := &objectReader{
		e: e, meta: meta, obj: obj, cacheID: stripeCacheID(obj, meta.UUID),
		userRead: userRead, start: start, end: end, pinned: true,
	}
	or.via.Store(via)
	e.b.reaper.pin(meta.UUID)
	if v, err := e.liveRow(RowKey(meta.Container, meta.Key)); err != nil || v.UUID != meta.UUID {
		or.unpin()
		return nil, errSuperseded
	}
	// The first stripe is taken alone, inline on the caller's goroutine,
	// so a failing open has fetched one stripe, not PrefetchStripes more;
	// read-ahead starts once it is in hand.
	or.pipe = e.b.newStripePipe(ctx, &e.b.readBuf, 1, start, end+1,
		func(ctx context.Context, s int) (func() (stripeOut, error), error) {
			return func() (stripeOut, error) { return or.produce(ctx, s) }, nil
		})
	if err := or.advance(); err != nil {
		or.pipe.close()
		or.unpin()
		return nil, err
	}
	or.pipe.readAhead(e.b.cfg.PrefetchStripes)
	return or, nil
}

// produce yields one decoded stripe: stripe cache first, then the
// provider fetch. Only fetched stripes that passed their checksum are
// ever written back to the cache, so neither a read torn down mid-fetch
// nor a provider serving rotted bytes can poison it. A cache hit gives
// its budget slot back at once (its memory is the cache's, capped by
// the cache's own capacity); a fetched stripe carries the slot until
// its bytes drain. Safe for concurrent use across different stripes.
func (or *objectReader) produce(ctx context.Context, s int) (stripeOut, error) {
	e := or.e
	if data, ok := e.b.caches.GetStripe(e.dc, or.cacheID, s); ok {
		e.b.metrics.readCached.Inc()
		obs.TraceFrom(ctx).Count("stripes_cached", 1)
		return stripeOut{data: data, cached: true}, nil
	}
	via := or.via.Load()
	buf, _ := e.b.joinBufs.Get().([]byte)
	data, err := or.fetchVia(ctx, via, s, buf)
	if errors.Is(err, ErrNotEnoughChunks) {
		if moved := or.refresh(via); moved != via {
			data, err = or.fetchVia(ctx, moved, s, buf)
		}
	}
	if err != nil {
		return stripeOut{}, err
	}
	e.b.metrics.readFetched.Inc()
	obs.TraceFrom(ctx).Count("stripes_fetched", 1)
	if or.userRead {
		e.b.caches.PutStripe(e.dc, or.cacheID, s, data)
	}
	return stripeOut{data: data, slot: true}, nil
}

// fetchVia fetches stripe s through one chunk->provider map.
func (or *objectReader) fetchVia(ctx context.Context, via *readVia, s int, dst []byte) ([]byte, error) {
	if via.rankErr != nil {
		return nil, via.rankErr
	}
	data, _, _, err := or.e.fetch(ctx, via.layout, s, via.order, or.meta.M, dst)
	return data, err
}

// refresh is called by a stripe that came up short of m chunks through
// stale: providers ranked at open have gone, or a swap repair has moved
// chunks of the pinned version since. It returns what the stream reads
// through now — what a concurrent stripe already replaced stale with, or,
// while the live row still names the pinned version, that row's map
// ranked afresh; otherwise stale itself, and the shortage stands.
func (or *objectReader) refresh(stale *readVia) *readVia {
	if now := or.via.Load(); now != stale {
		return now
	}
	cur, err := or.e.rowMeta(RowKey(or.meta.Container, or.meta.Key))
	if err == nil && cur.UUID == or.meta.UUID {
		if fresh, err := or.e.readViaOf(cur); err == nil {
			or.via.CompareAndSwap(stale, fresh)
		}
	}
	return or.via.Load()
}

// stripeCacheID builds the stripe-cache identity of one object version.
func stripeCacheID(obj, uuid string) string { return obj + "\x00" + uuid }

// advance drops the drained stripe and takes the next one off the pipe.
// At the end of the range it logs the read and returns io.EOF.
func (or *objectReader) advance() error {
	or.releaseCur()
	s, out, err := or.pipe.take()
	if err == io.EOF {
		or.logRead()
		or.pipe.close()
		or.unpin()
		return io.EOF
	}
	if err != nil {
		return err
	}
	if s > or.start && or.pipe.depth > 1 {
		or.e.b.metrics.readPrefetched.Inc()
	}
	or.cur, or.curSlot = out.data, out.slot
	if out.slot {
		or.curBuf = out.data
	}
	or.fetched += int64(len(or.cur))
	return nil
}

// Read implements io.Reader.
func (or *objectReader) Read(p []byte) (int, error) {
	for len(or.cur) == 0 {
		if or.err == nil {
			or.err = or.advance()
		}
		if or.err != nil {
			return 0, or.err
		}
	}
	n := copy(p, or.cur)
	or.cur = or.cur[n:]
	if len(or.cur) == 0 {
		or.releaseCur()
	}
	return n, nil
}

// releaseCur returns the current stripe's read-budget slot once its
// bytes are gone (fully drained to the caller, or dropped at teardown),
// and with it the stripe's join buffer: a fetched stripe is the reader's
// alone — the stripe cache keeps a copy, Read copies out — so the next
// fetch may decode into it.
func (or *objectReader) releaseCur() {
	if or.curSlot {
		or.curSlot = false
		or.e.b.releaseBuf(&or.e.b.readBuf)
		or.e.b.joinBufs.Put(or.curBuf) //nolint:staticcheck // a slice header per stripe is noise next to the stripe
		or.curBuf = nil
	}
}

// Close implements io.Closer; further Reads fail. Closing cancels every
// in-flight chunk fetch and returns the budget slots of stripes fetched
// ahead. A stream closed before draining logs the bytes actually
// delivered, not the full size.
func (or *objectReader) Close() error {
	if or.err == nil {
		or.err = errors.New("engine: object stream closed")
	}
	or.cur = nil
	or.releaseCur()
	or.pipe.close()
	or.unpin()
	or.logRead()
	return nil
}

// unpin releases the stream's hold on its version, once: no fetch of the
// stream is in flight any more (the pipe is closed) and none will start.
func (or *objectReader) unpin() {
	if or.pinned {
		or.pinned = false
		or.e.b.reaper.unpin(or.meta.UUID)
	}
}

// logRead emits the read statistics event exactly once per user-facing
// stream, with the payload bytes that were actually delivered — an
// aborted download must not inflate the access statistics that drive
// placement.
func (or *objectReader) logRead() {
	if !or.userRead || or.logged {
		return
	}
	or.logged = true
	e, meta := or.e, or.meta
	e.agent.Log(stats.Event{
		Object: or.obj, Class: meta.Class,
		Kind: stats.EventRead, Bytes: or.fetched, StorageBytes: meta.Size,
		Period: e.b.clock.Period(),
	})
}

// rangeReader caps an objectReader at the requested byte length and
// tears the stream down as soon as the range is fully served, so the
// pipe does not keep fetching stripes nobody will read.
type rangeReader struct {
	or        *objectReader
	remaining int64
}

func (r *rangeReader) Read(p []byte) (int, error) {
	if r.remaining <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.remaining {
		p = p[:r.remaining]
	}
	n, err := r.or.Read(p)
	r.remaining -= int64(n)
	if r.remaining == 0 {
		// The undelivered tail of the last stripe must not count toward
		// the read statistics; Close below emits the event.
		r.or.fetched -= int64(len(r.or.cur))
		r.or.cur = nil
		r.or.Close() //nolint:errcheck
		if err == nil || errors.Is(err, io.EOF) {
			err = nil
		}
	}
	return n, err
}

func (r *rangeReader) Close() error { return r.or.Close() }
