package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"scalia/internal/erasure"
	"scalia/internal/obs"
	"scalia/internal/stats"
)

// This file is the streaming read path: an object reader over the
// stripe cache and the stripe engine (stripe.go).
//
// A read of stripe s consults the stripe cache first — a hit costs no
// provider traffic at all — and otherwise fetches the stripe's m
// cheapest chunks that pass their sums, verifies the payload they hold,
// and (user-facing reads only) copies it into the cache. That per-stripe
// verification is the read's whole integrity check: it holds for ranged
// and multipart reads alike, and it runs before a stripe's first byte is
// handed out — no hash over the whole object follows it. The stream is a
// stripePipe of depth PrefetchStripes: while stripe s drains to the
// client, up to PrefetchStripes following stripes are fetched and decoded
// concurrently and handed over in order, so provider latency and decode
// cost overlap with client consumption. Cancelling the request context
// tears down every in-flight chunk fetch.
//
// Who owns a stripe's bytes (EXPERIMENTS.md "The read path" has the whole
// chain): provider chunks and cache hits are lent to the reader read-only
// and are never written by their owners again. A fetched stripe is its
// data chunks as they lie (fetch's segments), a cache hit one segment;
// each byte moves once, copied by Read, or handed to the caller's Writer
// as it lies by WriteTo.

// objectReader streams a byte range of a stored object, stripe by stripe.
type objectReader struct {
	e    *Engine
	meta ObjectMeta // the stored version's fields, its slices shared: read only
	obj  string
	// cacheID is the stripe-cache identity of this object VERSION:
	// objectName plus the version UUID. Versioned keys make the cache
	// immune to the invalidate-then-fill race — a slow reader of the
	// old version fills old-version keys, which a reader of the new
	// version can never hit. A commit hands a superseded version's
	// entries to its successor and retirement drops the rest; what a
	// slow reader fills later is never hit and ages out.
	cacheID string
	// via is where the stream fetches from. Outages come and go and a
	// swap repair moves chunks of the version read mid-stream, so a
	// stripe that comes up short replaces it from the live row (refresh)
	// while other stripes are being produced.
	via atomic.Pointer[readVia]
	// userRead marks a client-facing stream: it fills the stripe cache
	// and logs the read event on completion. Internal streams
	// (migration) do neither.
	userRead bool

	start int // first stripe of the range
	pipe  *stripePipe
	pin   uint64 // the reaper ticket holding obj's retired chunks; 0 for a window, which holds none

	cur        [][]byte // undelivered bytes of the current stripe, by segment; the first never empty
	curSlot    bool     // cur holds a stripe slot of the broker read budget
	curScratch *[]byte  // the memory cur's rebuilt chunks were lent, handed back with the slot
	tail       [1]byte  // where WriteTo keeps a stream's last byte once the slot is back
	left       int64    // bytes still due to the caller; the stream ends behind the last one
	fetched    int64    // payload bytes delivered so far
	err        error    // terminal state, set once by finish (io.EOF after full drain)
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
	via.order, via.rankErr = l.rank(nil)
	return via, nil
}

// openObject pins container/key's object against the reaper and reads its
// row once: the reader holds that one version, on which its caller decides
// everything (conditionals, ranges, headers) before begin streams any of
// it. It asks no provider. userRead selects client-read semantics:
// stripe-cache fill and a read statistics event when a begun stream ends.
//
// The pin comes before the row read: a version is retired only after the
// row that superseded it has been stored and replicated, so the version
// the read finds is retired, if at all, after the pin, and the reaper
// holds its chunks until the reader is closed. A swap is no different: it
// keeps the version and retires the copies it replaced once its row is
// stored.
func (e *Engine) openObject(ctx context.Context, container, key string, userRead bool) (*objectReader, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validContainer(container); err != nil {
		return nil, err
	}
	obj := objectName(container, key)
	pin := e.b.reaper.pin(obj)
	meta, err := e.rowMeta(RowKey(container, key))
	if err != nil {
		e.b.reaper.unpin(obj, pin)
		return nil, err
	}
	return &objectReader{e: e, meta: *meta, obj: obj, cacheID: meta.cacheID(), userRead: userRead, pin: pin}, nil
}

// begin starts the stream of [offset, offset+length) (length -1: to the
// end) over the stripes it lies in, and takes the first stripe before
// returning, so placement and availability errors surface here rather
// than mid-stream; ranged, an offset at or past the end is not
// satisfiable. A reader begins once; one whose begin failed is only
// closed.
func (or *objectReader) begin(ctx context.Context, offset, length int64, ranged bool) error {
	e, meta := or.e, or.meta
	if ranged && offset >= meta.Size {
		return fmt.Errorf("%w: offset %d of %d-byte object", ErrRangeNotSatisfiable, offset, meta.Size)
	}
	via, err := e.readViaOf(meta)
	if err != nil {
		return err
	}
	n, span := meta.Size-offset, meta.stripeSpan()
	if length >= 0 {
		n = min(n, length)
	}
	or.start, or.left = int(offset/span), n
	or.via.Store(via)
	// The first stripe is taken alone, inline on the caller's goroutine,
	// so a failing begin has fetched one stripe, not PrefetchStripes more;
	// read-ahead starts once it is in hand.
	or.pipe = e.b.newStripePipe(ctx, &e.b.readBuf, 1, or.start, int((offset+max(n, 1)-1)/span)+1,
		func(ctx context.Context, s int) (func() (stripeOut, error), error) {
			return func() (stripeOut, error) { return or.produce(ctx, s) }, nil
		})
	if err := or.advance(); err != nil {
		or.pipe.close()
		or.pipe = nil
		return err
	}
	or.drop(offset - int64(or.start)*span) // the first stripe's lead-in is not the caller's
	or.pipe.readAhead(e.b.cfg.PrefetchStripes)
	return nil
}

// window begins a stream of [offset, offset+length) of the version or
// holds, under or's pin: or must outlive it. A multi-range GET serves each
// of its parts through one, so all of them are bytes of one version.
func (or *objectReader) window(ctx context.Context, offset, length int64) (*objectReader, error) {
	w := &objectReader{e: or.e, meta: or.meta, obj: or.obj, cacheID: or.cacheID, userRead: or.userRead}
	if err := w.begin(ctx, offset, length, true); err != nil {
		return nil, err
	}
	return w, nil
}

// produce yields one verified stripe: stripe cache first, then the
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
		return stripeOut{segs: [][]byte{data}}, nil
	}
	via := or.via.Load()
	f, err := or.fetchVia(ctx, via, s)
	if errors.Is(err, ErrNotEnoughChunks) {
		if moved := or.refresh(via); moved != via {
			f, err = or.fetchVia(ctx, moved, s)
		}
	}
	if err != nil {
		return stripeOut{}, err
	}
	e.b.metrics.readFetched.Inc()
	obs.TraceFrom(ctx).Count("stripes_fetched", 1)
	if or.userRead {
		e.b.caches.PutStripe(e.dc, or.cacheID, s, f.segs...)
	}
	return stripeOut{segs: f.segs, slot: true, scratch: f.scratch}, nil
}

// fetchVia fetches stripe s through one chunk->provider map.
func (or *objectReader) fetchVia(ctx context.Context, via *readVia, s int) (fetched, error) {
	if via.rankErr != nil {
		return fetched{}, via.rankErr
	}
	return or.e.fetch(ctx, via.layout, s, via.order, or.meta.M, nil)
}

// refresh is called by a stripe that came up short of m chunks through
// stale: providers ranked at begin have gone, or a swap repair has moved
// chunks of the version read since. It returns what the stream reads
// through now — what a concurrent stripe already replaced stale with, or,
// while the live row still names the version read, that row's map
// ranked afresh; otherwise stale itself, and the shortage stands.
func (or *objectReader) refresh(stale *readVia) *readVia {
	if now := or.via.Load(); now != stale {
		return now
	}
	cur, err := or.e.rowMeta(RowKey(or.meta.Container, or.meta.Key))
	if err == nil && cur.UUID == or.meta.UUID {
		if fresh, err := or.e.readViaOf(*cur); err == nil {
			or.via.CompareAndSwap(stale, fresh)
		}
	}
	return or.via.Load()
}

// cacheID is the stripe-cache identity of the object version m.
func (m ObjectMeta) cacheID() string { return objectName(m.Container, m.Key) + "\x00" + m.UUID }

// advance drops the drained stripe and takes the next one off the pipe;
// io.EOF past the last.
func (or *objectReader) advance() error {
	or.releaseCur()
	s, out, err := or.pipe.take()
	if err != nil {
		return err
	}
	if s > or.start && or.pipe.depth > 1 {
		or.e.b.metrics.readPrefetched.Inc()
	}
	or.cur, or.curSlot, or.curScratch = out.segs, out.slot, out.scratch
	or.drop(0)
	return nil
}

// drop discards the first n bytes of the current stripe, and the empty
// segments behind them.
func (or *objectReader) drop(n int64) {
	for len(or.cur) > 0 && n >= int64(len(or.cur[0])) {
		n -= int64(len(or.cur[0]))
		or.cur = or.cur[1:]
	}
	if len(or.cur) > 0 {
		or.cur[0] = or.cur[0][n:]
	}
}

// pending returns the bytes of the current segment that are due to the
// caller — of the next stripe's first once the current one is drained —
// or the stream's terminal state.
func (or *objectReader) pending() ([]byte, error) {
	for len(or.cur) == 0 && or.err == nil {
		if err := or.advance(); err != nil {
			or.finish(err)
		}
	}
	if or.err != nil {
		return nil, or.err
	}
	return or.cur[0][:min(int64(len(or.cur[0])), or.left)], nil
}

// consume marks the first n pending bytes delivered. Behind the last byte
// due the stream is over: a ranged read stops fetching stripes nobody will
// read, and what is left of its last stripe never counts as read.
func (or *objectReader) consume(n int) {
	or.drop(int64(n))
	or.fetched += int64(n)
	if or.left -= int64(n); or.left == 0 {
		or.finish(io.EOF)
	} else if len(or.cur) == 0 {
		or.releaseCur()
	}
}

// Read implements io.Reader.
func (or *objectReader) Read(p []byte) (int, error) {
	pending, err := or.pending()
	if err != nil {
		return 0, err
	}
	n := copy(p, pending)
	or.consume(n)
	return n, nil
}

// maxWrite bounds one Write of WriteTo. A cached 256 KiB stripe still goes
// out whole; a 4 MiB stripe goes out in sixteen pieces, because a socket
// is locked for as long as one write copies into it and the peer's ACKs
// queue up behind the lock: with one 4 MiB Write per stripe, loopback TCP
// ran five times the SACK recoveries per run that it runs with 32 KiB or
// 256 KiB writes, at the same throughput; at 64 KiB the kernel's copy
// cost doubles (EXPERIMENTS.md, "Move each byte once", has the counters).
const maxWrite = 256 << 10

// WriteTo implements io.WriterTo, which io.Copy prefers to Read: each
// segment reaches w straight from where its bytes live, through no
// transfer buffer, in Writes of up to maxWrite. w must not keep the
// slice, as io.Writer says.
// Only the stream's last byte, when a fetched stripe holds it, is moved
// out (into tail) and gets a Write of its own, after the slot went back: a
// client that has the whole body — a test, the benchmark's resting-state
// check — finds the read budget settled, as it did when Read copied every
// stripe out ahead of its Write.
func (or *objectReader) WriteTo(w io.Writer) (total int64, err error) {
	for {
		pending, err := or.pending()
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return total, err
		}
		if or.curSlot && int64(len(pending)) == or.left && or.left > 1 {
			pending = pending[:or.left-1]
		}
		pending = pending[:min(len(pending), maxWrite)]
		n, err := w.Write(pending)
		or.consume(n)
		total += int64(n)
		if or.curSlot && or.left == 1 {
			or.tail[0] = or.cur[0][0]
			or.cur = or.cur[:1]
			or.cur[0] = or.tail[:]
			or.releaseCur()
		}
		if err == nil && n < len(pending) {
			err = io.ErrShortWrite
		}
		if err != nil {
			return total, err
		}
	}
}

// releaseCur returns the current stripe's read-budget slot once its
// bytes are gone (fully drained to the caller, or dropped at teardown),
// and with it the scratch its rebuilt chunks were lent. A cache hit holds
// neither.
func (or *objectReader) releaseCur() {
	if or.curSlot {
		or.curSlot = false
		erasure.ReleaseScratch(or.curScratch)
		or.curScratch = nil
		or.e.b.releaseBuf(&or.e.b.readBuf)
	}
}

// finish ends the stream in state err, once: it cancels every in-flight
// chunk fetch, returns the budget slots of the current stripe and of those
// fetched ahead, releases the pin the reader owns — no fetch is in flight
// any more and none will start — and, for a user-facing stream that
// began, emits the read statistics event with the payload bytes actually
// delivered: an aborted download must not inflate the access statistics
// that drive placement, and a HEAD, a 304 or a 416 read nothing.
func (or *objectReader) finish(err error) {
	if or.err != nil {
		return
	}
	or.err = err
	or.cur = nil
	or.releaseCur()
	began := or.pipe != nil
	if began {
		or.pipe.close()
	}
	e, meta := or.e, or.meta
	if or.pin != 0 {
		e.b.reaper.unpin(or.obj, or.pin)
	}
	if or.userRead && began {
		e.b.statsDB.Apply(stats.Event{
			Object: or.obj, Class: meta.Class,
			Kind: stats.EventRead, Bytes: or.fetched, StorageBytes: meta.Size,
			Period: e.b.clock.Period(),
		})
	}
}

// Close implements io.Closer; further Reads fail.
func (or *objectReader) Close() error {
	or.finish(errors.New("engine: object stream closed"))
	return nil
}
