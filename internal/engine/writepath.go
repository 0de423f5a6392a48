package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"scalia/internal/crc32c"
	"scalia/internal/erasure"
	"scalia/internal/obs"
)

// This file is the streaming write path — readpath.go's mirror image
// over the same stripe engine (stripe.go). PUT, multipart part staging
// and migration all write a body through writeStripes.
//
// The stripes of a body run through a stripePipe of depth
// WritePipelineDepth: up to that many are in flight at once, each holding
// one slot of the MaxBufferBytes budget shared with the read path. The
// serial stage of stripe s is what must happen in body order before its
// chunks can be sent: it reads the stripe off the body in pieces straight
// into its m data chunks — the code is systematic, so they are the
// payload and nothing is copied — and while each piece is still in cache
// extends its chunk's CRC-32C over it and folds it into the parity, in
// scratch drawn from the erasure pool (erasure.EncodeFill). So each
// stripe byte is handled once, right after the read delivers it, and the
// stripe's integrity record is complete when the serial stage ends (see
// stripeSum). The concurrent stage is the stripe's n chunk writes alone.
// No stripe waits for another's: nothing is computed over the body as a
// whole — the ETag is the draft's token, not a digest of the bytes.
// Provider round-trips of neighbouring stripes thus overlap each other and
// the reads and folds of the stripes behind them. A stripe's chunks go
// back to the pool, and its slot to the budget, once its writes are done.
// The body is consumed strictly in order, so it needs no seeking. After
// the last stripe lands the caller commits the object's metadata once —
// one commit per object, not per stripe.

// writeStripes streams the body r into the layout's stripes, leaving each
// stripe's integrity sums in l.sums. On any failure — a provider error, a
// short body, ctx cancellation — the pipe is drained and every chunk
// already written is rolled back, so the providers never keep a partial
// write.
func (e *Engine) writeStripes(ctx context.Context, l *stripeLayout, r io.Reader) error {
	l.sums = make([]StripeSum, l.stripes)
	p := e.b.newStripePipe(ctx, &e.b.writeBuf, e.b.cfg.WritePipelineDepth, 0, l.stripes,
		func(ctx context.Context, s int) (func() (stripeOut, error), error) {
			chunks, err := e.encodeStripe(ctx, l, s, r)
			if err != nil {
				return nil, err
			}
			return func() (stripeOut, error) {
				err := e.writeChunks(ctx, l, s, chunks, l.all)
				erasure.ReleaseChunks(chunks)
				return stripeOut{}, err
			}, nil
		})
	if err := p.drain(); err != nil {
		e.discard(l, p.next, l.all)
		return err
	}
	e.b.metrics.writeStripes.Add(int64(l.stripes))
	return nil
}

// encodeStripe is stripe s's serial stage: it reads the stripe's payload
// off r straight into its data chunks, drawn from the erasure pool, and
// after each piece extends that chunk's payload CRC (heads) over it; the
// coder folds the piece into the parity as the read returns. It records
// the stripe's sums in l.sums[s] and returns the chunks, which must be
// handed back via erasure.ReleaseChunks once the stripe's writes are
// done. A stripe a cache holds of the version being replaced is cloned
// here for l.kept: the write path's one copy, and only with caches on.
// The hash stage is the time spent on the sums and the encode stage the
// time spent folding; the body read is in neither.
func (e *Engine) encodeStripe(ctx context.Context, l *stripeLayout, s int, r io.Reader) ([][]byte, error) {
	size := int(l.stripeLen(s))
	c := l.coder.EncodedChunkSize(size)
	heads := make([]uint32, l.coder.M())
	var hashing, folding time.Duration
	last := time.Now() // when the coder got control back: it folds until the next fill
	chunks, err := l.coder.EncodeFill(size, func(off int, piece []byte) (int, error) {
		start := time.Now()
		folding += start.Sub(last)
		if _, err := io.ReadFull(r, piece); err != nil {
			// A short body is the caller's mistake; any other read error
			// (source-provider failure during migrate, client disconnect)
			// keeps its own identity for status mapping.
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return 0, fmt.Errorf("%w: body ended before the declared size", ErrInvalidArgument)
			}
			return 0, fmt.Errorf("engine: object body read: %w", err)
		}
		start = time.Now()
		for p, at := piece, off; len(p) > 0; { // a piece may span a chunk boundary
			i := at / c
			k := min(len(p), (i+1)*c-at)
			heads[i] = crc32c.Update(heads[i], p[:k])
			p, at = p[k:], at+k
		}
		last = time.Now()
		hashing += last.Sub(start)
		return len(piece), nil
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	folding += start.Sub(last)
	l.sums[s] = stripeSum(l.coder, chunks, heads, size)
	tr := obs.TraceFrom(ctx)
	e.b.observeStageFor(tr, "hash", hashing+time.Since(start))
	e.b.observeStageFor(tr, "encode", folding)
	if _, ok := l.kept[s]; ok {
		l.kept[s] = bytes.Clone(chunks[0][:size]) // the data chunks lie back to back
	}
	return chunks, nil
}
