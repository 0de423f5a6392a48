package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

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
// chunks exist: it reads the stripe off the body straight into its m data
// chunks — the code is systematic, so they are the payload and nothing is
// copied — and computes the parity in place, in scratch drawn from the
// erasure pool. Everything else runs in the concurrent stage, beside the
// stripe's n chunk writes: the CRC-32C of every chunk and of the payload
// (composed from the data chunks' prefix CRCs, as fetch checks it). No
// stripe waits for another's: nothing is computed over the body as a
// whole — the ETag is the draft's token, not a digest of the bytes.
// Provider round-trips of neighbouring stripes thus overlap each other,
// the parity of the stripes behind them and the sums. A stripe's chunks
// go back to the pool, and its slot to the budget, once its writes and
// its sums are both done. The body is consumed strictly in order, so it
// needs no seeking. After the last stripe lands the caller commits the
// object's metadata once — one commit per object, not per stripe.

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
				err := e.writeChunks(ctx, l, s, chunks, l.all, func() {
					start := time.Now()
					l.sums[s] = sumStripe(chunks, l.coder.M(), int(l.stripeLen(s)))
					e.b.observeStage(obs.TraceFrom(ctx), "hash", start)
				})
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
// computes the parity. It returns the chunks, which must be handed back
// via erasure.ReleaseChunks once the stripe's writes and sums are done.
// A stripe a cache holds of the version being replaced is cloned here for
// l.kept: the write path's one copy, and only with caches on.
func (e *Engine) encodeStripe(ctx context.Context, l *stripeLayout, s int, r io.Reader) ([][]byte, error) {
	var filled time.Time
	chunks, err := l.coder.EncodeFill(int(l.stripeLen(s)), func(data []byte) error {
		if _, err := io.ReadFull(r, data); err != nil {
			// A short body is the caller's mistake; any other read error
			// (source-provider failure during migrate, client disconnect)
			// keeps its own identity for status mapping.
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return fmt.Errorf("%w: body ended before the declared size", ErrInvalidArgument)
			}
			return fmt.Errorf("engine: object body read: %w", err)
		}
		if _, ok := l.kept[s]; ok {
			l.kept[s] = bytes.Clone(data)
		}
		filled = time.Now()
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.b.observeStage(obs.TraceFrom(ctx), "encode", filled)
	return chunks, nil
}
