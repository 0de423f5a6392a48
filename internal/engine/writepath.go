package engine

import (
	"bytes"
	"context"
	"crypto/md5"
	"encoding/hex"
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
// (composed from the data chunks' prefix CRCs, as fetch checks it), and
// the body MD5 — the one pass that makes the ETag — which stripe s folds
// in only once stripe s−1 has, so the hash sees the body in order.
// Provider round-trips of neighbouring stripes thus overlap each other,
// the parity of the stripes behind them and the hashing. A stripe's
// chunks go back to the pool, and its slot to the budget, once its writes
// and its hash are both done. The body is consumed strictly in order, so
// it needs no seeking. After the last stripe lands the caller commits the
// object's metadata once — one commit per object, not per stripe.

// writeStripes streams the body r into the layout's stripes, returning
// the body's MD5 and leaving each stripe's integrity sums in l.sums. On any
// failure — a provider error, a short body, ctx cancellation — the
// pipe is drained and every chunk already written is rolled back, so
// the providers never keep a partial write.
func (e *Engine) writeStripes(ctx context.Context, l *stripeLayout, r io.Reader) (string, error) {
	bodySum := md5.New()
	l.sums = make([]StripeSum, l.stripes)
	var hashed chan struct{} // closed once the last stripe staged is in bodySum; nil before stripe 0
	p := e.b.newStripePipe(ctx, &e.b.writeBuf, e.b.cfg.WritePipelineDepth, 0, l.stripes,
		func(ctx context.Context, s int) (func() (stripeOut, error), error) {
			chunks, payload, err := e.encodeStripe(ctx, l, s, r)
			if err != nil {
				return nil, err
			}
			prev, done := hashed, make(chan struct{})
			hashed = done
			return func() (stripeOut, error) {
				err := e.writeChunks(ctx, l, s, chunks, l.all, func() {
					start := time.Now()
					l.sums[s] = sumStripe(chunks, l.coder.M(), len(payload))
					spent := time.Since(start)
					if prev != nil {
						<-prev
					}
					start = time.Now()
					bodySum.Write(payload)
					close(done)
					e.b.observeStageFor(obs.TraceFrom(ctx), "hash", spent+time.Since(start))
				})
				erasure.ReleaseChunks(chunks)
				return stripeOut{}, err
			}, nil
		})
	if err := p.drain(); err != nil {
		e.discard(l, p.next, l.all)
		return "", err
	}
	e.b.metrics.writeStripes.Add(int64(l.stripes))
	return hex.EncodeToString(bodySum.Sum(nil)), nil
}

// encodeStripe is stripe s's serial stage: it reads the stripe's payload
// off r straight into its data chunks, drawn from the erasure pool, and
// computes the parity. It returns the chunks and the payload — the bytes
// of them the data chunks span, valid as long as the chunks are — which
// must be handed back via erasure.ReleaseChunks once the stripe's writes
// and hash are done. A stripe a cache holds of the version being replaced
// is cloned here for l.kept: the write path's one copy, and only with
// caches on.
func (e *Engine) encodeStripe(ctx context.Context, l *stripeLayout, s int, r io.Reader) (chunks [][]byte, payload []byte, err error) {
	var filled time.Time
	chunks, err = l.coder.EncodeFill(int(l.stripeLen(s)), func(data []byte) error {
		if _, err := io.ReadFull(r, data); err != nil {
			// A short body is the caller's mistake; any other read error
			// (source-provider failure during migrate, client disconnect)
			// keeps its own identity for status mapping.
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return fmt.Errorf("%w: body ended before the declared size", ErrInvalidArgument)
			}
			return fmt.Errorf("engine: object body read: %w", err)
		}
		payload, filled = data, time.Now()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	e.b.observeStage(obs.TraceFrom(ctx), "encode", filled)
	if _, ok := l.kept[s]; ok {
		l.kept[s] = bytes.Clone(payload)
	}
	return chunks, payload, nil
}
