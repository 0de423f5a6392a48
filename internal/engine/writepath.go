package engine

import (
	"bytes"
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
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
// WritePipelineDepth. The serial stage of stripe s reads its payload
// off the body, folds it into the body MD5 — the one pass that makes the
// ETag — erasure-codes it into n chunks (scratch drawn from the erasure
// pool) and takes the CRC-32C of the payload and of each chunk;
// the concurrent stage writes the n chunks to their providers, so
// provider round-trips of neighbouring stripes overlap with each other
// and with encoding. The body is consumed strictly in order, so it
// needs no seeking, and each in-flight stripe holds one slot of the
// MaxBufferBytes budget shared with the read path until its fan-out
// returns. After the last stripe lands the caller commits the object's
// metadata once — one commit per object, not per stripe.

// writeStripes streams the body r into the layout's stripes, returning
// the body's MD5 and leaving each stripe's integrity sums in l.sums. On any
// failure — a provider error, a short body, ctx cancellation — the
// pipe is drained and every chunk already written is rolled back, so
// the providers never keep a partial write.
func (e *Engine) writeStripes(ctx context.Context, l *stripeLayout, r io.Reader) (string, error) {
	bodySum := md5.New()
	l.sums = make([]StripeSum, l.stripes)
	var payload []byte // reused across stripes: encoding copies out of it
	p := e.b.newStripePipe(ctx, &e.b.writeBuf, e.b.cfg.WritePipelineDepth, 0, l.stripes,
		func(ctx context.Context, s int) (func() (stripeOut, error), error) {
			chunks, err := e.encodeStripe(ctx, l, s, r, &payload, bodySum)
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
		return "", err
	}
	e.b.metrics.writeStripes.Add(int64(l.stripes))
	return hex.EncodeToString(bodySum.Sum(nil)), nil
}

// encodeStripe reads stripe s's payload from r (into *payload, grown as
// needed), folds it into the body MD5, erasure-codes it with pooled
// scratch and records the CRC-32C of the payload and of every chunk —
// the sums of what is about to be stored, so a read can tell a rotten
// chunk from a good one before it decodes. The returned chunks must be
// handed back via erasure.ReleaseChunks once their fan-out completes.
func (e *Engine) encodeStripe(ctx context.Context, l *stripeLayout, s int, r io.Reader, payload *[]byte, bodySum hash.Hash) ([][]byte, error) {
	plen := l.stripeLen(s)
	if int64(cap(*payload)) < plen {
		*payload = make([]byte, plen)
	}
	buf := (*payload)[:plen]
	if _, err := io.ReadFull(r, buf); err != nil {
		// A short body is the caller's mistake; any other read error
		// (source-provider failure during migrate, client disconnect)
		// keeps its own identity for status mapping.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: body ended before the declared size", ErrInvalidArgument)
		}
		return nil, fmt.Errorf("engine: object body read: %w", err)
	}
	if _, ok := l.kept[s]; ok { // chunks and sums are cut from the bytes the caches get
		buf = bytes.Clone(buf)
		l.kept[s] = buf
	}
	tr := obs.TraceFrom(ctx)
	start := time.Now()
	bodySum.Write(buf)
	hashing := time.Since(start)
	start = time.Now()
	chunks, err := l.coder.EncodePooled(buf)
	if err != nil {
		return nil, err
	}
	e.b.observeStage(tr, "encode", start)
	start = time.Now()
	sum := StripeSum{Payload: crc32c.Checksum(buf), Chunks: make([]uint32, len(chunks))}
	for i, chunk := range chunks {
		sum.Chunks[i] = crc32c.Checksum(chunk)
	}
	l.sums[s] = sum
	e.b.observeStageFor(tr, "hash", hashing+time.Since(start))
	return chunks, nil
}
