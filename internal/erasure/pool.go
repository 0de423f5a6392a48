package erasure

import "sync"

// Scratch pooling for the coding paths. Every encoded stripe needs an
// n-chunk backing array plus the chunk-slice header; Verify needs a
// parity-recompute buffer; a rebuild needs a decode-matrix
// workspace. At production stripe sizes the allocator — not the Galois
// arithmetic — shows up first in BrokerPut's allocs/op, so all of that
// is recycled here. The pools store pointer boxes and every Get/Put
// cycle reuses the same box, so the steady-state pooled encode path
// performs zero heap allocations. Buffers of mixed deployments
// converge to the largest stripe in use, which is bounded by the
// deployment's configured stripe size.

// encodeScratch carries one pooled encode buffer set: the chunk
// backing array and the chunk-slice headers.
type encodeScratch struct {
	backing []byte
	chunks  [][]byte
}

var (
	// encScratchPool holds filled encodeScratch boxes (buffers attached);
	// shellPool holds empty boxes. EncodeFill moves a box from the
	// first to the second, ReleaseChunks moves it back — boxes circulate
	// and are never re-allocated in steady state.
	encScratchPool = sync.Pool{New: func() any { return new(encodeScratch) }}
	shellPool      = sync.Pool{New: func() any { return new(encodeScratch) }}

	// scratchPool recycles chunk-sized work buffers: Verify's parity
	// recompute and ReconstructPooled's rebuilt chunks. Get and Put
	// exchange the same *[]byte box.
	scratchPool = sync.Pool{New: func() any { b := []byte(nil); return &b }}

	// reconScratchPool recycles a rebuild's decode-matrix workspace.
	reconScratchPool = sync.Pool{New: func() any { return &reconScratch{} }}
)

// EncodeFill is the pooled encode of a dataLen-byte payload that is
// written straight into its chunks: the n chunks and their backing are
// drawn from an internal pool instead of the garbage collector, and the
// code is systematic, so the m data chunks are the payload and no copy
// is made. EncodeFill hands fill the payload piece by piece, in order —
// off is the piece's offset in the payload, and a piece may span a chunk
// boundary. fill writes a non-empty prefix of the piece and returns its
// length, or fails; a failure hands the chunks back and is returned as
// is. fill may read its prefix too (the write path takes its CRC-32C
// there), while it is still in cache. For a code whose parity is the XOR
// of the data chunks — every (1, n) and (m, m+1) code — each prefix is
// folded into the parity right after fill returns, so a stripe's bytes
// are read once; any other code's parity is computed once the payload is
// in. The padding is cleared at the end.
//
// The caller owns every returned chunk until it hands the whole slice
// back via ReleaseChunks; after that the memory is recycled, so nothing
// may read or keep a chunk past the release. The write path releases a
// stripe's chunks once its writes are done, which is safe only because a
// backend keeps no reference to the bytes once Put returns — `cloud`'s
// PutCopiesIn conformance row.
func (c *Coder) EncodeFill(dataLen int, fill func(off int, piece []byte) (int, error)) ([][]byte, error) {
	sc := encScratchPool.Get().(*encodeScratch)
	chunks := c.cut(dataLen, sc.backing, sc.chunks)
	sc.backing, sc.chunks = nil, nil
	shellPool.Put(sc)
	if err := c.encodeFill(dataLen, chunks, fill); err != nil {
		ReleaseChunks(chunks)
		return nil, err
	}
	return chunks, nil
}

// EncodePooled is EncodeFill with data copied in; the same ownership
// rules apply.
func (c *Coder) EncodePooled(data []byte) ([][]byte, error) {
	return c.EncodeFill(len(data), func(off int, piece []byte) (int, error) {
		return copy(piece, data[off:]), nil
	})
}

// ReleaseChunks returns a chunk set obtained from EncodeFill or
// EncodePooled to the pool. The chunks share one backing array whose
// full capacity is reachable through chunk 0, so the set is recycled
// wholesale.
func ReleaseChunks(chunks [][]byte) {
	if len(chunks) == 0 {
		return
	}
	sc := shellPool.Get().(*encodeScratch)
	sc.backing = chunks[0][:0]
	for i := range chunks {
		chunks[i] = nil
	}
	sc.chunks = chunks[:0]
	encScratchPool.Put(sc)
}

// getScratch returns a pooled buffer of length n. Contents are dirty:
// callers must fully overwrite (the kernels' assign-first convention
// makes that free). The buffer must not escape the call; hand the box
// back with putScratch.
func getScratch(n int) *[]byte {
	bp := scratchPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putScratch(bp *[]byte) { scratchPool.Put(bp) }

// ReleaseScratch hands the scratch of a ReconstructPooled back to the
// pool; nil (nothing was rebuilt) is a no-op. Like ReleaseChunks after
// EncodeFill, it ends the loan: the chunks cut from it must not be read
// after. A swap repair releases once its writes have returned — safe
// because a backend keeps no reference to the bytes once Put returns
// (`cloud`'s PutCopiesIn conformance row) — and a read once the stripe's
// bytes have drained to the client.
func ReleaseScratch(scratch *[]byte) {
	if scratch != nil {
		putScratch(scratch)
	}
}

// reconScratch is a rebuild's per-call workspace: the decode
// sub-matrix backing, the surviving-chunk references, and the kernel
// job list. Pooling it keeps the slow path's fixed overhead off the
// allocator. The reconstructed chunks are handed to the caller: in a
// fresh allocation it keeps (Decode), or in scratchPool memory it lends
// back (ReconstructPooled).
type reconScratch struct {
	matData   []byte
	chunkRefs [][]byte
	jobs      []rsJob
}

// release drops chunk references (so the pool never pins stripe
// buffers) and returns the scratch to the pool.
func (sc *reconScratch) release() {
	for i := range sc.chunkRefs {
		sc.chunkRefs[i] = nil
	}
	for i := range sc.jobs {
		sc.jobs[i] = rsJob{}
	}
	sc.jobs = sc.jobs[:0]
	reconScratchPool.Put(sc)
}
