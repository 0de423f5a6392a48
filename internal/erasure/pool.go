package erasure

import "sync"

// Scratch pooling for the coding paths. Every encoded stripe needs an
// n-chunk backing array plus the chunk-slice header; Verify needs a
// parity-recompute buffer; Reconstruct needs a decode-matrix
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

	// scratchPool recycles chunk-sized work buffers (Verify's parity
	// recompute). Get and Put exchange the same *[]byte box.
	scratchPool = sync.Pool{New: func() any { b := []byte(nil); return &b }}

	// reconScratchPool recycles Reconstruct's decode-matrix workspace.
	reconScratchPool = sync.Pool{New: func() any { return &reconScratch{} }}
)

// EncodeFill is the pooled encode: the n chunks of a dataLen-byte payload
// and their backing are drawn from an internal pool instead of the
// garbage collector, and fill writes the payload straight into them. It
// is handed data, the dataLen bytes the m data chunks span — the code is
// systematic, so they are the payload and no copy is made — and must
// write all of it or fail; the padding after it and the parity are
// computed once it returns. A fill error hands the chunks back and is
// returned as is.
//
// The caller owns every returned chunk, and data with them, until it
// hands the whole slice back via ReleaseChunks; after that the memory is
// recycled, so nothing may read or keep a chunk past the release. The
// write path releases a stripe's chunks once its writes and its sums are
// both done, which is safe only because a backend keeps no reference to
// the bytes once Put returns — `cloud`'s PutCopiesIn conformance row.
func (c *Coder) EncodeFill(dataLen int, fill func(data []byte) error) ([][]byte, error) {
	sc := encScratchPool.Get().(*encodeScratch)
	chunks, err := c.encode(dataLen, sc.backing, sc.chunks, fill)
	sc.backing, sc.chunks = nil, nil
	shellPool.Put(sc)
	if err != nil {
		ReleaseChunks(chunks)
		return nil, err
	}
	return chunks, nil
}

// EncodePooled is EncodeFill with data copied in; the same ownership
// rules apply.
func (c *Coder) EncodePooled(data []byte) ([][]byte, error) {
	return c.EncodeFill(len(data), func(d []byte) error {
		copy(d, data)
		return nil
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

// reconScratch is Reconstruct's per-call workspace: the decode
// sub-matrix backing, the surviving-chunk references, and the kernel
// job list. Pooling it keeps the slow path's fixed overhead off the
// allocator; the reconstructed chunks themselves are NOT pooled — they
// are handed to the caller.
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
