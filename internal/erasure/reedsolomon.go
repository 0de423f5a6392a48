package erasure

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
)

// Coder is a systematic (m,n) Reed–Solomon erasure coder: Encode splits
// data into m data chunks and n-m parity chunks; any m of the n chunks
// reconstruct the data. The rate r = m/n is the storage efficiency and the
// space overhead factor is 1/r, matching the paper's §II-A definitions.
//
// A Coder is immutable after construction and safe for concurrent use.
type Coder struct {
	m, n int
	// enc is the n x m systematic generator matrix: the top m rows are the
	// identity, so the first m chunks are the raw data stripes.
	enc matrix
}

// Common parameter errors.
var (
	ErrInvalidParams = errors.New("erasure: require 1 <= m <= n <= 256")
	ErrTooFewChunks  = errors.New("erasure: fewer than m chunks available")
	ErrChunkCount    = errors.New("erasure: wrong number of chunks")
	ErrChunkSize     = errors.New("erasure: chunks have inconsistent sizes")
	ErrShortData     = errors.New("erasure: data shorter than declared size")
)

// New returns an (m,n) coder. m is the reconstruction threshold (the
// paper's m / Algorithm 2 output); n is the total number of chunks, one
// per selected provider.
func New(m, n int) (*Coder, error) {
	if m < 1 || n < m || n > fieldSize {
		return nil, fmt.Errorf("%w: m=%d n=%d", ErrInvalidParams, m, n)
	}
	// Build the systematic generator: take the n x m Vandermonde matrix and
	// normalize its top m x m block to the identity by multiplying with the
	// block's inverse. Every m-row subset of the result stays invertible.
	v := vandermonde(n, m)
	top := v.subMatrix(0, 0, m, m)
	topInv, err := top.invert()
	if err != nil {
		// Vandermonde top blocks are always invertible; this is unreachable
		// for valid parameters.
		return nil, err
	}
	return &Coder{m: m, n: n, enc: v.mul(topInv)}, nil
}

// M returns the reconstruction threshold.
func (c *Coder) M() int { return c.m }

// N returns the total chunk count.
func (c *Coder) N() int { return c.n }

// Rate returns the code rate m/n.
func (c *Coder) Rate() float64 { return float64(c.m) / float64(c.n) }

// ChunkSize returns the nominal per-chunk size for an object of dataLen
// bytes: ceil(dataLen/m). Note ChunkSize(0) == 0, but Encode never
// emits empty chunks — zero-length objects are encoded as one zero
// byte per chunk so providers never store empty blobs. Metadata and
// chunk-key accounting that needs the size of the chunks actually
// written must use EncodedChunkSize.
func (c *Coder) ChunkSize(dataLen int) int {
	return (dataLen + c.m - 1) / c.m
}

// EncodedChunkSize returns the size of the chunks Encode actually
// produces for an object of dataLen bytes: max(1, ChunkSize(dataLen)).
// This makes the zero-length-object invariant explicit at the API:
// an empty object still occupies n chunks of one zero byte each, and
// Decode(chunks, 0) returns the empty object regardless.
func (c *Coder) EncodedChunkSize(dataLen int) int {
	if dataLen == 0 {
		return 1
	}
	return c.ChunkSize(dataLen)
}

// Encode splits data into n chunks of equal size ceil(len(data)/m).
// The data is padded with zeros to a multiple of the chunk size; callers
// must remember the original length (Scalia stores it in object metadata)
// and pass it to Decode.
func (c *Coder) Encode(data []byte) ([][]byte, error) {
	return c.encode(data, nil, nil)
}

// encode is the shared core of Encode and EncodePooled: backing and
// chunks are reused when their capacity suffices (their contents may be
// arbitrary — every byte of the output is written below) and replaced
// with fresh allocations otherwise.
func (c *Coder) encode(data, backing []byte, chunks [][]byte) ([][]byte, error) {
	size := c.EncodedChunkSize(len(data))
	if need := c.n * size; cap(backing) < need {
		backing = make([]byte, need)
	} else {
		backing = backing[:need]
	}
	if cap(chunks) < c.n {
		chunks = make([][]byte, c.n)
	} else {
		chunks = chunks[:c.n]
	}
	for i := range chunks {
		chunks[i] = backing[i*size : (i+1)*size]
	}
	// Data stripes: rows 0..m-1 are plain copies (systematic code). The
	// tail past len(data) is the zero padding — cleared explicitly since
	// pooled backing arrives dirty.
	for i := 0; i < c.m; i++ {
		var n int
		if lo := i * size; lo < len(data) {
			hi := lo + size
			if hi > len(data) {
				hi = len(data)
			}
			n = copy(chunks[i], data[lo:hi])
		}
		clear(chunks[i][n:])
	}
	// Parity stripes: rows m..n-1 are linear combinations of the data
	// rows, computed with the table-driven kernels and fanned out
	// across cores for large stripes (each worker does all parity rows
	// for its span, so data spans are read while cache-hot). The first
	// term assigns rather than accumulates, so parity rows of dirty
	// pooled backing need no pre-zeroing either.
	jb := getJobs()
	parity := *jb
	for r := c.m; r < c.n; r++ {
		parity = append(parity, rsJob{row: c.enc.row(r), in: chunks[:c.m], out: chunks[r]})
	}
	runJobs(parity, size)
	*jb = parity
	putJobs(jb)
	return chunks, nil
}

// Reconstruct fills in missing (nil) chunks in place. chunks must have
// length n; at least m entries must be non-nil and of equal size.
func (c *Coder) Reconstruct(chunks [][]byte) error { return c.reconstruct(chunks, c.n) }

// reconstruct fills in the missing chunks among slots [0, upto): all of
// them for Reconstruct, the m data chunks for Decode — a read has no use
// for the parity it did not fetch.
func (c *Coder) reconstruct(chunks [][]byte, upto int) error {
	if len(chunks) != c.n {
		return fmt.Errorf("%w: got %d want %d", ErrChunkCount, len(chunks), c.n)
	}
	size := -1
	present := 0
	for _, ch := range chunks {
		if ch == nil {
			continue
		}
		present++
		if size < 0 {
			size = len(ch)
		} else if len(ch) != size {
			return ErrChunkSize
		}
	}
	if present < c.m {
		return fmt.Errorf("%w: have %d need %d", ErrTooFewChunks, present, c.m)
	}
	missing := 0
	for _, ch := range chunks[:upto] {
		if ch == nil {
			missing++
		}
	}
	if missing == 0 {
		return nil
	}
	// One backing allocation serves every missing chunk. It is a plain
	// allocation, not pooled scratch: ownership of the reconstructed
	// chunks passes to the caller through the chunks slice, so the
	// memory can never be recycled from here.
	backing := make([]byte, missing*size)
	nextOut := func() []byte {
		out := backing[:size:size]
		backing = backing[size:]
		return out
	}

	// Fast path: all m data chunks survived (parity-only loss). The
	// decode sub-matrix would be the identity — generator rows 0..m-1
	// are the identity block of the systematic code — so skip the
	// O(m^3) inversion and regenerate parity straight from the data.
	dataIntact := true
	for i := 0; i < c.m; i++ {
		if chunks[i] == nil {
			dataIntact = false
			break
		}
	}
	sc := reconScratchPool.Get().(*reconScratch)
	defer sc.release()
	if !dataIntact {
		// Build the m x m decode matrix from the generator rows of m
		// surviving chunks, invert it, and recover the data stripes.
		if cap(sc.matData) < c.m*c.m {
			sc.matData = make([]byte, c.m*c.m)
		}
		sub := matrix{rows: c.m, cols: c.m, data: sc.matData[:c.m*c.m]}
		if cap(sc.chunkRefs) < c.m {
			sc.chunkRefs = make([][]byte, c.m)
		}
		subChunks := sc.chunkRefs[:c.m]
		got := 0
		for i := 0; i < c.n && got < c.m; i++ {
			if chunks[i] != nil {
				copy(sub.row(got), c.enc.row(i))
				subChunks[got] = chunks[i]
				got++
			}
		}
		dec, err := sub.invert()
		if err != nil {
			return err
		}
		jobs := sc.jobs[:0]
		for i := 0; i < c.m; i++ {
			if chunks[i] == nil {
				jobs = append(jobs, rsJob{row: dec.row(i), in: subChunks, out: nextOut()})
			}
		}
		runJobs(jobs, size)
		ji := 0
		for i := 0; i < c.m; i++ {
			if chunks[i] == nil {
				chunks[i] = jobs[ji].out
				ji++
			}
		}
		sc.jobs, sc.chunkRefs = jobs, subChunks
	}
	// Regenerate any missing parity stripes from the (now complete)
	// data stripes.
	jobs := sc.jobs[:0]
	for r := c.m; r < upto; r++ {
		if chunks[r] == nil {
			jobs = append(jobs, rsJob{row: c.enc.row(r), in: chunks[:c.m], out: nextOut()})
		}
	}
	runJobs(jobs, size)
	ji := 0
	for r := c.m; r < upto; r++ {
		if chunks[r] == nil {
			chunks[r] = jobs[ji].out
			ji++
		}
	}
	sc.jobs = jobs
	return nil
}

// Decode reconstructs missing data chunks if needed and reassembles the
// original object of length size. Missing parity chunks stay nil.
func (c *Coder) Decode(chunks [][]byte, size int) ([]byte, error) {
	return c.DecodeInto(nil, chunks, size)
}

// DecodeInto is Decode with the object reassembled into dst's backing
// array when it has the capacity for size bytes (a fresh buffer
// otherwise), so a caller that reads stripe after stripe can recycle one
// join buffer. The returned slice does not alias any chunk.
func (c *Coder) DecodeInto(dst []byte, chunks [][]byte, size int) ([]byte, error) {
	if err := c.reconstruct(chunks, c.m); err != nil {
		return nil, err
	}
	chunkSize := len(chunks[0])
	if c.m*chunkSize < size {
		return nil, fmt.Errorf("%w: chunks hold %d bytes, need %d",
			ErrShortData, c.m*chunkSize, size)
	}
	if cap(dst) < size {
		dst = make([]byte, size)
	}
	out := dst[:size]
	done := 0
	for i := 0; i < c.m && done < size; i++ {
		done += copy(out[done:], chunks[i])
	}
	return out, nil
}

// Verify checks that the parity chunks are consistent with the data
// chunks. All n chunks must be present.
func (c *Coder) Verify(chunks [][]byte) (bool, error) {
	if len(chunks) != c.n {
		return false, fmt.Errorf("%w: got %d want %d", ErrChunkCount, len(chunks), c.n)
	}
	size := len(chunks[0])
	for _, ch := range chunks {
		if ch == nil {
			return false, ErrTooFewChunks
		}
		if len(ch) != size {
			return false, ErrChunkSize
		}
	}
	// Each span worker recomputes every parity row for its span into a
	// pooled scratch buffer (the first kernel term assigns, so the
	// recycled buffer needs no clearing) and compares against the
	// stored parity. A mismatch flips the shared verdict and later
	// spans short-circuit; workers already running finish their row.
	var bad atomic.Bool
	forEachSpan(size, func(lo, hi int) {
		if bad.Load() {
			return
		}
		buf := getScratch(hi - lo)
		defer putScratch(buf)
		for r := c.m; r < c.n; r++ {
			kernRow(c.enc.row(r), chunks[:c.m], lo, hi, *buf)
			if !bytes.Equal(*buf, chunks[r][lo:hi]) {
				bad.Store(true)
				return
			}
		}
	})
	return !bad.Load(), nil
}
