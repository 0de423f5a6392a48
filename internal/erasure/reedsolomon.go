package erasure

import (
	"bytes"
	"crypto/subtle"
	"errors"
	"fmt"
	"slices"
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
	// slots is 0..n-1; cut at m, it is what Decode rebuilds.
	slots []int
}

// rsJob is one output row of a matrix-vector product: out = sum_k
// row[k] * in[k], assigned (not accumulated) on the first term so dirty
// output buffers need no pre-zeroing.
type rsJob struct {
	row []byte   // coefficients, one per input
	in  [][]byte // source chunks, len(row) of them
	out []byte
}

// Common parameter errors.
var (
	ErrInvalidParams = errors.New("erasure: require 1 <= m <= n <= 256")
	ErrTooFewChunks  = errors.New("erasure: fewer than m chunks available")
	ErrChunkCount    = errors.New("erasure: wrong number of chunks")
	ErrChunkSize     = errors.New("erasure: chunks have inconsistent sizes")
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
	enc := v.mul(topInv)
	// Normalize the parity block so its first row is all ones: column j
	// of rows m..n-1 is scaled by 1/enc[m][j]. An entry of an MDS parity
	// block is never zero, and scaling a column scales every square
	// sub-determinant that holds it by a non-zero factor, so any m rows
	// still invert. Single parity — and the decode of a stripe that lost
	// one data chunk and holds row m — is then a plain XOR (kernRow).
	if n > m {
		for j := 0; j < m; j++ {
			inv := gfInv(enc.at(m, j))
			for r := m; r < n; r++ {
				enc.set(r, j, gfMul(enc.at(r, j), inv))
			}
		}
	}
	slots := make([]int, n)
	for i := range slots {
		slots[i] = i
	}
	return &Coder{m: m, n: n, enc: enc, slots: slots}, nil
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
// and pass it to Decode. Its parity is computed over the whole buffer by
// the kernels reconstruct uses, never folded in as EncodeFill does, so
// the write path's tests have an independent reference.
func (c *Coder) Encode(data []byte) ([][]byte, error) {
	chunks := c.cut(len(data), nil, nil)
	backing := chunks[0][:c.m*len(chunks[0])]
	clear(backing[copy(backing, data):])
	c.parity(chunks)
	return chunks, nil
}

// XORParity reports whether chunk i is a parity chunk that is the plain
// XOR of the data chunks — its generator row is all ones: row m of every
// code New builds, and every parity row of a (1, n) code, whose chunks
// are replicas.
func (c *Coder) XORParity(i int) bool { return i >= c.m && allOnes(c.enc.row(i)) }

// cut cuts n chunks for a dataLen-byte payload out of backing and chunks
// — reused when their capacity suffices (their contents may be arbitrary:
// the encoders write every byte) and replaced with fresh allocations
// otherwise. The chunks lie back to back in backing, so the m data chunks
// span its first m·size bytes; the code is systematic, so they are the
// payload.
func (c *Coder) cut(dataLen int, backing []byte, chunks [][]byte) [][]byte {
	size := c.EncodedChunkSize(dataLen)
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
	return chunks
}

// parity computes parity rows m..n-1 in place from the data chunks with
// the table-driven kernels. The first term assigns rather than
// accumulates, so parity rows of dirty pooled backing need no
// pre-zeroing. The job list lives on the stack; a code with more than
// eight parity rows spills it to the heap.
func (c *Coder) parity(chunks [][]byte) {
	var stack [8]rsJob
	parity := stack[:0]
	for r := c.m; r < c.n; r++ {
		parity = append(parity, rsJob{row: c.enc.row(r), in: chunks[:c.m], out: chunks[r]})
	}
	runJobs(parity)
}

// fillPiece is the most EncodeFill hands fill at once: small enough to
// stay in a core's L2 cache while it is read in, summed by the caller and
// folded into the parity, and large enough that reading a body off a
// socket takes few system calls: an 8 MiB PUT over loopback read in
// 128 KiB pieces spent more time receiving than the smaller pieces saved.
const fillPiece = 512 << 10

// encodeFill is EncodeFill's core over chunks cut for dataLen bytes. It
// hands fill successive pieces of the payload — at most fillPiece bytes,
// cut wherever the payload is, chunk boundaries included — and clears
// the data padding once the payload is in. When every parity row is all
// ones — a (1, n) code's replicas, an (m, m+1) code's single parity — it
// folds each prefix fill reports into the parity while it is still in
// cache. Any other code's parity is computed after the fill, where the
// table kernels fuse four rows per pass over the data; folded piece by
// piece, each row would pay for its own pass.
func (c *Coder) encodeFill(dataLen int, chunks [][]byte, fill func(off int, piece []byte) (int, error)) error {
	size := len(chunks[0])
	data := chunks[0][:dataLen:dataLen]
	p1 := min(max(dataLen-size, 0), size) // chunk 1's payload
	xor := true
	for r := c.m; r < c.n; r++ {
		xor = xor && c.XORParity(r)
	}
	for off := 0; off < dataLen; {
		n, err := fill(off, data[off:min(off+fillPiece, dataLen)])
		if err != nil {
			return err
		}
		if xor {
			c.fold(chunks, off, off+n, p1)
		}
		off += n
	}
	clear(chunks[0][dataLen : c.m*size])
	if !xor {
		c.parity(chunks)
		return nil
	}
	for _, out := range chunks[c.m:] {
		clear(out[min(dataLen, size):])
	}
	return nil
}

// fold folds payload bytes [from, to), just written, into every parity
// chunk, each the XOR of the data chunks; p1 is how much payload chunk 1
// holds. Chunk 0 enters together with chunk 1, as the two-input XOR — the
// assignment that needs no cleared parity and no copy pass — so its bytes
// below p1 wait for chunk 1's, and only those past p1, which no later
// chunk meets, are copied alone. Chunks 2 and up accumulate.
func (c *Coder) fold(chunks [][]byte, from, to, p1 int) {
	size := len(chunks[0])
	for from < to {
		k, a := from/size, from%size
		b := min(size, a+to-from)
		from += b - a
		if k == 0 {
			a = max(a, p1)
		}
		for _, out := range chunks[c.m:] {
			switch {
			case a >= b:
			case k == 0:
				copy(out[a:b], chunks[0][a:b])
			case k == 1:
				subtle.XORBytes(out[a:b], chunks[0][a:b], chunks[1][a:b])
			default:
				subtle.XORBytes(out[a:b], out[a:b], chunks[k][a:b])
			}
		}
	}
}

// ReconstructPooled fills in, in place, the missing (nil) chunks among
// slots: a nil chunk outside slots stays nil — a swap repair has no use
// for the chunks it does not rewrite. chunks must have length n; at least
// m entries must be non-nil and of equal size. The rebuilt chunks are cut
// from pooled scratch, which it returns (nil when nothing was missing
// among slots). The caller owns the rebuilt chunks until it hands scratch
// back via ReleaseScratch; after that the memory is recycled, so nothing
// may read or keep them past the release. Scratch never handed back is
// left to the garbage collector.
func (c *Coder) ReconstructPooled(chunks [][]byte, slots []int) (scratch *[]byte, err error) {
	return c.reconstruct(chunks, slots, true)
}

// reconstruct fills in the missing chunks among slots, each in one
// kernel pass over the first m chunks present. One backing serves every
// missing chunk: pooled scratch, returned, when pooled is set; otherwise a
// plain allocation whose ownership passes to the caller through chunks.
func (c *Coder) reconstruct(chunks [][]byte, slots []int, pooled bool) (*[]byte, error) {
	if len(chunks) != c.n {
		return nil, fmt.Errorf("%w: got %d want %d", ErrChunkCount, len(chunks), c.n)
	}
	for _, i := range slots {
		if i < 0 || i >= c.n {
			return nil, fmt.Errorf("%w: slot %d of %d", ErrChunkCount, i, c.n)
		}
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
			return nil, ErrChunkSize
		}
	}
	if present < c.m {
		return nil, fmt.Errorf("%w: have %d need %d", ErrTooFewChunks, present, c.m)
	}
	if !slices.ContainsFunc(slots, func(i int) bool { return chunks[i] == nil }) {
		return nil, nil
	}
	sc := reconScratchPool.Get().(*reconScratch)
	defer sc.release()
	jobs, err := c.decodeJobs(chunks, slots, sc)
	if err != nil {
		return nil, err
	}
	// The kernels assign their first term, so pooled scratch needs no
	// clearing.
	var scratch *[]byte
	var backing []byte
	if pooled {
		scratch = getScratch(len(jobs) * size)
		backing = *scratch
	} else {
		backing = make([]byte, len(jobs)*size)
	}
	for j := range jobs {
		jobs[j].out = backing[j*size : (j+1)*size : (j+1)*size]
	}
	runJobs(jobs)
	j := 0
	for _, i := range slots {
		if chunks[i] == nil {
			chunks[i] = jobs[j].out
			j++
		}
	}
	return scratch, nil
}

// decodeJobs returns one job per missing chunk among slots, in slots'
// order and with out unset: the coefficient row that yields the chunk
// from the first m chunks present — its generator row times the inverted
// decode matrix (for a data slot, whose generator row is a unit vector,
// that is a row of the inverse), so a wanted parity chunk never waits
// for data chunks nobody asked for.
func (c *Coder) decodeJobs(chunks [][]byte, slots []int, sc *reconScratch) ([]rsJob, error) {
	// All m data chunks survived (parity-only loss): the decode matrix
	// would be the identity block of the systematic code, so skip the
	// O(m^3) inversion and use the generator rows as they are.
	in := chunks[:c.m]
	dataIntact := !slices.ContainsFunc(in, func(ch []byte) bool { return ch == nil })
	var dec matrix
	if !dataIntact {
		if cap(sc.chunkRefs) < c.m {
			sc.chunkRefs = make([][]byte, c.m)
		}
		in = sc.chunkRefs[:c.m]
		if cap(sc.matData) < c.m*c.m {
			sc.matData = make([]byte, c.m*c.m)
		}
		sub := matrix{rows: c.m, cols: c.m, data: sc.matData[:c.m*c.m]}
		got := 0
		for i := 0; i < c.n && got < c.m; i++ {
			if chunks[i] != nil {
				copy(sub.row(got), c.enc.row(i))
				in[got] = chunks[i]
				got++
			}
		}
		var err error
		if dec, err = sub.invert(); err != nil {
			return nil, err
		}
	}
	jobs := sc.jobs[:0]
	for _, i := range slots {
		if chunks[i] != nil {
			continue
		}
		row := c.enc.row(i)
		if !dataIntact {
			row = matrix{rows: 1, cols: c.m, data: row}.mul(dec).data
		}
		jobs = append(jobs, rsJob{row: row, in: in})
	}
	sc.jobs = jobs
	return jobs, nil
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
	if _, err := c.reconstruct(chunks, c.slots[:c.m], false); err != nil {
		return nil, err
	}
	chunkSize := len(chunks[0])
	if c.m*chunkSize < size {
		return nil, fmt.Errorf("erasure: chunks hold %d bytes, need %d", c.m*chunkSize, size)
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
	// Each parity row is recomputed into one pooled scratch buffer (the
	// first kernel term assigns, so the recycled buffer needs no
	// clearing) and compared with the stored row; the first mismatch
	// decides.
	buf := getScratch(size)
	defer putScratch(buf)
	for r := c.m; r < c.n; r++ {
		kernRow(c.enc.row(r), chunks[:c.m], *buf)
		if !bytes.Equal(*buf, chunks[r]) {
			return false, nil
		}
	}
	return true, nil
}
