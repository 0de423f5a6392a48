package erasure

// Scalar reference implementations retained in every build as the
// differential-test oracle for the table-driven production paths. They
// mirror the package's original textbook single-byte code exactly:
// sequential, log/exp multiplication, one allocation per chunk. Tests
// assert Encode/ReconstructPooled/Verify are byte-identical to these, which
// checks the table-driven kernels and the plumbing around them at once.

// encodeRef is the scalar reference Encode.
func (c *Coder) encodeRef(data []byte) [][]byte {
	size := c.EncodedChunkSize(len(data))
	chunks := make([][]byte, c.n)
	for i := range chunks {
		chunks[i] = make([]byte, size)
	}
	for i := 0; i < c.m; i++ {
		if lo := i * size; lo < len(data) {
			hi := min(lo+size, len(data))
			copy(chunks[i], data[lo:hi])
		}
	}
	for r := c.m; r < c.n; r++ {
		row := c.enc.row(r)
		mulSlice(row[0], chunks[0], chunks[r])
		for k := 1; k < c.m; k++ {
			mulAddSlice(row[k], chunks[k], chunks[r])
		}
	}
	return chunks
}

// reconstructRef is the scalar reference rebuild of every slot: always
// builds and inverts the decode matrix (no parity-only fast path),
// sequential.
func (c *Coder) reconstructRef(chunks [][]byte) error {
	if len(chunks) != c.n {
		return ErrChunkCount
	}
	size, present := -1, 0
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
		return ErrTooFewChunks
	}
	if present == c.n {
		return nil
	}
	sub := newMatrix(c.m, c.m)
	subChunks := make([][]byte, c.m)
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
	data := make([][]byte, c.m)
	for i := 0; i < c.m; i++ {
		if chunks[i] != nil {
			data[i] = chunks[i]
			continue
		}
		out := make([]byte, size)
		row := dec.row(i)
		for k := 0; k < c.m; k++ {
			mulAddSlice(row[k], subChunks[k], out)
		}
		data[i] = out
		chunks[i] = out
	}
	for r := c.m; r < c.n; r++ {
		if chunks[r] != nil {
			continue
		}
		out := make([]byte, size)
		row := c.enc.row(r)
		for k := 0; k < c.m; k++ {
			mulAddSlice(row[k], data[k], out)
		}
		chunks[r] = out
	}
	return nil
}
