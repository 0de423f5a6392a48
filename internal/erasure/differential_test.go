package erasure

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// TestDifferentialFuzzKernels drives the table-driven production paths
// against the retained scalar reference across random geometries (m in
// [1,16], n in [m,32]) and sizes — including 0, 1 and non-multiples of
// m — asserting byte-identical results for Encode, ReconstructPooled
// (random erasure patterns) and Verify (clean and with a corrupted byte).
func TestDifferentialFuzzKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	sizes := []int{0, 1, 2, 63, 64, 65, 1000, 4096, 12289}
	for trial := 0; trial < 250; trial++ {
		m := 1 + rng.Intn(16)
		n := m + rng.Intn(33-m)
		c, err := Cached(m, n)
		if err != nil {
			t.Fatalf("trial %d: Cached(%d,%d): %v", trial, m, n, err)
		}
		size := sizes[rng.Intn(len(sizes))]
		if rng.Intn(4) == 0 {
			size = rng.Intn(8 << 10)
		}
		data := make([]byte, size)
		rng.Read(data)

		want := c.encodeRef(data)
		got, err := c.Encode(data)
		if err != nil {
			t.Fatalf("trial %d (m=%d n=%d size=%d): Encode: %v", trial, m, n, size, err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("trial %d (m=%d n=%d size=%d): chunk %d differs from scalar reference",
					trial, m, n, size, i)
			}
		}

		// Random erasure pattern within tolerance, applied to two
		// copies: production ReconstructPooled vs the scalar reference.
		erase := rng.Intn(n - m + 1)
		perm := rng.Perm(n)
		prod := make([][]byte, n)
		ref := make([][]byte, n)
		for i := range got {
			prod[i] = append([]byte(nil), got[i]...)
			ref[i] = append([]byte(nil), want[i]...)
		}
		for i := 0; i < erase; i++ {
			prod[perm[i]], ref[perm[i]] = nil, nil
		}
		if err := reconstruct(t, c, prod); err != nil {
			t.Fatalf("trial %d: ReconstructPooled: %v", trial, err)
		}
		if err := c.reconstructRef(ref); err != nil {
			t.Fatalf("trial %d: reconstructRef: %v", trial, err)
		}
		for i := range prod {
			if !bytes.Equal(prod[i], ref[i]) {
				t.Fatalf("trial %d (m=%d n=%d size=%d erase=%d): reconstructed chunk %d differs from scalar reference",
					trial, m, n, size, erase, i)
			}
			if !bytes.Equal(prod[i], want[i]) {
				t.Fatalf("trial %d: reconstructed chunk %d differs from original", trial, i)
			}
		}

		if ok, err := c.Verify(prod); err != nil || !ok {
			t.Fatalf("trial %d: clean Verify = %v, %v", trial, ok, err)
		}
		back, err := c.Decode(prod, size)
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("trial %d: Decode mismatch (err=%v)", trial, err)
		}
		if size > 0 && n > m {
			chunkLen := len(prod[0])
			prod[rng.Intn(n)][rng.Intn(chunkLen)] ^= 1 + byte(rng.Intn(255))
			ok, err := c.Verify(prod)
			if err != nil {
				t.Fatalf("trial %d: corrupted Verify: %v", trial, err)
			}
			if ok {
				t.Fatalf("trial %d (m=%d n=%d size=%d): Verify missed a corrupted byte", trial, m, n, size)
			}
		}
	}
}

// TestReconstructParityOnlyFastPath pins the identity fast path: when
// every data chunk survives, ReconstructPooled regenerates parity without
// touching the decode-matrix machinery, and the regenerated parity is
// byte-identical to the scalar reference's inversion-based result.
func TestReconstructParityOnlyFastPath(t *testing.T) {
	c, err := New(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5000)
	rand.New(rand.NewSource(11)).Read(data)
	want := c.encodeRef(data)
	chunks := make([][]byte, c.n)
	for i := 0; i < c.m; i++ {
		chunks[i] = append([]byte(nil), want[i]...)
	}
	// All n-m parity chunks lost, all m data chunks intact.
	if err := reconstruct(t, c, chunks); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(chunks[i], want[i]) {
			t.Fatalf("chunk %d differs after parity-only reconstruct", i)
		}
	}
}

// TestZeroLengthInvariant makes the empty-object encoding contract
// explicit: ChunkSize(0) is 0 but Encode emits EncodedChunkSize(0) == 1
// byte per chunk, and the whole chunk set round-trips (including
// reconstruction) back to the empty object.
func TestZeroLengthInvariant(t *testing.T) {
	c, err := New(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ChunkSize(0); got != 0 {
		t.Fatalf("ChunkSize(0) = %d, want 0", got)
	}
	if got := c.EncodedChunkSize(0); got != 1 {
		t.Fatalf("EncodedChunkSize(0) = %d, want 1", got)
	}
	for _, dataLen := range []int{1, 3, 4, 300, 301} {
		if got, want := c.EncodedChunkSize(dataLen), c.ChunkSize(dataLen); got != want {
			t.Fatalf("EncodedChunkSize(%d) = %d, want ChunkSize = %d", dataLen, got, want)
		}
	}
	chunks, err := c.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range chunks {
		if len(ch) != 1 || ch[0] != 0 {
			t.Fatalf("chunk %d = %v, want one zero byte", i, ch)
		}
	}
	chunks[0], chunks[3] = nil, nil
	if err := reconstruct(t, c, chunks); err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(chunks, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("Decode = %d bytes, %v; want empty", len(got), err)
	}
}

// TestCoderCache checks identity, validation and the bounded epoch
// reset of the package-level coder cache.
func TestCoderCache(t *testing.T) {
	a, err := Cached(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cached(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Cached(4,8) must return the same coder")
	}
	if _, err := Cached(0, 4); err == nil {
		t.Fatal("Cached(0,4): expected ErrInvalidParams")
	}
	if _, err := Cached(5, 4); err == nil {
		t.Fatal("Cached(5,4): expected ErrInvalidParams")
	}
	// Walk more (m, n) pairs than the bound holds; the cache must stay
	// correct (and bounded) across the epoch reset.
	count := 0
	for m := 1; m <= 16 && count <= maxCachedCoders; m++ {
		for n := m; n <= m+20 && count <= maxCachedCoders; n++ {
			if _, err := Cached(m, n); err != nil {
				t.Fatalf("Cached(%d,%d): %v", m, n, err)
			}
			count++
		}
	}
	coderMu.RLock()
	size := len(coderCache)
	coderMu.RUnlock()
	if size > maxCachedCoders {
		t.Fatalf("cache grew to %d entries, bound is %d", size, maxCachedCoders)
	}
	c, err := Cached(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("post-eviction coders must still work")
	chunks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Decode(chunks, len(data)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-eviction round-trip failed: %v", err)
	}
}

// TestSharedCoderHammer runs the whole coding cycle — EncodeFill,
// ReconstructPooled, Verify, ReleaseScratch, ReleaseChunks — from eight goroutines that
// share Cached coders, on chunks from one byte to 1 MiB. The coder cache
// and the scratch pools are the package's only shared state; run with
// -race it proves them data-race free, and the byte checks prove no
// goroutine is handed a chunk set another still holds.
func TestSharedCoderHammer(t *testing.T) {
	const workers = 8
	chunkSizes := []int{1, 63, 4<<10 + 1, 64 << 10, 256<<10 + 3, 1 << 20}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := range chunkSizes {
				m := 1 + rng.Intn(4)
				n := m + 1 + rng.Intn(4)
				c, err := Cached(m, n)
				if err != nil {
					t.Errorf("Cached(%d,%d): %v", m, n, err)
					return
				}
				size := chunkSizes[(int(seed)+i)%len(chunkSizes)]
				data := make([]byte, m*size-rng.Intn(m))
				rng.Read(data)
				chunks, err := c.EncodeFill(len(data), func(off int, piece []byte) (int, error) {
					return copy(piece, data[off:]), nil
				})
				if err != nil {
					t.Errorf("EncodeFill: %v", err)
					return
				}
				damaged := make([][]byte, n)
				copy(damaged, chunks)
				lost := rng.Perm(n)[:n-m]
				for _, j := range lost {
					damaged[j] = nil
				}
				scratch, err := c.ReconstructPooled(damaged, lost)
				if err != nil {
					t.Errorf("ReconstructPooled: %v", err)
					return
				}
				for j := range chunks {
					if !bytes.Equal(damaged[j], chunks[j]) {
						t.Errorf("(%d,%d) chunk %d bytes: rebuilt slot %d differs from its encode", m, n, size, j)
						return
					}
				}
				if ok, err := c.Verify(damaged); err != nil || !ok {
					t.Errorf("(%d,%d) chunk %d bytes: Verify = %v, %v", m, n, size, ok, err)
					return
				}
				if got := bytes.Join(chunks[:m], nil)[:len(data)]; !bytes.Equal(got, data) {
					t.Errorf("(%d,%d) chunk %d bytes: data chunks differ from the payload", m, n, size)
					return
				}
				ReleaseScratch(scratch)
				ReleaseChunks(chunks)
			}
		}(int64(w + 1))
	}
	wg.Wait()
}

// TestDecodeIntoAllDataPresentAllocatesNothing pins the join the read
// path relies on: with every data chunk present (parity slots nil, the
// shape a healthy fetch hands over) and a dst of capacity, DecodeInto
// is m copies — no reconstruct, no scratch, no allocation. The mirror
// case, one data slot nil and a parity chunk in its place, returns the
// same bytes and pays at least the rebuilt chunk's allocation.
func TestDecodeIntoAllDataPresentAllocatesNothing(t *testing.T) {
	for _, mn := range [][2]int{{1, 2}, {3, 4}, {4, 5}} {
		c, err := New(mn[0], mn[1])
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 64<<10+7)
		rand.New(rand.NewSource(int64(c.n))).Read(data)
		full, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, len(data))
		chunks := make([][]byte, c.n)
		decode := func(lost int) func() {
			return func() {
				copy(chunks, full)
				for i := c.m; i < c.n; i++ {
					chunks[i] = nil
				}
				if lost >= 0 {
					chunks[lost], chunks[c.m] = nil, full[c.m]
				}
				got, err := c.DecodeInto(dst, chunks, len(data))
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("(%d,%d) lost %d: err %v, equal %v", c.m, c.n, lost, err, bytes.Equal(got, data))
				}
			}
		}
		if a := testing.AllocsPerRun(20, decode(-1)); a != 0 {
			t.Errorf("(%d,%d): all data present: %v allocs per DecodeInto, want 0", c.m, c.n, a)
		}
		if a := testing.AllocsPerRun(20, decode(0)); a < 1 {
			t.Errorf("(%d,%d): data slot 0 lost: %v allocs per DecodeInto, want >= 1 (the rebuilt chunk)", c.m, c.n, a)
		}
	}
}
