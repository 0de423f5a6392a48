package erasure

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGaloisFieldAxioms(t *testing.T) {
	// Multiplicative identity and inverse for all non-zero elements.
	for a := 1; a < 256; a++ {
		b := byte(a)
		if got := gfMul(b, 1); got != b {
			t.Fatalf("gfMul(%d,1) = %d, want %d", b, got, b)
		}
		inv := gfInv(b)
		if got := gfMul(b, inv); got != 1 {
			t.Fatalf("gfMul(%d, inv) = %d, want 1", b, got)
		}
	}
	if gfMul(0, 77) != 0 || gfMul(77, 0) != 0 {
		t.Fatal("multiplication by zero must be zero")
	}
}

func TestGaloisMulCommutativeAssociative(t *testing.T) {
	f := func(a, b, c byte) bool {
		if gfMul(a, b) != gfMul(b, a) {
			return false
		}
		return gfMul(gfMul(a, b), c) == gfMul(a, gfMul(b, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGaloisDistributive(t *testing.T) {
	f := func(a, b, c byte) bool {
		return gfMul(a, gfAdd(b, c)) == gfAdd(gfMul(a, b), gfMul(a, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGaloisDivInvertsMul(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return gfDiv(gfMul(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGaloisExp(t *testing.T) {
	for a := 0; a < 256; a++ {
		want := byte(1)
		for p := 0; p < 10; p++ {
			if got := gfExp(byte(a), p); got != want {
				t.Fatalf("gfExp(%d,%d) = %d, want %d", a, p, got, want)
			}
			want = gfMul(want, byte(a))
		}
	}
}

func TestMatrixIdentityInvert(t *testing.T) {
	id := identityMatrix(5)
	inv, err := id.invert()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inv.data, id.data) {
		t.Fatal("inverse of identity must be identity")
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		m := newMatrix(n, n)
		for i := range m.data {
			m.data[i] = byte(rng.Intn(256))
		}
		inv, err := m.invert()
		if err != nil {
			continue // singular random matrix; skip
		}
		prod := m.mul(inv)
		if !bytes.Equal(prod.data, identityMatrix(n).data) {
			t.Fatalf("trial %d: m * m^-1 != I", trial)
		}
	}
}

func TestMatrixSingular(t *testing.T) {
	m := newMatrix(2, 2)
	m.set(0, 0, 3)
	m.set(0, 1, 5)
	m.set(1, 0, 3)
	m.set(1, 1, 5)
	if _, err := m.invert(); err == nil {
		t.Fatal("expected singular matrix error")
	}
}

func TestNewParamValidation(t *testing.T) {
	cases := []struct{ m, n int }{{0, 4}, {5, 4}, {-1, 3}, {1, 257}}
	for _, c := range cases {
		if _, err := New(c.m, c.n); err == nil {
			t.Errorf("New(%d,%d): expected error", c.m, c.n)
		}
	}
	for _, c := range []struct{ m, n int }{{1, 1}, {1, 2}, {3, 4}, {4, 5}, {10, 14}} {
		if _, err := New(c.m, c.n); err != nil {
			t.Errorf("New(%d,%d): unexpected error %v", c.m, c.n, err)
		}
	}
}

func TestEncodeSystematic(t *testing.T) {
	c, err := New(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, scalia world of chunks!")
	chunks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 5 {
		t.Fatalf("got %d chunks, want 5", len(chunks))
	}
	// Systematic property: concatenating the first m chunks re-yields data.
	var cat []byte
	for i := 0; i < 3; i++ {
		cat = append(cat, chunks[i]...)
	}
	if !bytes.Equal(cat[:len(data)], data) {
		t.Fatal("first m chunks must contain the raw data")
	}
}

func TestEncodeDecodeAllErasurePatterns(t *testing.T) {
	c, err := New(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 1000)
	rng.Read(data)
	orig, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Erase every possible pair of chunks (n-m = 2 tolerated failures).
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			chunks := make([][]byte, 5)
			for k := range chunks {
				if k != i && k != j {
					cp := make([]byte, len(orig[k]))
					copy(cp, orig[k])
					chunks[k] = cp
				}
			}
			got, err := c.Decode(chunks, len(data))
			if err != nil {
				t.Fatalf("erase (%d,%d): %v", i, j, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("erase (%d,%d): decoded data mismatch", i, j)
			}
		}
	}
}

func TestReconstructRestoresParity(t *testing.T) {
	c, _ := New(2, 4)
	data := []byte("parity regeneration test payload")
	orig, _ := c.Encode(data)
	chunks := make([][]byte, 4)
	chunks[0] = append([]byte(nil), orig[0]...)
	chunks[1] = append([]byte(nil), orig[1]...)
	if err := reconstruct(t, c, chunks); err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if !bytes.Equal(chunks[i], orig[i]) {
			t.Fatalf("chunk %d mismatch after reconstruct", i)
		}
	}
	ok, err := c.Verify(chunks)
	if err != nil || !ok {
		t.Fatalf("Verify = %v, %v; want true, nil", ok, err)
	}
}

func TestReconstructTooFew(t *testing.T) {
	c, _ := New(3, 5)
	data := make([]byte, 100)
	orig, _ := c.Encode(data)
	chunks := make([][]byte, 5)
	chunks[0] = orig[0]
	chunks[4] = orig[4]
	if err := reconstruct(t, c, chunks); err == nil {
		t.Fatal("expected ErrTooFewChunks")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	c, _ := New(3, 6)
	data := []byte("integrity matters in multi-cloud storage")
	chunks, _ := c.Encode(data)
	ok, err := c.Verify(chunks)
	if err != nil || !ok {
		t.Fatalf("clean Verify = %v, %v", ok, err)
	}
	chunks[4][0] ^= 0xff
	ok, err = c.Verify(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Verify must detect a corrupted parity chunk")
	}
}

func TestZeroLengthObject(t *testing.T) {
	c, _ := New(2, 3)
	chunks, err := c.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(chunks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes, want 0", len(got))
	}
}

func TestMirroringM1(t *testing.T) {
	// RAID-1 equivalent: (m=1, n=3) — every chunk is a full replica.
	c, _ := New(1, 3)
	data := []byte("replica")
	chunks, _ := c.Encode(data)
	for i, ch := range chunks {
		if !bytes.Equal(ch[:len(data)], data) {
			t.Fatalf("chunk %d is not a full replica", i)
		}
	}
}

func TestRaid5Shape(t *testing.T) {
	// RAID-5 as described in §II-A: (m=k, n=k+1), k >= 3.
	for k := 3; k <= 6; k++ {
		c, err := New(k, k+1)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 501)
		for i := range data {
			data[i] = byte(i * 31)
		}
		chunks, _ := c.Encode(data)
		chunks[k/2] = nil // lose one chunk
		got, err := c.Decode(chunks, len(data))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("k=%d: data mismatch", k)
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	// Property: for random data, parameters, and erasure patterns within
	// tolerance, Decode(Encode(data)) == data.
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(6)
		n := m + r.Intn(5)
		c, err := New(m, n)
		if err != nil {
			return false
		}
		data := make([]byte, 1+r.Intn(2048))
		r.Read(data)
		chunks, err := c.Encode(data)
		if err != nil {
			return false
		}
		// Erase up to n-m random chunks.
		erasures := r.Intn(n - m + 1)
		perm := r.Perm(n)
		for i := 0; i < erasures; i++ {
			chunks[perm[i]] = nil
		}
		got, err := c.Decode(chunks, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestChunkSize(t *testing.T) {
	c, _ := New(3, 5)
	cases := []struct{ data, want int }{
		{0, 0}, {1, 1}, {3, 1}, {4, 2}, {300, 100}, {301, 101},
	}
	for _, tc := range cases {
		if got := c.ChunkSize(tc.data); got != tc.want {
			t.Errorf("ChunkSize(%d) = %d, want %d", tc.data, got, tc.want)
		}
	}
}

func TestRateOverhead(t *testing.T) {
	c, _ := New(3, 4)
	if c.Rate() != 0.75 {
		t.Errorf("Rate = %v, want 0.75", c.Rate())
	}
}

// reconstruct rebuilds the missing chunks among slots (every slot, when
// none are named) with ReconstructPooled, and hands the scratch back when
// the test ends: the rebuilt chunks stay readable until then.
func reconstruct(t testing.TB, c *Coder, chunks [][]byte, slots ...int) error {
	if slots == nil {
		slots = c.slots
	}
	scratch, err := c.ReconstructPooled(chunks, slots)
	t.Cleanup(func() { ReleaseScratch(scratch) })
	return err
}
