package erasure

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestEncodePooledMatchesEncode drives the pooled encoder through
// several rounds of differently-sized payloads (so recycled backing is
// both grown and reused dirty) and checks every round decodes and
// verifies exactly like the allocating path.
func TestEncodePooledMatchesEncode(t *testing.T) {
	c, err := New(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{0, 1, 100, 1 << 10, 17, 1 << 10, 3}
	for round, size := range sizes {
		data := bytes.Repeat([]byte{byte(round + 1)}, size)
		want, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.EncodePooled(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d chunks, want %d", round, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("round %d: chunk %d differs from allocating Encode", round, i)
			}
		}
		if ok, err := c.Verify(got); err != nil || !ok {
			t.Fatalf("round %d: pooled parity inconsistent (ok=%v err=%v)", round, ok, err)
		}
		// Drop two chunks and decode to prove padding of recycled
		// buffers was re-zeroed (garbage padding would corrupt parity
		// math on reconstruction paths).
		got[0], got[4] = nil, nil
		back, err := c.Decode(got, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round %d: decode mismatch after pooled encode", round)
		}
		ReleaseChunks(got)
	}
}

// soil leaves the pool holding a chunk set of at least bytes, every byte
// dirt, so the next pooled encode lands on dirty backing.
func soil(t testing.TB, c *Coder, bytes int, dirt byte) {
	t.Helper()
	soiled, err := c.EncodePooled(make([]byte, bytes))
	if err != nil {
		t.Fatal(err)
	}
	backing := soiled[0][:cap(soiled[0])]
	for i := range backing {
		backing[i] = dirt
	}
	ReleaseChunks(soiled)
}

// fillFrom returns an EncodeFill fill that copies data in, each call
// writing at most the next of cuts' lengths (cycling; a cut of 0 writes
// the whole piece), and checks that the pieces come in order, inside the
// payload and no longer than fillPiece.
func fillFrom(t testing.TB, data []byte, cuts []int) func(off int, piece []byte) (int, error) {
	next, calls := 0, 0
	return func(off int, piece []byte) (int, error) {
		if off != next || len(piece) == 0 || len(piece) > fillPiece || off+len(piece) > len(data) {
			t.Fatalf("fill handed %d bytes at %d after %d of %d were written", len(piece), off, next, len(data))
		}
		n := len(piece)
		if len(cuts) > 0 {
			if cut := cuts[calls%len(cuts)]; cut > 0 {
				n = min(n, cut)
			}
		}
		calls++
		next += copy(piece[:n], data[off:])
		return n, nil
	}
}

// checkRef fails unless chunks are exactly what the scalar reference
// encoder cuts from data.
func checkRef(t testing.TB, c *Coder, data []byte, chunks [][]byte, what string) {
	t.Helper()
	want := c.encodeRef(data)
	if len(chunks) != len(want) {
		t.Fatalf("(%d, %d), %d bytes, %s: %d chunks, want %d", c.m, c.n, len(data), what, len(chunks), len(want))
	}
	for i := range want {
		if !bytes.Equal(chunks[i], want[i]) {
			t.Fatalf("(%d, %d), %d bytes, %s: chunk %d differs from encodeRef", c.m, c.n, len(data), what, i)
		}
	}
}

// FuzzEncodeFill holds EncodeFill to the scalar reference encoder: for
// (m, n) up to (16, 24) — the XOR codes the fill folds, and codes with
// parity rows that are not all ones, computed after the fill — a payload
// written in pieces cut at random, down to one byte, lands on a pool left
// soiled with dirt, and every chunk must equal encodeRef's. A fill that
// fails gets its error back and no chunks.
func FuzzEncodeFill(f *testing.F) {
	// Seeds: (1+m%16, 1+m%16+parity%9); dataLen 0, 1, inside chunk 1,
	// exact multiples; pieces whole, of one byte and at random.
	f.Add(uint8(3), uint8(1), []byte{}, byte(0x5a), uint64(0), false)                    // (4, 5), empty
	f.Add(uint8(1), uint8(1), []byte{9}, byte(0x5a), uint64(1), false)                   // (2, 3), 1 byte: all of it chunk 0's
	f.Add(uint8(1), uint8(2), []byte("1234567"), byte(0xff), uint64(2), false)           // (2, 4), c = 4: chunk 1 one short
	f.Add(uint8(0), uint8(2), []byte("scalia"), byte(1), uint64(3), false)               // (1, 3): replicas
	f.Add(uint8(3), uint8(4), []byte("exactly four chunks."), byte(3), uint64(5), false) // (4, 8), c = 5
	f.Add(uint8(7), uint8(4), bytes.Repeat([]byte("0123456789abcdef"), 8), byte(0xee), uint64(6), false)
	f.Add(uint8(4), uint8(7), bytes.Repeat([]byte{1, 2, 3}, 40), byte(0x11), uint64(7), false) // (5, 12)
	f.Add(uint8(2), uint8(2), bytes.Repeat([]byte{7}, 1000), byte(1), uint64(9), false)
	f.Add(uint8(1), uint8(1), []byte("short"), byte(0xa5), uint64(10), true)
	f.Add(uint8(11), uint8(1), bytes.Repeat([]byte{5, 6, 7}, 101), byte(0x3c), uint64(13), false) // (12, 13)
	f.Add(uint8(15), uint8(8), bytes.Repeat([]byte{9, 8}, 160), byte(0xc3), uint64(14), false)    // (16, 24)
	f.Fuzz(func(t *testing.T, m, parity uint8, data []byte, dirt byte, seed uint64, fail bool) {
		mm := 1 + int(m%16)
		c, err := Cached(mm, mm+int(parity%9))
		if err != nil {
			t.Fatal(err)
		}
		soil(t, c, 2*len(data)+c.m, dirt)
		// Cut the pieces at random lengths from seed: whole pieces, one
		// byte at a time, or up to 1, 2, ... 2^k bytes at a time.
		rng := rand.New(rand.NewSource(int64(seed)))
		cuts := make([]int, 1+rng.Intn(8))
		for i := range cuts {
			switch seed % 4 {
			case 0:
				cuts[i] = 0
			case 1:
				cuts[i] = 1
			default:
				cuts[i] = 1 + rng.Intn(1<<rng.Intn(10))
			}
		}
		fill := fillFrom(t, data, cuts)
		errFill := errors.New("body ended")
		got, err := c.EncodeFill(len(data), func(off int, piece []byte) (int, error) {
			if fail && off+len(piece) > len(data)/2 {
				return 0, errFill
			}
			return fill(off, piece)
		})
		if fail && len(data) > 0 {
			if err != errFill || got != nil {
				t.Fatalf("failed fill: EncodeFill = %d chunks, %v; want none, the fill's error", len(got), err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		checkRef(t, c, data, got, fmt.Sprintf("cuts %v", cuts))
		ReleaseChunks(got)
	})
}

// TestEncodeFillSpansPieces runs EncodeFill over payloads of many
// pieces: folded XOR codes, from replicas to (16, 17), and codes computed
// after the fill, up to (16, 24), at sizes around the chunk and piece
// geometry, filled whole and in uneven cuts, each on a soiled pool.
func TestEncodeFillSpansPieces(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, code := range [][2]int{{1, 3}, {2, 3}, {4, 5}, {16, 17}, {3, 6}, {8, 12}, {12, 20}, {16, 24}} {
		c, err := Cached(code[0], code[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{fillPiece - 1, fillPiece + 1, 3*fillPiece + 7} {
			data := make([]byte, size)
			rng.Read(data)
			for _, cuts := range [][]int{nil, {fillPiece - 3, 1, 1000}} {
				soil(t, c, size+c.m, byte(size))
				got, err := c.EncodeFill(size, fillFrom(t, data, cuts))
				if err != nil {
					t.Fatal(err)
				}
				checkRef(t, c, data, got, fmt.Sprintf("cuts %v", cuts))
				ReleaseChunks(got)
			}
		}
	}
}

// raceEnabled is set by race_test.go under -race, whose sync.Pool drops
// items at random: an allocation count means nothing there.
var raceEnabled bool

// TestVerifyAllocatesNothing pins that coding a 4 MiB stripe touches the
// allocator nowhere once the pools are warm: Verify recomputes parity
// into one pooled buffer, and the pooled encode keeps its job list on
// the stack — at single parity, at the broker's (4, 5) and at four
// parity rows, where the 4x4 micro-kernel runs.
func TestVerifyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i * 13)
	}
	for _, mn := range [][2]int{{1, 2}, {4, 5}, {4, 8}} {
		c, err := Cached(mn[0], mn[1])
		if err != nil {
			t.Fatal(err)
		}
		chunks, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		verify := func() {
			if ok, err := c.Verify(chunks); err != nil || !ok {
				t.Fatalf("(%d,%d): Verify = %v, %v", c.m, c.n, ok, err)
			}
		}
		if a := testing.AllocsPerRun(5, verify); a != 0 {
			t.Errorf("(%d,%d): %v allocs per Verify, want 0", c.m, c.n, a)
		}
		encode := func() {
			got, err := c.EncodePooled(data)
			if err != nil {
				t.Fatal(err)
			}
			ReleaseChunks(got)
		}
		if a := testing.AllocsPerRun(5, encode); a != 0 {
			t.Errorf("(%d,%d): %v allocs per EncodePooled, want 0", c.m, c.n, a)
		}
	}
}

// BenchmarkEncodePooled measures the steady-state pooled encode; the
// interesting number is allocs/op, which should be zero.
func BenchmarkEncodePooled(b *testing.B) {
	c, err := New(4, 5)
	if err != nil {
		b.Fatal(err)
	}
	data := bytes.Repeat([]byte("s"), 1<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunks, err := c.EncodePooled(data)
		if err != nil {
			b.Fatal(err)
		}
		ReleaseChunks(chunks)
	}
}

// TestReconstructPooledOnDirtyScratch runs the pooled rebuild
// over rounds of differently-sized stripes and erasure sets, releasing
// each round's scratch so the next one lands on recycled, dirty memory,
// and checks every rebuilt chunk against the encoded one. Nothing missing
// among the slots asked for lends no scratch; once the pool is warm a
// rebuild of lost parity allocates nothing (a lost data chunk still
// costs the decode matrix's few small allocations).
func TestReconstructPooledOnDirtyScratch(t *testing.T) {
	c, err := New(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for round, tc := range []struct {
		size       int
		have, want []int
	}{
		{1 << 12, []int{0, 1, 4}, []int{2, 3}},
		{17, []int{1, 2, 3}, []int{0}},
		{1 << 12, []int{0, 2, 3}, []int{1, 4}},
		{3000, []int{0, 1, 2}, []int{3}},
		{0, []int{2, 3, 4}, []int{0, 1}},
	} {
		data := bytes.Repeat([]byte{byte(round + 1), byte(round * 7)}, tc.size/2+1)[:tc.size]
		full, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		chunks := make([][]byte, c.n)
		for _, i := range tc.have {
			chunks[i] = full[i]
		}
		scratch, err := c.ReconstructPooled(chunks, tc.want)
		if err != nil || scratch == nil {
			t.Fatalf("round %d: scratch %v, %v", round, scratch, err)
		}
		for _, i := range tc.want {
			if !bytes.Equal(chunks[i], full[i]) {
				t.Fatalf("round %d: rebuilt slot %d differs from the encoded chunk", round, i)
			}
		}
		for i := range chunks {
			if chunks[i] != nil && !slices.Contains(tc.have, i) && !slices.Contains(tc.want, i) {
				t.Fatalf("round %d: slot %d was not asked for and was produced", round, i)
			}
		}
		if again, err := c.ReconstructPooled(chunks, tc.want); err != nil || again != nil {
			t.Fatalf("round %d: a rebuild with nothing missing lent %v, %v", round, again, err)
		}
		ReleaseScratch(scratch)
	}
	if raceEnabled {
		return // sync.Pool drops items at random under -race
	}
	full, _ := c.Encode(make([]byte, 1<<16))
	chunks := make([][]byte, c.n)
	rebuild := func() {
		copy(chunks, full)
		chunks[3], chunks[4] = nil, nil
		scratch, err := c.ReconstructPooled(chunks, []int{3, 4})
		if err != nil {
			t.Fatal(err)
		}
		ReleaseScratch(scratch)
	}
	if a := testing.AllocsPerRun(20, rebuild); a != 0 {
		t.Errorf("%v allocs per warm ReconstructPooled, want 0", a)
	}
}
