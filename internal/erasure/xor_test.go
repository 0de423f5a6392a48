package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// subsets calls fn with every k-element subset of 0..n-1, ascending.
func subsets(n, k int, fn func(pick []int)) {
	pick := make([]int, 0, k)
	var rec func(from int)
	rec = func(from int) {
		if len(pick) == k {
			fn(pick)
			return
		}
		for i := from; i <= n-(k-len(pick)); i++ {
			pick = append(pick, i)
			rec(i + 1)
			pick = pick[:len(pick)-1]
		}
	}
	rec(0)
}

// TestGeneratorFirstParityRowIsOnes pins the normalisation New applies:
// generator row m is all ones for every code with parity, and the code
// is still MDS — for n <= 10, exhaustively, every m-row subset of the
// generator inverts and every erasure pattern of n-m chunks decodes.
func TestGeneratorFirstParityRowIsOnes(t *testing.T) {
	for n := 2; n <= 16; n++ {
		for m := 1; m < n; m++ {
			c, err := New(m, n)
			if err != nil {
				t.Fatal(err)
			}
			if row := c.enc.row(m); len(row) == 0 || !allOnes(row) {
				t.Errorf("(%d,%d): generator row m = %v, want all ones", m, n, row)
			}
			if n > 10 {
				continue
			}
			data := make([]byte, 7*m+3)
			rand.New(rand.NewSource(int64(100*m + n))).Read(data)
			full, err := c.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			subsets(n, m, func(keep []int) {
				sub := newMatrix(m, m)
				chunks := make([][]byte, n)
				for r, i := range keep {
					copy(sub.row(r), c.enc.row(i))
					chunks[i] = full[i]
				}
				if _, err := sub.invert(); err != nil {
					t.Fatalf("(%d,%d): generator rows %v: %v", m, n, keep, err)
				}
				got, err := c.Decode(chunks, len(data))
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("(%d,%d): decode from chunks %v: err %v, equal %v", m, n, keep, err, bytes.Equal(got, data))
				}
			})
		}
	}
}

// TestReplicationRowsAreOnes: at m = 1 every generator row is [1], so
// every chunk is the payload byte for byte — what lets a swap repair of
// an (1, n) object write the verified survivor itself as the
// replacement instead of rebuilding it.
func TestReplicationRowsAreOnes(t *testing.T) {
	for n := 1; n <= 16; n++ {
		c, err := New(1, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if row := c.enc.row(i); len(row) != 1 || row[0] != 1 {
				t.Errorf("(1,%d): generator row %d = %v, want [1]", n, i, row)
			}
		}
	}
}

// TestOnesRowMatchesScalarReference drives the all-ones route of kernRow
// — and encode, reconstruct and verify through it — against the scalar
// reference: 2 to 8 inputs, lengths on both sides of the block sizes,
// inputs sliced to start and end off any word or block boundary, and a
// dirty destination (the first term must assign).
func TestOnesRowMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for m := 2; m <= 8; m++ {
		c, err := New(m, m+1)
		if err != nil {
			t.Fatal(err)
		}
		ones := c.enc.row(m)
		big := 256<<10 + 3 // as one stripe; the full 4 MiB + 3 at the benchmark's width
		if m == 4 {
			big = 4<<20 + 3
		}
		for _, size := range []int{0, 1, 63, 64, 65, xorBlock - 1, xorBlock + 9, big/m + 1} {
			ins := make([][]byte, m)
			for k := range ins {
				ins[k] = make([]byte, size)
				rng.Read(ins[k])
			}
			for _, span := range [][2]int{{0, size}, {min(3, size), max(min(3, size), size-5)}} {
				lo, hi := span[0], span[1]
				sub := make([][]byte, m)
				want := make([]byte, hi-lo)
				for k := range ins {
					sub[k] = ins[k][lo:hi]
					mulAddSlice(1, sub[k], want)
				}
				got := bytes.Repeat([]byte{0xa5}, hi-lo+2)
				kernRow(ones, sub, got[1:1+hi-lo])
				if !bytes.Equal(got[1:1+hi-lo], want) {
					t.Fatalf("m=%d size=%d span [%d,%d): kernRow differs from the scalar sum", m, size, lo, hi)
				}
				if got[0] != 0xa5 || got[len(got)-1] != 0xa5 {
					t.Fatalf("m=%d size=%d span [%d,%d): kernRow wrote outside dst", m, size, lo, hi)
				}
			}

			// The same sizes as stripes: data of m*size-(m-1) bytes has
			// chunk size `size` and a padded tail.
			data := make([]byte, max(0, m*size-(m-1)))
			rng.Read(data)
			want := c.encodeRef(data)
			got, err := c.EncodePooled(data) // pooled backing arrives dirty
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("m=%d size=%d: chunk %d differs from encodeRef", m, size, i)
				}
			}
			if ok, err := c.Verify(got); err != nil || !ok {
				t.Fatalf("m=%d size=%d: Verify = %v, %v", m, size, ok, err)
			}
			lost := rng.Intn(m + 1)
			prod, ref := make([][]byte, m+1), make([][]byte, m+1)
			copy(prod, got)
			copy(ref, want)
			prod[lost], ref[lost] = nil, nil
			if err := reconstruct(t, c, prod); err != nil {
				t.Fatal(err)
			}
			if err := c.reconstructRef(ref); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(prod[lost], ref[lost]) || !bytes.Equal(prod[lost], want[lost]) {
				t.Fatalf("m=%d size=%d: rebuilt chunk %d differs from reconstructRef", m, size, lost)
			}
			ReleaseChunks(got)
		}
	}
}

// TestOneLostDataChunkDecodesByXOR pins why a degraded read and a swap
// repair leave the Galois field: with one data chunk lost and the row-m
// parity among the first m chunks present, the decode row is all ones —
// asserted on the coefficients, not on timing — for every geometry and
// every lost slot, wider codes with their other parity absent included.
func TestOneLostDataChunkDecodesByXOR(t *testing.T) {
	for _, mn := range [][2]int{{2, 3}, {3, 4}, {4, 5}, {3, 5}, {4, 8}, {8, 9}} {
		c, err := New(mn[0], mn[1])
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 1000*c.m+1)
		rand.New(rand.NewSource(int64(c.n))).Read(data)
		full, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		for lost := 0; lost < c.m; lost++ {
			chunks := make([][]byte, c.n)
			copy(chunks, full[:c.m+1])
			chunks[lost] = nil
			jobs, err := c.decodeJobs(chunks, c.slots[:c.m], &reconScratch{})
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) != 1 || len(jobs[0].in) != c.m || len(jobs[0].row) == 0 || !allOnes(jobs[0].row) {
				t.Fatalf("(%d,%d) lost %d: decode jobs %v, want one all-ones row over m inputs", c.m, c.n, lost, jobs)
			}
			got, err := c.Decode(chunks, len(data))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("(%d,%d) lost %d: err %v, equal %v", c.m, c.n, lost, err, bytes.Equal(got, data))
			}
		}
	}
}

// TestReconstructSlotsFillsOnlyWhatIsAsked: ReconstructPooled leaves a
// nil chunk outside the slots asked for nil, and a wanted parity chunk is produced
// straight from the survivors even when a data chunk nobody asked for is
// missing too.
func TestReconstructSlotsFillsOnlyWhatIsAsked(t *testing.T) {
	c, err := New(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3001)
	rand.New(rand.NewSource(6)).Read(data)
	full, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ have, want []int }{
		{have: []int{0, 2, 3}, want: []int{1}},          // data from data + parity
		{have: []int{0, 1, 2}, want: []int{4}},          // parity from intact data
		{have: []int{0, 4, 5}, want: []int{3}},          // parity with data missing
		{have: []int{1, 3, 5}, want: []int{4, 0}},       // both, in the caller's order
		{have: []int{0, 1, 2, 3}, want: []int{3, 0, 2}}, // nothing missing among them
	} {
		t.Run(fmt.Sprint(tc.have, tc.want), func(t *testing.T) {
			chunks := make([][]byte, c.n)
			for _, i := range tc.have {
				chunks[i] = full[i]
			}
			if err := reconstruct(t, c, chunks, tc.want...); err != nil {
				t.Fatal(err)
			}
			filled := map[int]bool{}
			for _, i := range append(tc.have, tc.want...) {
				filled[i] = true
			}
			for i := range chunks {
				switch {
				case !filled[i] && chunks[i] != nil:
					t.Errorf("slot %d was not asked for and was produced", i)
				case filled[i] && !bytes.Equal(chunks[i], full[i]):
					t.Errorf("slot %d differs from the encoded chunk", i)
				}
			}
		})
	}
	if err := reconstruct(t, c, make([][]byte, c.n), c.n); err == nil {
		t.Error("slot n accepted")
	}
}
