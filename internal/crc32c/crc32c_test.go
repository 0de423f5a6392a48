package crc32c

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// oracle is the standard library's CRC-32C, taken over whole buffers.
var oracle = crc32.MakeTable(crc32.Castagnoli)

// checkSplit: the CRCs of data[:split] and data[split:] combine to the
// CRC of data.
func checkSplit(t testing.TB, data []byte, split int) {
	t.Helper()
	a, b := data[:split], data[split:]
	if got, want := Combine(Checksum(a), Checksum(b), len(b)), crc32.Checksum(data, oracle); got != want {
		t.Fatalf("%d bytes split at %d: Combine = %#08x, want %#08x", len(data), split, got, want)
	}
}

// checkStripe checks what the stripe engine's fetch relies on for a
// payload cut into m chunks of c bytes, zero-padded (c·m ≥ len(payload)):
// the CRC of each chunk continued from that of its payload prefix —
// clamp(len − i·c, 0, c) bytes, none in a chunk past the end — is the
// chunk's own, and the prefixes' CRCs combine to the payload's.
func checkStripe(t testing.TB, payload []byte, m, c int) {
	t.Helper()
	var composed uint32
	for i := 0; i < m; i++ {
		chunk := make([]byte, c)
		k := copy(chunk, payload[min(i*c, len(payload)):])
		head := Update(0, chunk[:k])
		if got, want := Update(head, chunk[k:]), crc32.Checksum(chunk, oracle); got != want {
			t.Fatalf("len %d, m %d, c %d: chunk %d continued from its %d-byte prefix = %#08x, want %#08x",
				len(payload), m, c, i, k, got, want)
		}
		composed = Combine(composed, head, k)
	}
	if want := crc32.Checksum(payload, oracle); composed != want {
		t.Fatalf("len %d, m %d, c %d: composed payload CRC %#08x, want %#08x", len(payload), m, c, composed, want)
	}
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestCombine: random bytes split at 0, at their length and at random
// points; and every stripe length from the empty stripe (1-byte chunks,
// no payload) to m full chunks, through shapes whose last chunks are
// all padding, for m ∈ {1, 3, 4}.
func TestCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000, 4099, 1<<20 + 3} {
		data := randomBytes(rng, n)
		for _, split := range []int{0, n, rng.Intn(n + 1), rng.Intn(n + 1)} {
			checkSplit(t, data, split)
		}
	}
	for _, m := range []int{1, 3, 4} {
		for _, c := range []int{1, 2, 5, 64} {
			for n := 0; n <= m*c; n++ {
				checkStripe(t, randomBytes(rng, n), m, c)
			}
		}
	}
}

// FuzzCRC32CCombine: any bytes, split anywhere, and cut as a stripe of m
// ∈ {1, 3, 4} chunks of the size the erasure coder gives them —
// max(1, ⌈len/m⌉) — or up to two bytes more.
func FuzzCRC32CCombine(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(2), uint8(0)) // the empty stripe: four 1-byte chunks
	for shape, m := range []int{1, 3, 4} {
		for n := 0; n <= 2*m; n++ { // every stripe length at c = 2
			f.Add([]byte("0123456789")[:n], uint16(n/2), uint8(shape), uint8(2-max(1, (n+m-1)/m)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint16, shape, pad uint8) {
		checkSplit(t, data, int(split)%(len(data)+1))
		m := []int{1, 3, 4}[shape%3]
		checkStripe(t, data, m, max(1, (len(data)+m-1)/m)+int(pad%3))
	})
}

// TestCombineTableMatchesSquaring: the tabled factors give what squaring
// x^8 once per bit of the length gives, for lengths across the whole int
// range — past 2^32 too, which no stripe reaches.
func TestCombineTableMatchesSquaring(t *testing.T) {
	squaring := func(crcA, crcB uint32, lenB int) uint32 {
		shift, sq := uint32(1)<<31, uint32(1)<<(31-8)
		for ; lenB > 0; lenB >>= 1 {
			if lenB&1 != 0 {
				shift = mulmod(sq, shift)
			}
			sq = mulmod(sq, sq)
		}
		return mulmod(shift, crcA) ^ crcB
	}
	rng := rand.New(rand.NewSource(2))
	lens := []int{0, 1, 255, 1 << 31, 1<<32 - 1, 1 << 32, 1<<32 + 7, 1<<62 + 3, int(^uint(0) >> 1)}
	for i := 0; i < 200; i++ {
		lens = append(lens, int(rng.Int63()>>rng.Intn(63)))
	}
	for _, n := range lens {
		a, b := rng.Uint32(), rng.Uint32()
		if got, want := Combine(a, b, n), squaring(a, b, n); got != want {
			t.Fatalf("Combine(%#08x, %#08x, %d) = %#08x, squaring gives %#08x", a, b, n, got, want)
		}
	}
}

// TestZeros: Zeros(n) is the CRC-32C of n zero bytes, for the empty
// buffer, one byte, every power of two up to 4 MiB and its neighbours.
func TestZeros(t *testing.T) {
	lens := []int{0, 1}
	for p := 2; p <= 4<<20; p <<= 1 {
		lens = append(lens, p-1, p, p+1)
	}
	zeros := make([]byte, 4<<20+1)
	for _, n := range lens {
		if got, want := Zeros(n), crc32.Checksum(zeros[:n], oracle); got != want {
			t.Fatalf("Zeros(%d) = %#08x, want %#08x", n, got, want)
		}
	}
}
