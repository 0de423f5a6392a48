// Package erasure implements systematic Reed–Solomon erasure coding over
// GF(2^8), the (m,n) redundant striping scheme Scalia uses to place an
// object's chunks across storage providers: any m of the n chunks suffice
// to rebuild the original data (paper §II-A).
//
// The implementation is self-contained (standard library only): GF(2^8)
// arithmetic with log/exp tables, a Vandermonde-derived systematic
// generator matrix, and Gaussian-elimination decoding. The bulk slice
// kernels are table-driven (see kernel.go) and run on the calling
// goroutine; the textbook single-byte scalar path (reference.go) is the
// differential-test oracle they are compared to.
package erasure

// GF(2^8) with the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d),
// the same field used by most production Reed–Solomon codecs.
const fieldPoly = 0x11d

// fieldSize is the number of elements in GF(2^8).
const fieldSize = 256

// kernBlock is the unroll granularity of the bulk slice kernels (one
// cache line).
const kernBlock = 64

var (
	expTable [2 * fieldSize]byte // exp[i] = generator^i, doubled to avoid mod in mul
	logTable [fieldSize]int

	// mulTable[c] is the full 256-entry product table of the constant c:
	// mulTable[c][x] = c*x. One 64 KiB table shared by every Coder gives
	// each generator-matrix coefficient its precomputed table for free —
	// a coder "constructs" its per-coefficient tables by taking
	// &mulTable[coeff] — and turns the hot slice kernels into a single
	// branch-free lookup per byte (a byte index into a [256]byte array
	// needs no bounds check), replacing the two log/exp lookups plus
	// zero-test of the scalar path.
	mulTable [fieldSize][fieldSize]byte
)

func init() {
	x := 1
	for i := 0; i < fieldSize-1; i++ {
		expTable[i] = byte(x)
		logTable[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= fieldPoly
		}
	}
	// Replicate so gfMul can index exp[logA+logB] without a modulo.
	for i := fieldSize - 1; i < 2*fieldSize; i++ {
		expTable[i] = expTable[i-(fieldSize-1)]
	}
	// Product tables; row 0 and column 0 stay zero.
	for c := 1; c < fieldSize; c++ {
		lc := logTable[c]
		t := &mulTable[c]
		for v := 1; v < fieldSize; v++ {
			t[v] = expTable[lc+logTable[v]]
		}
	}
}

// gfAdd returns a+b in GF(2^8); addition is XOR.
func gfAdd(a, b byte) byte { return a ^ b }

// gfMul returns a*b in GF(2^8).
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[logTable[a]+logTable[b]]
}

// gfDiv returns a/b in GF(2^8). Division by zero panics: it indicates a
// programming error in matrix inversion, not a recoverable condition.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("erasure: division by zero in GF(2^8)")
	}
	if a == 0 {
		return 0
	}
	d := logTable[a] - logTable[b]
	if d < 0 {
		d += fieldSize - 1
	}
	return expTable[d]
}

// gfInv returns the multiplicative inverse of a in GF(2^8).
func gfInv(a byte) byte { return gfDiv(1, a) }

// gfExp returns a^p in GF(2^8).
func gfExp(a byte, p int) byte {
	if p == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	l := (logTable[a] * p) % (fieldSize - 1)
	if l < 0 {
		l += fieldSize - 1
	}
	return expTable[l]
}

// mulSlice sets out[i] = c*in[i] for all i.
func mulSlice(c byte, in, out []byte) {
	if c == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	lc := logTable[c]
	for i, v := range in {
		if v == 0 {
			out[i] = 0
		} else {
			out[i] = expTable[lc+logTable[v]]
		}
	}
}

// mulAddSlice sets out[i] ^= c*in[i] for all i.
func mulAddSlice(c byte, in, out []byte) {
	if c == 0 {
		return
	}
	lc := logTable[c]
	for i, v := range in {
		if v != 0 {
			out[i] ^= expTable[lc+logTable[v]]
		}
	}
}
