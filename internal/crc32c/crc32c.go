// Package crc32c is the CRC-32C (Castagnoli) of the stripe engine's
// integrity sums; amd64 and arm64 compute it in hardware.
package crc32c

import "hash/crc32"

var table = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of data.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, table) }

// Update returns the CRC-32C of a‖data from crc, the CRC-32C of a.
func Update(crc uint32, data []byte) uint32 { return crc32.Update(crc, table, data) }

// Combine returns Checksum(a‖b) from crcA = Checksum(a), crcB =
// Checksum(b) and lenB = len(b) — zlib's crc32_combine (M. Adler): a CRC
// is linear over GF(2), so appending lenB bytes multiplies a's by
// x^(8·lenB) mod the polynomial, a no-op on 0; the conditioning cancels.
func Combine(crcA, crcB uint32, lenB int) uint32 {
	if crcA == 0 {
		return crcB
	}
	return mulmod(shift(lenB), crcA) ^ crcB
}

// Zeros returns Checksum(make([]byte, n)) in O(log n): the register starts
// all ones, n zero bytes multiply it by x^(8·n), and the result is
// inverted. A CRC is affine over GF(2), so for equal-length a and b
// Checksum(a^b) = Checksum(a) ^ Checksum(b) ^ Zeros(len(a)).
func Zeros(n int) uint32 { return ^mulmod(shift(n), ^uint32(0)) }

// shift returns x^(8·n) mod the polynomial: the product of x^(8·2^k)
// over the bits k set in n, each taken from x8pow.
func shift(n int) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 0; n > 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = mulmod(x8pow[k], p)
		}
	}
	return p
}

// x8pow[k] is x^(8·2^k) mod the polynomial, one entry per bit of an int
// length, squared up from x^8 once.
var x8pow = func() (t [64]uint32) {
	t[0] = 1 << (31 - 8)
	for k := 1; k < len(t); k++ {
		t[k] = mulmod(t[k-1], t[k-1])
	}
	return t
}()

// mulmod multiplies two polynomials modulo the Castagnoli polynomial, both
// in the CRC's reflected form: bit 31 is x^0.
func mulmod(a, b uint32) (p uint32) {
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		b = b>>1 ^ (b&1)*crc32.Castagnoli
	}
	return p
}
