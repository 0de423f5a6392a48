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
	shift, sq := uint32(1)<<31, uint32(1)<<(31-8) // x^0; x^8, squared per bit of lenB
	for ; lenB > 0 && crcA != 0; lenB >>= 1 {
		if lenB&1 != 0 {
			shift = mulmod(sq, shift)
		}
		sq = mulmod(sq, sq)
	}
	return mulmod(shift, crcA) ^ crcB
}

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
