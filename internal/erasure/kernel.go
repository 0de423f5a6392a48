package erasure

import (
	"crypto/subtle"
	"slices"
)

// Table-driven GF(2^8) slice kernels. Each coefficient's full 256-entry
// product table is precomputed (mulTable, galois.go), so the inner loop
// is a single branch-free lookup-and-xor per byte. The loops walk
// 64-byte blocks through fixed-size array views: converting a slice to
// *[64]byte hoists the bounds check out of the block, and indexing a
// [256]byte table with a byte needs no check at all.
//
// kernRow is the entry point the encode, reconstruct and verify paths
// use: it computes one output row out = sum_k coefs[k]*in[k], fusing up
// to four inputs per pass so the accumulator stays in a register
// instead of being re-loaded and re-stored once per input. A row whose
// coefficients are all 1 — the first parity row of every code New
// builds, and the decode row of a stripe that lost one data chunk and
// holds that parity — needs no table at all: kernRow sends it to a
// word-wide XOR.

// kernRow computes dst = sum_k coefs[k] * ins[k][:len(dst)]. The first
// term assigns rather than accumulates, so dst may arrive dirty (pooled
// scratch needs no pre-zeroing).
func kernRow(coefs []byte, ins [][]byte, dst []byte) {
	if len(ins) >= 2 && allOnes(coefs[:len(ins)]) {
		xorRow(ins, dst)
		return
	}
	switch len(ins) {
	case 0:
		clear(dst)
	case 1:
		kernMul(coefs[0], ins[0], dst)
	case 2:
		mul2(coefs, ins[0], ins[1], dst)
	case 3:
		mul3(coefs, ins[0], ins[1], ins[2], dst)
	default:
		mul4(coefs, ins[0], ins[1], ins[2], ins[3], dst)
		k := 4
		for ; k+4 <= len(ins); k += 4 {
			mul4add(coefs[k:], ins[k], ins[k+1], ins[k+2], ins[k+3], dst)
		}
		switch len(ins) - k {
		case 1:
			kernMulAdd(coefs[k], ins[k], dst)
		case 2:
			mul2add(coefs[k:], ins[k], ins[k+1], dst)
		case 3:
			mul3add(coefs[k:], ins[k], ins[k+1], ins[k+2], dst)
		}
	}
}

// allOnes reports whether every coefficient is 1.
func allOnes(coefs []byte) bool {
	return !slices.ContainsFunc(coefs, func(c byte) bool { return c != 1 })
}

// xorBlock is how much of dst xorRow finishes before moving on: small
// enough that the block stays in L1 while the inputs are folded into it
// one after another.
const xorBlock = 16 << 10

// xorRow computes dst = ins[0] ^ ins[1] ^ ... over len(dst) bytes, for
// two or more inputs. The first pair assigns, so dst may arrive dirty.
func xorRow(ins [][]byte, dst []byte) {
	for lo := 0; lo < len(dst); lo += xorBlock {
		end := min(lo+xorBlock, len(dst))
		d := dst[lo:end]
		subtle.XORBytes(d, ins[0][lo:end], ins[1][lo:end])
		for _, in := range ins[2:] {
			subtle.XORBytes(d, d, in[lo:end])
		}
	}
}

// runJobs computes every job, batching groups of four rows that share
// an input set through the 4x4 micro-kernel and falling back to
// row-at-a-time fused kernels for the rest. Encode, reconstruct and
// verify all build their job batches over one shared input set, so the
// fast grouping is the common case.
func runJobs(jobs []rsJob) {
	i := 0
	for i+4 <= len(jobs) && sameChunks(jobs[i].in, jobs[i+1].in) &&
		sameChunks(jobs[i].in, jobs[i+2].in) && sameChunks(jobs[i].in, jobs[i+3].in) {
		coefs := [4][]byte{jobs[i].row, jobs[i+1].row, jobs[i+2].row, jobs[i+3].row}
		outs := [4][]byte{jobs[i].out, jobs[i+1].out, jobs[i+2].out, jobs[i+3].out}
		kernRows4(&coefs, jobs[i].in, &outs)
		i += 4
	}
	for ; i < len(jobs); i++ {
		kernRow(jobs[i].row, jobs[i].in, jobs[i].out)
	}
}

// sameChunks reports whether two job input sets are the same slice.
func sameChunks(a, b [][]byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// kernRows4 computes four equal-length output rows in a single pass:
// outs[r] = sum_k coefs[r][k] * ins[k]. Fusing rows on top of inputs
// amortizes every input-byte load across four outputs — the 4x4
// micro-kernel touches 16 product tables (4 KiB, L1-resident) and
// performs one input load per four output bytes, where row-at-a-time
// fusion performs four.
func kernRows4(coefs *[4][]byte, ins [][]byte, outs *[4][]byte) {
	o0, o1, o2, o3 := outs[0], outs[1], outs[2], outs[3]
	k := 0
	for ; k+4 <= len(ins); k += 4 {
		var cs [4][4]byte
		for r := 0; r < 4; r++ {
			copy(cs[r][:], coefs[r][k:k+4])
		}
		mul4x4(&cs, ins[k], ins[k+1], ins[k+2], ins[k+3], o0, o1, o2, o3, k == 0)
	}
	if k == 0 {
		// Fewer than four inputs: fall back to row-at-a-time for the
		// whole batch (assign semantics preserved).
		for r := 0; r < 4; r++ {
			kernRow(coefs[r], ins, outs[r])
		}
		return
	}
	// Remaining 1..3 inputs accumulate row by row.
	for r := 0; r < 4; r++ {
		switch len(ins) - k {
		case 1:
			kernMulAdd(coefs[r][k], ins[k], outs[r])
		case 2:
			mul2add(coefs[r][k:], ins[k], ins[k+1], outs[r])
		case 3:
			mul3add(coefs[r][k:], ins[k], ins[k+1], ins[k+2], outs[r])
		}
	}
}

// mul4x4 is the 4-row x 4-input micro-kernel: one pass over four inputs
// producing four outputs. assign selects whether the first
// input group overwrites (dirty buffers) or accumulates.
func mul4x4(cs *[4][4]byte, a, b, c, d []byte, o0, o1, o2, o3 []byte, assign bool) {
	// The 16 product tables are copied onto the stack: a fixed-offset
	// stack array resolves each lookup with one load, where 16 table
	// pointers would spill and cost a pointer reload per lookup. The
	// 4 KiB copy amortizes over the chunk (kernRows4 calls this once
	// per input group).
	var tt [16][fieldSize]byte
	for r := 0; r < 4; r++ {
		for k := 0; k < 4; k++ {
			tt[r*4+k] = mulTable[cs[r][k]]
		}
	}
	t00, t01, t02, t03 := &tt[0], &tt[1], &tt[2], &tt[3]
	t10, t11, t12, t13 := &tt[4], &tt[5], &tt[6], &tt[7]
	t20, t21, t22, t23 := &tt[8], &tt[9], &tt[10], &tt[11]
	t30, t31, t32, t33 := &tt[12], &tt[13], &tt[14], &tt[15]
	size := len(o0)
	a, b, c, d = a[:size], b[:size], c[:size], d[:size]
	n := size - size%kernBlock
	for i := 0; i < n; i += kernBlock {
		ab := (*[kernBlock]byte)(a[i:])
		bb := (*[kernBlock]byte)(b[i:])
		cb := (*[kernBlock]byte)(c[i:])
		db := (*[kernBlock]byte)(d[i:])
		x0 := (*[kernBlock]byte)(o0[i:])
		x1 := (*[kernBlock]byte)(o1[i:])
		x2 := (*[kernBlock]byte)(o2[i:])
		x3 := (*[kernBlock]byte)(o3[i:])
		if assign {
			for j := range x0 {
				va, vb, vc, vd := ab[j], bb[j], cb[j], db[j]
				x0[j] = t00[va] ^ t01[vb] ^ t02[vc] ^ t03[vd]
				x1[j] = t10[va] ^ t11[vb] ^ t12[vc] ^ t13[vd]
				x2[j] = t20[va] ^ t21[vb] ^ t22[vc] ^ t23[vd]
				x3[j] = t30[va] ^ t31[vb] ^ t32[vc] ^ t33[vd]
			}
		} else {
			for j := range x0 {
				va, vb, vc, vd := ab[j], bb[j], cb[j], db[j]
				x0[j] ^= t00[va] ^ t01[vb] ^ t02[vc] ^ t03[vd]
				x1[j] ^= t10[va] ^ t11[vb] ^ t12[vc] ^ t13[vd]
				x2[j] ^= t20[va] ^ t21[vb] ^ t22[vc] ^ t23[vd]
				x3[j] ^= t30[va] ^ t31[vb] ^ t32[vc] ^ t33[vd]
			}
		}
	}
	for i := n; i < size; i++ {
		va, vb, vc, vd := a[i], b[i], c[i], d[i]
		if assign {
			o0[i] = t00[va] ^ t01[vb] ^ t02[vc] ^ t03[vd]
			o1[i] = t10[va] ^ t11[vb] ^ t12[vc] ^ t13[vd]
			o2[i] = t20[va] ^ t21[vb] ^ t22[vc] ^ t23[vd]
			o3[i] = t30[va] ^ t31[vb] ^ t32[vc] ^ t33[vd]
		} else {
			o0[i] ^= t00[va] ^ t01[vb] ^ t02[vc] ^ t03[vd]
			o1[i] ^= t10[va] ^ t11[vb] ^ t12[vc] ^ t13[vd]
			o2[i] ^= t20[va] ^ t21[vb] ^ t22[vc] ^ t23[vd]
			o3[i] ^= t30[va] ^ t31[vb] ^ t32[vc] ^ t33[vd]
		}
	}
}

// kernMul sets out[i] = c*in[i]. len(in) must be >= len(out).
func kernMul(c byte, in, out []byte) {
	switch c {
	case 0:
		clear(out)
		return
	case 1:
		copy(out, in)
		return
	}
	tbl := &mulTable[c]
	in = in[:len(out)] // hoist: every in[i] below is in range
	n := len(out) - len(out)%kernBlock
	for i := 0; i < n; i += kernBlock {
		ib := (*[kernBlock]byte)(in[i:])
		ob := (*[kernBlock]byte)(out[i:])
		for j := range ob {
			ob[j] = tbl[ib[j]]
		}
	}
	for i := n; i < len(out); i++ {
		out[i] = tbl[in[i]]
	}
}

// kernMulAdd sets out[i] ^= c*in[i]. len(in) must be >= len(out).
func kernMulAdd(c byte, in, out []byte) {
	switch c {
	case 0:
		return
	case 1:
		xorSlice(in, out)
		return
	}
	tbl := &mulTable[c]
	in = in[:len(out)]
	n := len(out) - len(out)%kernBlock
	for i := 0; i < n; i += kernBlock {
		ib := (*[kernBlock]byte)(in[i:])
		ob := (*[kernBlock]byte)(out[i:])
		for j := range ob {
			ob[j] ^= tbl[ib[j]]
		}
	}
	for i := n; i < len(out); i++ {
		out[i] ^= tbl[in[i]]
	}
}

// xorSlice sets out[i] ^= in[i] — the c == 1 accumulate, common in
// decode matrices and low-order Vandermonde columns.
func xorSlice(in, out []byte) {
	in = in[:len(out)]
	n := len(out) - len(out)%kernBlock
	for i := 0; i < n; i += kernBlock {
		ib := (*[kernBlock]byte)(in[i:])
		ob := (*[kernBlock]byte)(out[i:])
		for j := range ob {
			ob[j] ^= ib[j]
		}
	}
	for i := n; i < len(out); i++ {
		out[i] ^= in[i]
	}
}

// The fused multi-input kernels below keep the output byte in a
// register across all terms of the row sum: a two-input fuse halves,
// and a four-input fuse quarters, the out-row load/store traffic of
// term-at-a-time accumulation. Working-set per four-input pass is four
// 256-byte tables plus five streams — comfortably L1-resident.

func mul2(coefs []byte, a, b, out []byte) {
	t0, t1 := &mulTable[coefs[0]], &mulTable[coefs[1]]
	a, b = a[:len(out)], b[:len(out)]
	n := len(out) - len(out)%kernBlock
	for i := 0; i < n; i += kernBlock {
		ab := (*[kernBlock]byte)(a[i:])
		bb := (*[kernBlock]byte)(b[i:])
		ob := (*[kernBlock]byte)(out[i:])
		for j := range ob {
			ob[j] = t0[ab[j]] ^ t1[bb[j]]
		}
	}
	for i := n; i < len(out); i++ {
		out[i] = t0[a[i]] ^ t1[b[i]]
	}
}

func mul2add(coefs []byte, a, b, out []byte) {
	t0, t1 := &mulTable[coefs[0]], &mulTable[coefs[1]]
	a, b = a[:len(out)], b[:len(out)]
	n := len(out) - len(out)%kernBlock
	for i := 0; i < n; i += kernBlock {
		ab := (*[kernBlock]byte)(a[i:])
		bb := (*[kernBlock]byte)(b[i:])
		ob := (*[kernBlock]byte)(out[i:])
		for j := range ob {
			ob[j] ^= t0[ab[j]] ^ t1[bb[j]]
		}
	}
	for i := n; i < len(out); i++ {
		out[i] ^= t0[a[i]] ^ t1[b[i]]
	}
}

func mul3(coefs []byte, a, b, c, out []byte) {
	t0, t1, t2 := &mulTable[coefs[0]], &mulTable[coefs[1]], &mulTable[coefs[2]]
	a, b, c = a[:len(out)], b[:len(out)], c[:len(out)]
	n := len(out) - len(out)%kernBlock
	for i := 0; i < n; i += kernBlock {
		ab := (*[kernBlock]byte)(a[i:])
		bb := (*[kernBlock]byte)(b[i:])
		cb := (*[kernBlock]byte)(c[i:])
		ob := (*[kernBlock]byte)(out[i:])
		for j := range ob {
			ob[j] = t0[ab[j]] ^ t1[bb[j]] ^ t2[cb[j]]
		}
	}
	for i := n; i < len(out); i++ {
		out[i] = t0[a[i]] ^ t1[b[i]] ^ t2[c[i]]
	}
}

func mul3add(coefs []byte, a, b, c, out []byte) {
	t0, t1, t2 := &mulTable[coefs[0]], &mulTable[coefs[1]], &mulTable[coefs[2]]
	a, b, c = a[:len(out)], b[:len(out)], c[:len(out)]
	n := len(out) - len(out)%kernBlock
	for i := 0; i < n; i += kernBlock {
		ab := (*[kernBlock]byte)(a[i:])
		bb := (*[kernBlock]byte)(b[i:])
		cb := (*[kernBlock]byte)(c[i:])
		ob := (*[kernBlock]byte)(out[i:])
		for j := range ob {
			ob[j] ^= t0[ab[j]] ^ t1[bb[j]] ^ t2[cb[j]]
		}
	}
	for i := n; i < len(out); i++ {
		out[i] ^= t0[a[i]] ^ t1[b[i]] ^ t2[c[i]]
	}
}

func mul4(coefs []byte, a, b, c, d, out []byte) {
	// Stack-resident tables, as in mul4x4: one load per lookup.
	var tt [4][fieldSize]byte
	tt[0], tt[1], tt[2], tt[3] = mulTable[coefs[0]], mulTable[coefs[1]], mulTable[coefs[2]], mulTable[coefs[3]]
	t0, t1, t2, t3 := &tt[0], &tt[1], &tt[2], &tt[3]
	a, b, c, d = a[:len(out)], b[:len(out)], c[:len(out)], d[:len(out)]
	n := len(out) - len(out)%kernBlock
	for i := 0; i < n; i += kernBlock {
		ab := (*[kernBlock]byte)(a[i:])
		bb := (*[kernBlock]byte)(b[i:])
		cb := (*[kernBlock]byte)(c[i:])
		db := (*[kernBlock]byte)(d[i:])
		ob := (*[kernBlock]byte)(out[i:])
		for j := range ob {
			ob[j] = t0[ab[j]] ^ t1[bb[j]] ^ t2[cb[j]] ^ t3[db[j]]
		}
	}
	for i := n; i < len(out); i++ {
		out[i] = t0[a[i]] ^ t1[b[i]] ^ t2[c[i]] ^ t3[d[i]]
	}
}

func mul4add(coefs []byte, a, b, c, d, out []byte) {
	var tt [4][fieldSize]byte
	tt[0], tt[1], tt[2], tt[3] = mulTable[coefs[0]], mulTable[coefs[1]], mulTable[coefs[2]], mulTable[coefs[3]]
	t0, t1, t2, t3 := &tt[0], &tt[1], &tt[2], &tt[3]
	a, b, c, d = a[:len(out)], b[:len(out)], c[:len(out)], d[:len(out)]
	n := len(out) - len(out)%kernBlock
	for i := 0; i < n; i += kernBlock {
		ab := (*[kernBlock]byte)(a[i:])
		bb := (*[kernBlock]byte)(b[i:])
		cb := (*[kernBlock]byte)(c[i:])
		db := (*[kernBlock]byte)(d[i:])
		ob := (*[kernBlock]byte)(out[i:])
		for j := range ob {
			ob[j] ^= t0[ab[j]] ^ t1[bb[j]] ^ t2[cb[j]] ^ t3[db[j]]
		}
	}
	for i := n; i < len(out); i++ {
		out[i] ^= t0[a[i]] ^ t1[b[i]] ^ t2[c[i]] ^ t3[d[i]]
	}
}
