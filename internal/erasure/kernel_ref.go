//go:build erasure_ref

package erasure

// Scalar reference kernels: the textbook single-byte log/exp path the
// table-driven kernels (kernel.go) must match byte for byte. Building
// the whole module with -tags erasure_ref routes every encode,
// reconstruct and verify through these, turning the full test suite
// into a cross-check of everything above the kernel layer.

// kernRow computes dst = sum_k coefs[k] * ins[k][:len(dst)] via the
// scalar reference path.
func kernRow(coefs []byte, ins [][]byte, dst []byte) {
	if len(ins) == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	mulSlice(coefs[0], ins[0][:len(dst)], dst)
	for k := 1; k < len(ins); k++ {
		mulAddSlice(coefs[k], ins[k][:len(dst)], dst)
	}
}

// runJobs computes all jobs row at a time (the reference build has no
// fused micro-kernels).
func runJobs(jobs []rsJob) {
	for _, j := range jobs {
		kernRow(j.row, j.in, j.out)
	}
}

// kernMul sets out[i] = c*in[i] via the scalar reference path.
func kernMul(c byte, in, out []byte) { mulSlice(c, in[:len(out)], out) }

// kernMulAdd sets out[i] ^= c*in[i] via the scalar reference path.
func kernMulAdd(c byte, in, out []byte) { mulAddSlice(c, in[:len(out)], out) }
