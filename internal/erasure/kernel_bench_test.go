package erasure

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel-level benchmarks at the acceptance geometry (m=4, n=8, 4 MiB
// stripe): the table-driven path against the retained scalar
// reference. The root-package BenchmarkEncode/BenchmarkDecode feed the
// CI bench-gate; these two exist to measure the kernel speedup itself.

func benchStripe(b *testing.B, size int) (*Coder, []byte) {
	b.Helper()
	c, err := New(4, 8)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	return c, data
}

func BenchmarkEncodeTable4MiB(b *testing.B) {
	c, data := benchStripe(b, 4<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunks, err := c.EncodePooled(data)
		if err != nil {
			b.Fatal(err)
		}
		ReleaseChunks(chunks)
	}
}

func BenchmarkEncodeScalarRef4MiB(b *testing.B) {
	c, data := benchStripe(b, 4<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.encodeRef(data)
	}
}

// BenchmarkKernRow measures one output row over four inputs, the shape
// of a (4, n) parity row: an all-ones coefficient row (generator row m,
// the XOR route) against a general one (the table kernels), at a chunk
// that fits L1/L2 and at one that does not. Bytes are input bytes.
func BenchmarkKernRow(b *testing.B) {
	for _, size := range []int{32 << 10, 1 << 20} {
		ins := make([][]byte, 4)
		for k := range ins {
			ins[k] = make([]byte, size)
			rand.New(rand.NewSource(int64(k))).Read(ins[k])
		}
		dst := make([]byte, size)
		for _, row := range []struct {
			name  string
			coefs []byte
		}{{"ones", []byte{1, 1, 1, 1}}, {"table", []byte{27, 28, 18, 20}}} {
			b.Run(fmt.Sprintf("%s/%dKiB", row.name, size>>10), func(b *testing.B) {
				b.SetBytes(int64(4 * size))
				for i := 0; i < b.N; i++ {
					kernRow(row.coefs, ins, dst)
				}
			})
		}
	}
}
