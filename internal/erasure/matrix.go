package erasure

import (
	"errors"
	"fmt"
)

// matrix is a dense byte matrix over GF(2^8), stored row-major.
type matrix struct {
	rows, cols int
	data       []byte
}

func newMatrix(rows, cols int) matrix {
	return matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

func (m matrix) at(r, c int) byte     { return m.data[r*m.cols+c] }
func (m matrix) set(r, c int, v byte) { m.data[r*m.cols+c] = v }
func (m matrix) row(r int) []byte     { return m.data[r*m.cols : (r+1)*m.cols] }
func (m matrix) String() string       { return fmt.Sprintf("matrix(%dx%d)", m.rows, m.cols) }

// identityMatrix returns the n x n identity matrix.
func identityMatrix(n int) matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m.set(i, i, 1)
	}
	return m
}

// vandermonde returns the rows x cols Vandermonde matrix with entries
// v[r][c] = r^c. Any square submatrix built from distinct rows is
// invertible, which is the property Reed–Solomon relies on.
func vandermonde(rows, cols int) matrix {
	m := newMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.set(r, c, gfExp(byte(r), c))
		}
	}
	return m
}

// mul returns m * other.
func (m matrix) mul(other matrix) matrix {
	if m.cols != other.rows {
		panic("erasure: matrix dimension mismatch in mul")
	}
	out := newMatrix(m.rows, other.cols)
	for r := 0; r < m.rows; r++ {
		for c := 0; c < other.cols; c++ {
			var v byte
			for k := 0; k < m.cols; k++ {
				v ^= gfMul(m.at(r, k), other.at(k, c))
			}
			out.set(r, c, v)
		}
	}
	return out
}

// subMatrix returns the submatrix [rmin:rmax) x [cmin:cmax).
func (m matrix) subMatrix(rmin, cmin, rmax, cmax int) matrix {
	out := newMatrix(rmax-rmin, cmax-cmin)
	for r := rmin; r < rmax; r++ {
		for c := cmin; c < cmax; c++ {
			out.set(r-rmin, c-cmin, m.at(r, c))
		}
	}
	return out
}

// swapRows exchanges rows r1 and r2 in place.
func (m matrix) swapRows(r1, r2 int) {
	if r1 == r2 {
		return
	}
	a, b := m.row(r1), m.row(r2)
	for i := range a {
		a[i], b[i] = b[i], a[i]
	}
}

// errSingular is returned when a matrix that must be invertible is not;
// with distinct Vandermonde rows this indicates corrupted shard indices.
var errSingular = errors.New("erasure: matrix is singular")

// invert returns the inverse of a square matrix using Gauss–Jordan
// elimination, or errSingular.
func (m matrix) invert() (matrix, error) {
	if m.rows != m.cols {
		panic("erasure: cannot invert non-square matrix")
	}
	n := m.rows
	work := newMatrix(n, 2*n)
	for r := 0; r < n; r++ {
		copy(work.row(r)[:n], m.row(r))
		work.set(r, n+r, 1)
	}
	for c := 0; c < n; c++ {
		// Find a pivot.
		pivot := -1
		for r := c; r < n; r++ {
			if work.at(r, c) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return matrix{}, errSingular
		}
		work.swapRows(c, pivot)
		// Scale pivot row to 1.
		if pv := work.at(c, c); pv != 1 {
			inv := gfInv(pv)
			mulSlice(inv, work.row(c), work.row(c))
		}
		// Eliminate column c from all other rows.
		for r := 0; r < n; r++ {
			if r == c {
				continue
			}
			if f := work.at(r, c); f != 0 {
				mulAddSlice(f, work.row(c), work.row(r))
			}
		}
	}
	return work.subMatrix(0, n, n, 2*n), nil
}
