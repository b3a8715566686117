// Package linalg provides the small dense linear-algebra kernel used by
// the exact Markov-chain analysis (internal/markov): row-major dense
// matrices, LU decomposition with partial pivoting, linear solves, and
// power iteration. It is deliberately minimal — graphs small enough for
// exact analysis have at most a few thousand states.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimensions")
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns m[i,j] = x.
func (m *Matrix) Set(i, j int, x float64) { m.data[i*m.cols+j] = x }

// Add increments m[i,j] by x.
func (m *Matrix) Add(i, j int, x float64) { m.data[i*m.cols+j] += x }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("linalg: MulVec dimension mismatch: %d cols vs %d vector", m.cols, len(x))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// VecMul returns xᵀ·m (the row-vector product), used to advance
// distributions through a transition matrix.
func (m *Matrix) VecMul(x []float64) ([]float64, error) {
	if len(x) != m.rows {
		return nil, fmt.Errorf("linalg: VecMul dimension mismatch: %d rows vs %d vector", m.rows, len(x))
	}
	out := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out, nil
}

// ErrSingular is returned when LU factorization meets a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// LU is an LU factorization with partial pivoting (PA = LU).
type LU struct {
	lu   *Matrix
	perm []int
	sign int
}

// Factorize computes the LU decomposition of a square matrix.
func Factorize(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("linalg: Factorize needs a square matrix, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	lu := a.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sign := 1
	for col := 0; col < n; col++ {
		// partial pivot
		pivot := col
		max := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > max {
				max = v
				pivot = r
			}
		}
		if max < 1e-300 {
			return nil, fmt.Errorf("%w: pivot %d", ErrSingular, col)
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				lu.data[pivot*n+j], lu.data[col*n+j] = lu.data[col*n+j], lu.data[pivot*n+j]
			}
			perm[pivot], perm[col] = perm[col], perm[pivot]
			sign = -sign
		}
		inv := 1 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				lu.Add(r, j, -f*lu.At(col, j))
			}
		}
	}
	return &LU{lu: lu, perm: perm, sign: sign}, nil
}

// Solve returns x with Ax = b.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: Solve dimension mismatch: %d vs %d", len(b), n)
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	// forward substitution (L has unit diagonal)
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	// back substitution
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s / f.lu.At(i, i)
	}
	return x, nil
}

// Solve is a convenience wrapper: factorize a and solve ax = b.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Dot returns ⟨a, b⟩.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns ‖x‖₂.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// Scale multiplies x in place by c.
func Scale(x []float64, c float64) {
	for i := range x {
		x[i] *= c
	}
}

// PowerIteration returns the dominant eigenvalue (by modulus) and an
// associated unit eigenvector of a square matrix, via at most maxIter
// iterations, stopping when the vector moves less than tol between
// iterations. The start vector is deterministic.
func PowerIteration(m *Matrix, maxIter int, tol float64) (float64, []float64, error) {
	if m.rows != m.cols {
		return 0, nil, errors.New("linalg: PowerIteration needs a square matrix")
	}
	n := m.rows
	if n == 0 {
		return 0, nil, errors.New("linalg: empty matrix")
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = 1/float64(n) + 1e-3*float64(i%7)
	}
	Scale(v, 1/Norm2(v))
	lambda := 0.0
	for it := 0; it < maxIter; it++ {
		w, err := m.MulVec(v)
		if err != nil {
			return 0, nil, err
		}
		norm := Norm2(w)
		if norm == 0 {
			return 0, v, nil
		}
		Scale(w, 1/norm)
		lambda = Dot(w, vMulVec(m, w))
		moved := 0.0
		for i := range v {
			d := math.Abs(w[i] - v[i])
			d2 := math.Abs(w[i] + v[i]) // sign-flip tolerance
			if d2 < d {
				d = d2
			}
			if d > moved {
				moved = d
			}
		}
		v = w
		if moved < tol {
			break
		}
	}
	return lambda, v, nil
}

// vMulVec computes m·w without error checking (internal).
func vMulVec(m *Matrix, w []float64) []float64 {
	out, _ := m.MulVec(w)
	return out
}
