package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatal("dimensions wrong")
	}
	m.Set(1, 2, 5)
	m.Add(1, 2, 2)
	if m.At(1, 2) != 7 {
		t.Fatalf("At = %v", m.At(1, 2))
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone aliases the original")
	}
}

func TestMulVecAndVecMul(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y, err := m.MulVec([]float64{1, 1})
	if err != nil || y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v, %v", y, err)
	}
	z, err := m.VecMul([]float64{1, 1})
	if err != nil || z[0] != 4 || z[1] != 6 {
		t.Fatalf("VecMul = %v, %v", z, err)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := m.VecMul([]float64{1, 2, 3}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("singular matrix accepted")
	}
	if _, err := Factorize(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square factorization accepted")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// zero on the diagonal forces a row swap
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-12) || !almostEq(x[1], 2, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

// Property: Solve recovers random solutions of random well-conditioned
// systems.
func TestSolveRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(nRaw uint8) bool {
		n := 1 + int(nRaw%12)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonally dominant → well conditioned
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b, err := a.MulVec(want)
		if err != nil {
			return false
		}
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range want {
			if !almostEq(got[i], want[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLUSolveReuse(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(1, 1, 2)
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := f.Solve([]float64{4, 2})
	if err != nil || x1[0] != 1 || x1[1] != 1 {
		t.Fatalf("solve 1: %v %v", x1, err)
	}
	x2, err := f.Solve([]float64{8, 6})
	if err != nil || x2[0] != 2 || x2[1] != 3 {
		t.Fatalf("solve 2: %v %v", x2, err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestIdentityDotNorm(t *testing.T) {
	id := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		id.Set(i, i, 1)
	}
	x := []float64{1, 2, 3}
	y, _ := id.MulVec(x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatal("identity not identity")
		}
	}
	if Dot(x, x) != 14 {
		t.Fatal("Dot wrong")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2 wrong")
	}
	v := []float64{2, 4}
	Scale(v, 0.5)
	if v[0] != 1 || v[1] != 2 {
		t.Fatal("Scale wrong")
	}
}

func TestPowerIterationDominantEigen(t *testing.T) {
	// diag(3, 1): dominant eigenvalue 3, eigenvector e1.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 3)
	a.Set(1, 1, 1)
	lambda, v, err := PowerIteration(a, 10000, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(lambda, 3, 1e-6) {
		t.Fatalf("lambda = %v", lambda)
	}
	if math.Abs(v[0]) < 0.99 {
		t.Fatalf("eigenvector = %v", v)
	}
	// symmetric with negative dominant eigenvalue −2 vs +1
	b := NewMatrix(2, 2)
	b.Set(0, 0, -2)
	b.Set(1, 1, 1)
	lambda, _, err = PowerIteration(b, 20000, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(math.Abs(lambda), 2, 1e-5) {
		t.Fatalf("dominant |lambda| = %v, want 2", math.Abs(lambda))
	}
	if _, _, err := PowerIteration(NewMatrix(2, 3), 10, 1e-6); err == nil {
		t.Fatal("non-square accepted")
	}
}
