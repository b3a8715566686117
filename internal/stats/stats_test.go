package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestKLDivergenceKnownValues(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.25, 0.75}
	want := 0.5*math.Log(0.5/0.25) + 0.5*math.Log(0.5/0.75)
	got, err := klSmoothed(p, q, DefaultSmoothing)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, want, 1e-6) {
		t.Fatalf("KL = %v, want %v", got, want)
	}
	// identity: KL(p||p) ≈ 0
	same, err := klSmoothed(p, p, DefaultSmoothing)
	if err != nil || !almostEq(same, 0, 1e-9) {
		t.Fatalf("KL(p,p) = %v, %v", same, err)
	}
}

func TestKLHandlesZeros(t *testing.T) {
	p := []float64{1, 0, 0}
	q := []float64{0, 1, 0}
	got, err := klSmoothed(p, q, DefaultSmoothing)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("KL with zeros = %v; smoothing failed", got)
	}
	if got <= 0 {
		t.Fatalf("KL of disjoint distributions = %v, want > 0", got)
	}
}

func TestSymmetricKLIsSymmetric(t *testing.T) {
	p := []float64{0.7, 0.2, 0.1}
	q := []float64{0.3, 0.3, 0.4}
	a, err := SymmetricKL(p, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SymmetricKL(q, p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(a, b, 1e-12) {
		t.Fatalf("symmetric KL not symmetric: %v vs %v", a, b)
	}
}

func TestKLNormalizesInputs(t *testing.T) {
	// counts vs probabilities should be equivalent
	a, err := klSmoothed([]float64{5, 5}, []float64{1, 3}, DefaultSmoothing)
	if err != nil {
		t.Fatal(err)
	}
	b, err := klSmoothed([]float64{0.5, 0.5}, []float64{0.25, 0.75}, DefaultSmoothing)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(a, b, 1e-9) {
		t.Fatalf("unnormalized KL %v != normalized %v", a, b)
	}
}

func TestDistanceErrors(t *testing.T) {
	if _, err := klSmoothed([]float64{1}, []float64{1, 2}, DefaultSmoothing); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := L2Distance([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := klSmoothed([]float64{0, 0}, []float64{1, 1}, DefaultSmoothing); err == nil {
		t.Fatal("zero-mass distribution accepted")
	}
	if _, err := klSmoothed([]float64{-1, 2}, []float64{1, 1}, DefaultSmoothing); err == nil {
		t.Fatal("negative mass accepted")
	}
	// empty inputs are trivially distance 0
	if d, err := L2Distance(nil, nil); err != nil || d != 0 {
		t.Fatalf("empty L2 = %v, %v", d, err)
	}
}

func TestL2DistanceKnown(t *testing.T) {
	got, err := L2Distance([]float64{1, 0}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, math.Sqrt2, 1e-12) {
		t.Fatalf("L2 = %v, want sqrt(2)", got)
	}
	same, err := L2Distance([]float64{0.3, 0.7}, []float64{0.3, 0.7})
	if err != nil || same != 0 {
		t.Fatalf("L2(p,p) = %v, %v", same, err)
	}
}

func TestVisitCounter(t *testing.T) {
	vc := NewVisitCounter(3)
	vc.Visit(0)
	vc.Visit(0)
	vc.Visit(2)
	vc.Visit(99) // ignored
	vc.Visit(-1) // ignored
	if vc.Total() != 3 {
		t.Fatalf("Total = %d", vc.Total())
	}
	d := vc.Distribution()
	if !almostEq(d[0], 2.0/3, 1e-12) || d[1] != 0 || !almostEq(d[2], 1.0/3, 1e-12) {
		t.Fatalf("distribution = %v", d)
	}
	empty := NewVisitCounter(2).Distribution()
	if empty[0] != 0 || empty[1] != 0 {
		t.Fatal("empty counter distribution nonzero")
	}
}

func TestWelfordAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 5
		w.Add(xs[i])
	}
	mean := Mean(xs)
	varSum := 0.0
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	naiveVar := varSum / float64(len(xs)-1)
	if !almostEq(w.Mean(), mean, 1e-9) {
		t.Fatalf("Welford mean %v vs naive %v", w.Mean(), mean)
	}
	if !almostEq(w.Variance(), naiveVar, 1e-9) {
		t.Fatalf("Welford var %v vs naive %v", w.Variance(), naiveVar)
	}
	if !almostEq(w.StdDev(), math.Sqrt(naiveVar), 1e-9) {
		t.Fatal("StdDev inconsistent")
	}
	if !almostEq(w.StdErr(), w.StdDev()/math.Sqrt(500), 1e-12) {
		t.Fatal("StdErr inconsistent")
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Fatal("zero-value Welford should report zeros")
	}
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 {
		t.Fatal("single observation stats wrong")
	}
}

func TestBatchMeansVariance(t *testing.T) {
	// i.i.d. N(0,1): asymptotic variance ≈ 1.
	rng := rand.New(rand.NewSource(72))
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	v, err := BatchMeansVariance(xs, 500)
	if err != nil {
		t.Fatal(err)
	}
	if v < 0.7 || v > 1.4 {
		t.Fatalf("iid batch-means variance = %v, want ≈ 1", v)
	}
	// AR(1) with ρ=0.9: asymptotic variance = (1+ρ)/(1-ρ) ≈ 19.
	x := 0.0
	for i := range xs {
		x = 0.9*x + rng.NormFloat64()*math.Sqrt(1-0.81)
		xs[i] = x
	}
	v2, err := BatchMeansVariance(xs, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if v2 < 10 || v2 > 30 {
		t.Fatalf("AR(1) batch-means variance = %v, want ≈ 19", v2)
	}
	// error paths
	if _, err := BatchMeansVariance(xs[:100], 100); err == nil {
		t.Fatal("single batch accepted")
	}
	if _, err := BatchMeansVariance(xs, 0); err == nil {
		t.Fatal("zero batch size accepted")
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty Mean should be 0")
	}
}

func TestLaplaceSmooth(t *testing.T) {
	counts := []float64{3, 0, 1}
	sm, err := LaplaceSmooth(counts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// denominator 4 + 1.5 = 5.5
	want := []float64{3.5 / 5.5, 0.5 / 5.5, 1.5 / 5.5}
	sum := 0.0
	for i := range sm {
		if !almostEq(sm[i], want[i], 1e-12) {
			t.Fatalf("smoothed[%d] = %v, want %v", i, sm[i], want[i])
		}
		if sm[i] <= 0 {
			t.Fatal("smoothing left a zero")
		}
		sum += sm[i]
	}
	if !almostEq(sum, 1, 1e-12) {
		t.Fatalf("smoothed distribution sums to %v", sum)
	}
	if _, err := LaplaceSmooth(counts, 0); err == nil {
		t.Fatal("zero alpha accepted")
	}
	if _, err := LaplaceSmooth([]float64{-1}, 0.5); err == nil {
		t.Fatal("negative count accepted")
	}
	// all-zero counts give uniform
	u, err := LaplaceSmooth([]float64{0, 0}, 1)
	if err != nil || u[0] != 0.5 || u[1] != 0.5 {
		t.Fatalf("zero counts smoothed to %v, %v", u, err)
	}
}

// Properties: KL >= 0 and L2 symmetric/triangle-free basics over random
// distributions.
func TestDistanceProperties(t *testing.T) {
	f := func(aRaw, bRaw []uint8) bool {
		n := len(aRaw)
		if n == 0 || len(bRaw) < n {
			return true
		}
		p := make([]float64, n)
		q := make([]float64, n)
		for i := 0; i < n; i++ {
			p[i] = float64(aRaw[i]) + 0.01
			q[i] = float64(bRaw[i]) + 0.01
		}
		kl, err := klSmoothed(p, q, DefaultSmoothing)
		if err != nil || kl < -1e-9 {
			return false
		}
		l2pq, err1 := L2Distance(p, q)
		l2qp, err2 := L2Distance(q, p)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEq(l2pq, l2qp, 1e-12) && l2pq >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
