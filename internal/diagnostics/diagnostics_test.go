package diagnostics

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"histwalk/internal/stats"
)

// ar1 generates an AR(1) chain with autocorrelation rho around mean mu.
func ar1(n int, rho, mu float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	x := 0.0
	sd := math.Sqrt(1 - rho*rho)
	for i := range out {
		x = rho*x + rng.NormFloat64()*sd
		out[i] = mu + x
	}
	return out
}

func TestGewekeConvergedChain(t *testing.T) {
	series := ar1(20000, 0.5, 10, 1)
	z, err := Geweke(series, 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z) > 3 {
		t.Fatalf("converged chain z = %v", z)
	}
}

func TestGewekeDetectsDrift(t *testing.T) {
	// strong start bias: first 30% of the chain sits at a different level
	series := ar1(20000, 0.5, 0, 2)
	for i := 0; i < 6000; i++ {
		series[i] += 8
	}
	z, err := Geweke(series, 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z) < 3 {
		t.Fatalf("drifting chain undetected: z = %v", z)
	}
}

func TestGewekeErrors(t *testing.T) {
	if _, err := Geweke(ar1(50, 0.1, 0, 3), 0.1, 0.5); err == nil {
		t.Fatal("short series accepted")
	}
	if _, err := Geweke(ar1(1000, 0.1, 0, 3), 0.6, 0.6); err == nil {
		t.Fatal("overlapping windows accepted")
	}
	if _, err := Geweke(ar1(1000, 0.1, 0, 3), 0, 0.5); err == nil {
		t.Fatal("zero fraction accepted")
	}
}

func TestGelmanRubinMixedChains(t *testing.T) {
	chains := [][]float64{
		ar1(5000, 0.3, 5, 1),
		ar1(5000, 0.3, 5, 2),
		ar1(5000, 0.3, 5, 3),
	}
	r, err := GelmanRubin(chains)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.9 || r > 1.1 {
		t.Fatalf("mixed chains R^ = %v, want ≈ 1", r)
	}
}

func TestGelmanRubinSeparatedChains(t *testing.T) {
	chains := [][]float64{
		ar1(2000, 0.3, 0, 1),
		ar1(2000, 0.3, 50, 2),
	}
	r, err := GelmanRubin(chains)
	if err != nil {
		t.Fatal(err)
	}
	if r < 2 {
		t.Fatalf("separated chains R^ = %v, want >> 1", r)
	}
}

func TestGelmanRubinErrors(t *testing.T) {
	if _, err := GelmanRubin([][]float64{ar1(100, 0.1, 0, 1)}); err == nil {
		t.Fatal("single chain accepted")
	}
	if _, err := GelmanRubin([][]float64{ar1(100, 0.1, 0, 1), ar1(99, 0.1, 0, 2)}); err == nil {
		t.Fatal("unequal lengths accepted")
	}
	if _, err := GelmanRubin([][]float64{{1, 2}, {1, 2}}); err == nil {
		t.Fatal("too-short chains accepted")
	}
	// constant identical chains: R^ = 1
	c := make([]float64, 100)
	r, err := GelmanRubin([][]float64{c, c})
	if err != nil || r != 1 {
		t.Fatalf("constant chains R^ = %v, %v", r, err)
	}
}

// welfordMoments returns each chain's mean and variance as a
// stats.Welford over the whole chain reports them.
func welfordMoments(chains [][]float64) (means, vars []float64) {
	for _, c := range chains {
		var w stats.Welford
		for _, x := range c {
			w.Add(x)
		}
		means = append(means, w.Mean())
		vars = append(vars, w.Variance())
	}
	return means, vars
}

// TestGelmanRubinMomentsMatchesSeries pins the delegation: R̂ from the
// chains' Welford moments has the same bits and errors as R̂ from the
// series themselves.
func TestGelmanRubinMomentsMatchesSeries(t *testing.T) {
	cases := map[string][][]float64{
		"mixed":     {ar1(500, 0.3, 5, 1), ar1(500, 0.3, 5, 2), ar1(500, 0.3, 5, 3)},
		"separated": {ar1(300, 0.3, 0, 4), ar1(300, 0.3, 50, 5)},
		"minimal":   {ar1(4, 0.9, 1, 6), ar1(4, 0.9, 2, 7), ar1(4, 0.9, 3, 8), ar1(4, 0.9, 4, 9)},
		"constant":  {{2, 2, 2, 2, 2}, {2, 2, 2, 2, 2}},
		"stuck":     {{1, 1, 1, 1}, {3, 3, 3, 3}},
	}
	for name, chains := range cases {
		want, werr := GelmanRubin(chains)
		means, vars := welfordMoments(chains)
		got, gerr := GelmanRubinMoments(len(chains[0]), means, vars)
		if werr != nil || gerr != nil {
			t.Fatalf("%s: errors %v / %v", name, werr, gerr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: R^ from moments = %v, from series = %v", name, got, want)
		}
	}

	one := [][]float64{ar1(100, 0.1, 0, 1)}
	means, vars := welfordMoments(one)
	_, werr := GelmanRubin(one)
	_, gerr := GelmanRubinMoments(100, means, vars)
	if werr == nil || !errors.Is(werr, errTooFewChains) || !errors.Is(gerr, errTooFewChains) {
		t.Fatalf("single chain: errors %v / %v", werr, gerr)
	}
	short := [][]float64{{1, 2, 3}, {4, 5, 6}}
	means, vars = welfordMoments(short)
	_, werr = GelmanRubin(short)
	_, gerr = GelmanRubinMoments(3, means, vars)
	if !errors.Is(werr, ErrTooShort) || !errors.Is(gerr, ErrTooShort) {
		t.Fatalf("n < 4: errors %v / %v", werr, gerr)
	}
	if _, err := GelmanRubinMoments(10, []float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched moments accepted")
	}
}

func TestEffectiveSampleSize(t *testing.T) {
	iid := ar1(20000, 0, 0, 4)
	essIID, err := EffectiveSampleSize(iid)
	if err != nil {
		t.Fatal(err)
	}
	if essIID < 10000 {
		t.Fatalf("iid ESS = %v of 20000", essIID)
	}
	sticky := ar1(20000, 0.95, 0, 5)
	essSticky, err := EffectiveSampleSize(sticky)
	if err != nil {
		t.Fatal(err)
	}
	// AR(1) with rho=0.95: ESS ≈ n(1-rho)/(1+rho) ≈ n/39
	if essSticky > essIID/5 {
		t.Fatalf("sticky ESS %v not well below iid ESS %v", essSticky, essIID)
	}
	if _, err := EffectiveSampleSize(ar1(8, 0, 0, 6)); err == nil {
		t.Fatal("short series accepted")
	}
	// constant series: ESS = n
	c := make([]float64, 100)
	ess, err := EffectiveSampleSize(c)
	if err != nil || ess != 100 {
		t.Fatalf("constant ESS = %v, %v", ess, err)
	}
}

func TestAutoBurnIn(t *testing.T) {
	// chain with a biased first 20%
	series := ar1(10000, 0.4, 0, 7)
	for i := 0; i < 2000; i++ {
		series[i] += 10
	}
	b, err := AutoBurnIn(series, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b < 2000 {
		t.Fatalf("burn-in %d too small for a 20%% biased prefix", b)
	}
	// converged chain needs no burn-in
	clean := ar1(10000, 0.4, 0, 8)
	b, err = AutoBurnIn(clean, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b > 1500 {
		t.Fatalf("clean chain burn-in = %d", b)
	}
	if _, err := AutoBurnIn(ar1(50, 0.1, 0, 9), 2); err == nil {
		t.Fatal("short series accepted")
	}
}

func TestAutocorrelation(t *testing.T) {
	series := ar1(50000, 0.8, 0, 10)
	r0, err := Autocorrelation(series, 0)
	if err != nil || math.Abs(r0-1) > 1e-12 {
		t.Fatalf("lag-0 autocorrelation = %v, %v", r0, err)
	}
	r1, err := Autocorrelation(series, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1-0.8) > 0.05 {
		t.Fatalf("lag-1 autocorrelation = %v, want ≈ 0.8", r1)
	}
	if _, err := Autocorrelation(series, -1); err == nil {
		t.Fatal("negative lag accepted")
	}
	if _, err := Autocorrelation(series, len(series)); err == nil {
		t.Fatal("overlong lag accepted")
	}
	// constant series
	c := make([]float64, 10)
	r, err := Autocorrelation(c, 1)
	if err != nil || r != 0 {
		t.Fatalf("constant autocorrelation = %v, %v", r, err)
	}
}
