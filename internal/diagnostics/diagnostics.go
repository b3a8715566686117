// Package diagnostics provides standard MCMC convergence diagnostics
// for random-walk sample paths: the Geweke z-score, the Gelman–Rubin
// potential scale reduction factor (R̂) across parallel chains, an
// effective-sample-size estimate, and a simple automatic burn-in
// selector. These tools answer the operational question behind the
// paper's motivation — how long is the burn-in really? — and let users
// verify that a budget was large enough before trusting an estimate.
package diagnostics

import (
	"errors"
	"fmt"
	"math"

	"histwalk/internal/stats"
)

// ErrTooShort is returned when a series is too short for the requested
// diagnostic.
var ErrTooShort = errors.New("diagnostics: series too short")

// Geweke returns the Geweke convergence z-score of a chain: the
// difference of means between the first firstFrac and last lastFrac of
// the series, standardized by their (batch-means) standard errors. For
// a converged chain the score is approximately standard normal; |z| > 2
// indicates the early portion is still biased by the start (burn-in too
// short). Typical fractions: 0.1 and 0.5.
func Geweke(series []float64, firstFrac, lastFrac float64) (float64, error) {
	n := len(series)
	if firstFrac <= 0 || lastFrac <= 0 || firstFrac+lastFrac > 1 {
		return 0, fmt.Errorf("diagnostics: invalid fractions %v, %v", firstFrac, lastFrac)
	}
	na := int(float64(n) * firstFrac)
	nb := int(float64(n) * lastFrac)
	if na < 20 || nb < 20 {
		return 0, fmt.Errorf("%w: %d samples (need >= 20 per window)", ErrTooShort, n)
	}
	a := series[:na]
	b := series[n-nb:]
	meanA := stats.Mean(a)
	meanB := stats.Mean(b)
	varA, err := spectralVar(a)
	if err != nil {
		return 0, err
	}
	varB, err := spectralVar(b)
	if err != nil {
		return 0, err
	}
	denom := math.Sqrt(varA/float64(na) + varB/float64(nb))
	if denom == 0 {
		return 0, nil
	}
	return (meanA - meanB) / denom, nil
}

// spectralVar estimates the long-run variance of a (possibly
// autocorrelated) series via batch means with √n batches.
func spectralVar(series []float64) (float64, error) {
	batch := int(math.Sqrt(float64(len(series))))
	if batch < 1 {
		batch = 1
	}
	v, err := stats.BatchMeansVariance(series, batch)
	if err != nil {
		// fall back to plain variance for very short series
		var w stats.Welford
		for _, x := range series {
			w.Add(x)
		}
		return w.Variance(), nil
	}
	return v, nil
}

// errTooFewChains is returned when R̂ is requested over fewer than two
// chains.
var errTooFewChains = errors.New("diagnostics: Gelman-Rubin needs >= 2 chains")

// GelmanRubin returns the potential scale reduction factor R̂ over m
// parallel chains of equal length. R̂ near 1 (conventionally < 1.1)
// indicates the chains have forgotten their starts and mixed into the
// same distribution; larger values mean longer burn-in is needed.
func GelmanRubin(chains [][]float64) (float64, error) {
	m := len(chains)
	if m < 2 {
		return 0, errTooFewChains
	}
	n := len(chains[0])
	for _, c := range chains {
		if len(c) != n {
			return 0, errors.New("diagnostics: chains must have equal length")
		}
	}
	if n < 4 {
		return 0, ErrTooShort
	}
	means := make([]float64, m)
	vars := make([]float64, m)
	for i, c := range chains {
		var w stats.Welford
		for _, x := range c {
			w.Add(x)
		}
		means[i] = w.Mean()
		vars[i] = w.Variance()
	}
	return GelmanRubinMoments(n, means, vars)
}

// GelmanRubinMoments is GelmanRubin from the chains' moments instead of
// their series: means[i] and vars[i] are the mean and unbiased variance
// of chain i's first n samples, as stats.Welford reports them. Callers
// that keep running moments get R̂ without re-reading the series, with
// the same bits GelmanRubin computes from the series.
func GelmanRubinMoments(n int, means, vars []float64) (float64, error) {
	m := len(means)
	if m < 2 {
		return 0, errTooFewChains
	}
	if len(vars) != m {
		return 0, fmt.Errorf("diagnostics: %d chain means but %d variances", m, len(vars))
	}
	if n < 4 {
		return 0, ErrTooShort
	}
	var grand stats.Welford
	for _, mu := range means {
		grand.Add(mu)
	}
	b := float64(n) * grand.Variance() // between-chain variance ·n
	wv := stats.Mean(vars)             // within-chain variance
	if wv == 0 {
		if b == 0 {
			return 1, nil
		}
		return math.Inf(1), nil
	}
	varPlus := float64(n-1)/float64(n)*wv + b/float64(n)
	return math.Sqrt(varPlus / wv), nil
}

// EffectiveSampleSize estimates how many independent samples the
// autocorrelated series is worth: n · Var_iid / Var_longrun, with the
// long-run variance from batch means. The ESS drives the width of
// confidence intervals on walk-based estimates.
func EffectiveSampleSize(series []float64) (float64, error) {
	n := len(series)
	if n < 16 {
		return 0, ErrTooShort
	}
	var w stats.Welford
	for _, x := range series {
		w.Add(x)
	}
	iid := w.Variance()
	if iid == 0 {
		return float64(n), nil
	}
	longrun, err := spectralVar(series)
	if err != nil {
		return 0, err
	}
	if longrun <= 0 {
		return float64(n), nil
	}
	ess := float64(n) * iid / longrun
	if ess > float64(n) {
		ess = float64(n)
	}
	return ess, nil
}

// AutoBurnIn returns the smallest burn-in b (among candidate prefixes
// of the series) whose post-burn-in Geweke score satisfies |z| <= zMax,
// or len(series)/2 if none qualifies. It scans burn-ins of 0%, 5%, 10%,
// ..., 50% of the series.
func AutoBurnIn(series []float64, zMax float64) (int, error) {
	n := len(series)
	if n < 200 {
		return 0, fmt.Errorf("%w: %d samples (need >= 200)", ErrTooShort, n)
	}
	if zMax <= 0 {
		zMax = 2
	}
	for pct := 0; pct <= 50; pct += 5 {
		b := n * pct / 100
		z, err := Geweke(series[b:], 0.1, 0.5)
		if err != nil {
			return 0, err
		}
		if math.Abs(z) <= zMax {
			return b, nil
		}
	}
	return n / 2, nil
}

// Autocorrelation returns the lag-k sample autocorrelation of the
// series (k >= 0).
func Autocorrelation(series []float64, lag int) (float64, error) {
	n := len(series)
	if lag < 0 || lag >= n {
		return 0, fmt.Errorf("diagnostics: lag %d out of range for %d samples", lag, n)
	}
	mean := stats.Mean(series)
	var num, den float64
	for i := 0; i < n; i++ {
		d := series[i] - mean
		den += d * d
	}
	if den == 0 {
		return 0, nil
	}
	for i := 0; i+lag < n; i++ {
		num += (series[i] - mean) * (series[i+lag] - mean)
	}
	return num / den, nil
}
