// Package stats provides the statistical machinery used to evaluate
// samplers: the paper's two distribution-distance measures
// (symmetric KL-divergence and ℓ2 distance, §6.1), empirical visit
// distributions, online mean/variance accumulation (Welford), the
// batch-means estimator of a Markov chain's asymptotic variance
// (Definition 3), and the arithmetic mean.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrLengthMismatch is returned when two distribution vectors differ in
// length.
var ErrLengthMismatch = errors.New("stats: distribution lengths differ")

// DefaultSmoothing is the ε mixed into distributions before computing
// KL-divergence, guarding zero entries: each vector p is replaced by
// (1-ε)·p + ε·uniform. The paper does not state its smoothing; ε=1e-9
// changes reported values negligibly while keeping KL finite.
const DefaultSmoothing = 1e-9

// SymmetricKL returns D_KL(p‖q) + D_KL(q‖p), the bias measure used in
// Figures 7a, 10a and 11a.
func SymmetricKL(p, q []float64) (float64, error) {
	a, err := klSmoothed(p, q, DefaultSmoothing)
	if err != nil {
		return 0, err
	}
	b, err := klSmoothed(q, p, DefaultSmoothing)
	if err != nil {
		return 0, err
	}
	return a + b, nil
}

func klSmoothed(p, q []float64, eps float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(p), len(q))
	}
	if len(p) == 0 {
		return 0, nil
	}
	ps, err := normalize(p)
	if err != nil {
		return 0, err
	}
	qs, err := normalize(q)
	if err != nil {
		return 0, err
	}
	u := 1 / float64(len(p))
	sum := 0.0
	for i := range ps {
		pi := (1-eps)*ps[i] + eps*u
		qi := (1-eps)*qs[i] + eps*u
		if pi > 0 {
			sum += pi * math.Log(pi/qi)
		}
	}
	return sum, nil
}

// L2Distance returns ‖p−q‖₂ after normalizing both vectors, the bias
// measure used in Figures 7b, 10b and 11b.
func L2Distance(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(p), len(q))
	}
	if len(p) == 0 {
		return 0, nil
	}
	ps, err := normalize(p)
	if err != nil {
		return 0, err
	}
	qs, err := normalize(q)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for i := range ps {
		d := ps[i] - qs[i]
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// LaplaceSmooth returns the additive-smoothed probability distribution
// (c_i + alpha) / (Σc + alpha·n) for a vector of counts. Use it before
// computing KL-divergence of sparse empirical distributions (few samples
// relative to the support size), where raw zero counts would make the
// divergence explode into the ε-smoothing floor. alpha = 0.5 is the
// Jeffreys prior.
func LaplaceSmooth(counts []float64, alpha float64) ([]float64, error) {
	if alpha <= 0 {
		return nil, errors.New("stats: smoothing alpha must be > 0")
	}
	total := 0.0
	for _, c := range counts {
		if c < 0 || math.IsNaN(c) {
			return nil, fmt.Errorf("stats: invalid count %v", c)
		}
		total += c
	}
	n := float64(len(counts))
	out := make([]float64, len(counts))
	denom := total + alpha*n
	for i, c := range counts {
		out[i] = (c + alpha) / denom
	}
	return out, nil
}

// normalize returns p scaled to sum 1. All-zero or negative-mass vectors
// are an error.
func normalize(p []float64) ([]float64, error) {
	sum := 0.0
	for _, x := range p {
		if x < 0 || math.IsNaN(x) {
			return nil, fmt.Errorf("stats: invalid probability mass %v", x)
		}
		sum += x
	}
	if sum <= 0 {
		return nil, errors.New("stats: zero-mass distribution")
	}
	out := make([]float64, len(p))
	for i, x := range p {
		out[i] = x / sum
	}
	return out, nil
}

// VisitCounter accumulates node-visit counts from one or more walks and
// yields the empirical sampling distribution compared against the
// theoretical π in Figures 7, 8, 10 and 11.
type VisitCounter struct {
	counts []float64
	total  int64
}

// NewVisitCounter returns a counter over n nodes.
func NewVisitCounter(n int) *VisitCounter {
	return &VisitCounter{counts: make([]float64, n)}
}

// Visit records one visit of node v (out-of-range nodes are ignored).
func (vc *VisitCounter) Visit(v int32) {
	if v >= 0 && int(v) < len(vc.counts) {
		vc.counts[v]++
		vc.total++
	}
}

// Total returns the number of recorded visits.
func (vc *VisitCounter) Total() int64 { return vc.total }

// Distribution returns the normalized empirical distribution (all zeros
// if nothing was recorded).
func (vc *VisitCounter) Distribution() []float64 {
	out := make([]float64, len(vc.counts))
	if vc.total == 0 {
		return out
	}
	for i, c := range vc.counts {
		out[i] = c / float64(vc.total)
	}
	return out
}

// Counts returns the raw visit counts (aliases internal storage).
func (vc *VisitCounter) Counts() []float64 { return vc.counts }

// Welford is a numerically stable online mean/variance accumulator.
// The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation in.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with < 2
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// BatchMeansVariance estimates the asymptotic variance (Definition 3)
// lim n·Var(μ̂_n) of the chain that produced series, using the method of
// batch means with the given batch size: the asymptotic variance is
// approximately batch·Var(batch means). At least two full batches are
// required.
func BatchMeansVariance(series []float64, batch int) (float64, error) {
	if batch < 1 {
		return 0, errors.New("stats: batch size must be >= 1")
	}
	nb := len(series) / batch
	if nb < 2 {
		return 0, fmt.Errorf("stats: need >= 2 full batches, have %d (series %d, batch %d)", nb, len(series), batch)
	}
	var w Welford
	for b := 0; b < nb; b++ {
		sum := 0.0
		for i := b * batch; i < (b+1)*batch; i++ {
			sum += series[i]
		}
		w.Add(sum / float64(batch))
	}
	return float64(batch) * w.Variance(), nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
