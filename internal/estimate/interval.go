package estimate

import (
	"errors"
	"fmt"
	"math"
)

// Interval is a confidence interval around a point estimate.
type Interval struct {
	// Point is the estimate.
	Point float64 `json:"point"`
	// Low and High bound the interval.
	Low  float64 `json:"low"`
	High float64 `json:"high"`
	// StdErr is the standard error the interval was built from.
	StdErr float64 `json:"std_err"`
}

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Low && x <= iv.High }

// Width returns High − Low.
func (iv Interval) Width() float64 { return iv.High - iv.Low }

// zFor maps a confidence level to the two-sided normal quantile for the
// levels used in practice.
func zFor(confidence float64) (float64, error) {
	switch {
	case math.Abs(confidence-0.90) < 1e-9:
		return 1.6449, nil
	case math.Abs(confidence-0.95) < 1e-9:
		return 1.9600, nil
	case math.Abs(confidence-0.99) < 1e-9:
		return 2.5758, nil
	default:
		return 0, fmt.Errorf("estimate: unsupported confidence level %v (use 0.90, 0.95 or 0.99)", confidence)
	}
}

// MeanCI is a Mean estimator that additionally tracks the batched
// second moments needed for a delta-method confidence interval on the
// ratio estimate. Samples from a random walk are autocorrelated, so the
// interval uses non-overlapping batches of the given size as
// approximately independent replicates (the batch-means construction);
// pick the batch size at least a few mixing times.
type MeanCI struct {
	batch int

	// running batch accumulators
	curW, curWF float64
	curN        int

	// per-batch ratio components
	batchW  []float64
	batchWF []float64

	inner *Mean
}

// NewMeanCI returns a Mean estimator with batch-means confidence
// intervals. batch must be >= 1.
func NewMeanCI(design Design, batch int) (*MeanCI, error) {
	if batch < 1 {
		return nil, errors.New("estimate: batch size must be >= 1")
	}
	return &MeanCI{batch: batch, inner: NewMean(design)}, nil
}

// Add records one sample (value, degree), as Mean.Add.
func (m *MeanCI) Add(value float64, degree int) error {
	w, err := m.inner.weight(degree)
	if err != nil {
		return err
	}
	m.inner.add(w, value)
	m.curW += w
	m.curWF += w * value
	m.curN++
	if m.curN == m.batch {
		m.batchW = append(m.batchW, m.curW)
		m.batchWF = append(m.batchWF, m.curWF)
		m.curW, m.curWF, m.curN = 0, 0, 0
	}
	return nil
}

// N returns the number of samples added.
func (m *MeanCI) N() int { return m.inner.N() }

// Sums returns the running sums Σw and Σw·f over every sample added.
// Independent chains of the same design pool their ratio estimate from
// them: Σ_c Σw·f / Σ_c Σw.
func (m *MeanCI) Sums() (sumW, sumWF float64) { return m.inner.sumW, m.inner.sumWF }

// Batches returns the number of completed batches.
func (m *MeanCI) Batches() int { return len(m.batchW) }

// Estimate returns the point estimate (identical to Mean's).
func (m *MeanCI) Estimate() (float64, error) { return m.inner.Estimate() }

// Interval returns the batch-means delta-method confidence interval at
// the given level (0.90, 0.95 or 0.99). At least two completed batches
// are required.
func (m *MeanCI) Interval(confidence float64) (Interval, error) {
	point, err := m.Estimate()
	if err != nil {
		return Interval{}, err
	}
	return IntervalFromComponents(point, confidence, m.batchW, m.batchWF)
}

// Components returns copies of the per-batch ratio components (Σw and
// Σw·f of each completed batch). Batches from independent chains of the
// same design may be concatenated and fed to IntervalFromComponents to
// build a pooled interval.
func (m *MeanCI) Components() (w, wf []float64) {
	return append([]float64(nil), m.batchW...), append([]float64(nil), m.batchWF...)
}

// IntervalFromComponents builds the batch-means delta-method confidence
// interval around point from per-batch ratio components (parallel
// slices of Σw and Σw·f). At least two batches are required. The
// batches may come from one chain (MeanCI.Components) or be pooled
// across independent chains.
func IntervalFromComponents(point, confidence float64, batchW, batchWF []float64) (Interval, error) {
	z, err := zFor(confidence)
	if err != nil {
		return Interval{}, err
	}
	if len(batchW) != len(batchWF) {
		return Interval{}, fmt.Errorf("estimate: %d weight batches but %d weighted-sum batches", len(batchW), len(batchWF))
	}
	nb := len(batchW)
	if nb < 2 {
		return Interval{}, fmt.Errorf("estimate: need >= 2 completed batches, have %d", nb)
	}
	// Ratio estimator R = ΣWF/ΣW. Delta method over batch replicates:
	// var(R) ≈ (1/(nb·W̄²)) · S²(WF_i − R·W_i) / nb-denominator.
	var sumW float64
	for _, w := range batchW {
		sumW += w
	}
	wBar := sumW / float64(nb)
	if wBar == 0 {
		return Interval{}, errors.New("estimate: degenerate weights")
	}
	var ss float64
	for i := range batchW {
		d := batchWF[i] - point*batchW[i]
		ss += d * d
	}
	s2 := ss / float64(nb-1)
	se := math.Sqrt(s2/float64(nb)) / wBar
	return Interval{
		Point:  point,
		Low:    point - z*se,
		High:   point + z*se,
		StdErr: se,
	}, nil
}

// ValidConfidence reports whether the confidence level is one of the
// supported two-sided levels (0.90, 0.95, 0.99).
func ValidConfidence(confidence float64) bool {
	_, err := zFor(confidence)
	return err == nil
}

// ConditionalMean estimates a conditional aggregate — the mean of a
// measure over the sub-population satisfying a predicate, e.g. "the
// average friend count of all users living in Texas" from the paper's
// introduction. Under either sampling design the estimator is the ratio
// of reweighted predicate-masked sums:
//
//	μ̂_cond = Σ_t w_t·f(X_t)·1{pred} / Σ_t w_t·1{pred}.
type ConditionalMean struct {
	design     Design
	sumW       float64
	sumWF      float64
	n, matched int
}

// NewConditionalMean returns a conditional-mean estimator.
func NewConditionalMean(design Design) *ConditionalMean {
	return &ConditionalMean{design: design}
}

// Add records one sample: measure value, degree, and whether the node
// satisfies the predicate.
func (c *ConditionalMean) Add(value float64, degree int, satisfies bool) error {
	if degree < 1 {
		return fmt.Errorf("estimate: sample with non-positive degree %d", degree)
	}
	c.n++
	if !satisfies {
		return nil
	}
	var w float64
	switch c.design {
	case DegreeProportional:
		w = 1 / float64(degree)
	default:
		w = 1
	}
	c.matched++
	c.sumW += w
	c.sumWF += w * value
	return nil
}

// N returns the number of samples added (matched or not).
func (c *ConditionalMean) N() int { return c.n }

// Matched returns the number of samples satisfying the predicate.
func (c *ConditionalMean) Matched() int { return c.matched }

// Estimate returns the conditional mean; it fails until at least one
// matching sample was seen.
func (c *ConditionalMean) Estimate() (float64, error) {
	if c.matched == 0 || c.sumW == 0 {
		return 0, ErrNoSamples
	}
	return c.sumWF / c.sumW, nil
}
