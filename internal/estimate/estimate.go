// Package estimate turns random-walk sample paths into aggregate
// estimates, correcting for the sampler's stationary distribution.
//
// SRW, NB-SRW, CNRW and GNRW all sample nodes with probability
// proportional to degree (π(v) = k_v/2|E|), so the population mean of a
// measure function f is estimated with the ratio (importance-reweighted)
// estimator
//
//	μ̂ = ( Σ_t f(X_t)/k(X_t) ) / ( Σ_t 1/k(X_t) ),
//
// which is consistent because E_π[f/k] = Σf / 2|E| and E_π[1/k] =
// |V| / 2|E|. MHRW targets the uniform distribution, so the plain sample
// mean is used. Both designs are exposed behind the same API.
package estimate

import (
	"errors"
	"fmt"
)

// Design identifies the stationary distribution of the sampler that
// produced the samples.
type Design int

const (
	// DegreeProportional marks samples with π(v) ∝ k_v (SRW, NB-SRW,
	// CNRW, GNRW).
	DegreeProportional Design = iota
	// Uniform marks samples with π(v) uniform (MHRW).
	Uniform
)

// String implements fmt.Stringer.
func (d Design) String() string {
	switch d {
	case DegreeProportional:
		return "degree-proportional"
	case Uniform:
		return "uniform"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// MarshalJSON encodes the design as its String form, so serialized
// results read "degree-proportional" rather than a bare enum integer.
func (d Design) MarshalJSON() ([]byte, error) {
	switch d {
	case DegreeProportional, Uniform:
		return []byte(`"` + d.String() + `"`), nil
	default:
		return nil, fmt.Errorf("estimate: cannot marshal unknown design %d", int(d))
	}
}

// UnmarshalJSON decodes the String form produced by MarshalJSON.
func (d *Design) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"degree-proportional"`:
		*d = DegreeProportional
	case `"uniform"`:
		*d = Uniform
	default:
		return fmt.Errorf("estimate: unknown design %s", b)
	}
	return nil
}

// ErrNoSamples is returned when an estimate is requested before any
// sample was added.
var ErrNoSamples = errors.New("estimate: no samples")

// Mean is an online mean estimator for one aggregate under a given
// sampling design. The zero value is NOT ready; construct with NewMean.
type Mean struct {
	design Design
	sumW   float64 // Σ weights (1/k or 1)
	sumWF  float64 // Σ weight·f
	n      int
}

// NewMean returns a mean estimator for the given design.
func NewMean(design Design) *Mean {
	return &Mean{design: design}
}

// Add records one sample: the measure value f(X_t) and the degree
// k(X_t) of the sampled node. Degree must be >= 1 (walks cannot stand on
// isolated nodes); non-positive degrees are rejected.
func (m *Mean) Add(value float64, degree int) error {
	w, err := m.weight(degree)
	if err != nil {
		return err
	}
	m.add(w, value)
	return nil
}

// weight returns a sample's design weight: 1/k under
// DegreeProportional, 1 otherwise.
func (m *Mean) weight(degree int) (float64, error) {
	if degree < 1 {
		return 0, fmt.Errorf("estimate: sample with non-positive degree %d", degree)
	}
	if m.design == DegreeProportional {
		return 1 / float64(degree), nil
	}
	return 1, nil
}

// add records one sample of weight w.
func (m *Mean) add(w, value float64) {
	m.sumW += w
	m.sumWF += w * value
	m.n++
}

// N returns the number of samples added.
func (m *Mean) N() int { return m.n }

// Estimate returns the current estimate of the population mean of f.
func (m *Mean) Estimate() (float64, error) {
	if m.n == 0 || m.sumW == 0 {
		return 0, ErrNoSamples
	}
	return m.sumWF / m.sumW, nil
}

// MeanFromPath estimates the population mean of a measure function from
// a complete sample path, discarding the first burnIn samples. values
// and degrees must be parallel slices (value and degree of each visited
// node, in visit order).
func MeanFromPath(design Design, values []float64, degrees []int, burnIn int) (float64, error) {
	if len(values) != len(degrees) {
		return 0, fmt.Errorf("estimate: %d values but %d degrees", len(values), len(degrees))
	}
	if burnIn < 0 {
		burnIn = 0
	}
	if burnIn >= len(values) {
		return 0, ErrNoSamples
	}
	m := NewMean(design)
	for i := burnIn; i < len(values); i++ {
		if err := m.Add(values[i], degrees[i]); err != nil {
			return 0, err
		}
	}
	return m.Estimate()
}

// Proportion estimates the fraction of nodes satisfying a predicate
// (a COUNT(*)/|V| aggregate): it is the mean of the 0/1 indicator
// under the same reweighting rules.
type Proportion struct {
	mean *Mean
}

// NewProportion returns a proportion estimator for the given design.
func NewProportion(design Design) *Proportion {
	return &Proportion{mean: NewMean(design)}
}

// Add records one sample with its predicate outcome and degree.
func (p *Proportion) Add(satisfied bool, degree int) error {
	v := 0.0
	if satisfied {
		v = 1
	}
	return p.mean.Add(v, degree)
}

// N returns the number of samples added.
func (p *Proportion) N() int { return p.mean.N() }

// Estimate returns the estimated population proportion.
func (p *Proportion) Estimate() (float64, error) { return p.mean.Estimate() }

// AvgDegree estimates the population average degree from a
// degree-proportional sample path: with f = k the ratio estimator
// reduces to n_samples / Σ(1/k), the classic harmonic-mean correction.
// It is the aggregate behind Figures 6, 7c, 7d, 10c and 11c.
type AvgDegree struct {
	mean *Mean
}

// NewAvgDegree returns an average-degree estimator for the given design.
func NewAvgDegree(design Design) *AvgDegree {
	return &AvgDegree{mean: NewMean(design)}
}

// Add records the degree of one sampled node.
func (a *AvgDegree) Add(degree int) error {
	return a.mean.Add(float64(degree), degree)
}

// N returns the number of samples added.
func (a *AvgDegree) N() int { return a.mean.N() }

// Estimate returns the estimated average degree.
func (a *AvgDegree) Estimate() (float64, error) { return a.mean.Estimate() }

// RelativeError returns |est - truth| / |truth|; if truth is 0 it
// returns |est|.
func RelativeError(est, truth float64) float64 {
	d := est - truth
	if d < 0 {
		d = -d
	}
	if truth == 0 {
		return d
	}
	if truth < 0 {
		truth = -truth
	}
	return d / truth
}
