package session

// Reference implementation of the session merge, from scratch. The
// chains keep no samples, so the reference folds series that the test
// rebuilds itself (sampleLog: every retained sample of every chain,
// from the session's Updates and the graph) into fresh accumulators on
// every call, under the merge's rules: per-chain MeanCI estimates and
// batch components, the pooled point Σ_c ΣWF_c / Σ_c ΣW_c from sums the
// reference adds itself, in chain order, and R̂ over the series
// trimmed to the shortest chain's count rounded down to a multiple of
// CIBatch. TestIncrementalMergeMatchesReference and
// FuzzIncrementalMerge compare it with merge at every point of a run.

import (
	"fmt"
	"testing"

	"histwalk/internal/diagnostics"
	"histwalk/internal/engine"
	"histwalk/internal/estimate"
	"histwalk/internal/graph"
)

// sampleLog holds every chain's retained samples as the session's
// Updates reveal them: the degree and each estimator's raw value of
// every sampled node, measured on the graph.
type sampleLog struct {
	g       *graph.Graph
	ests    []EstimatorSpec
	degrees [][]int       // [chain][sample]
	values  [][][]float64 // [chain][estimator][sample]
}

// newSampleLog returns an empty log for the chains of sp, which must
// be normalized and read g.
func newSampleLog(g *graph.Graph, sp *Spec) *sampleLog {
	l := &sampleLog{g: g, ests: sp.Estimators, degrees: make([][]int, sp.Chains), values: make([][][]float64, sp.Chains)}
	for c := range l.values {
		l.values[c] = make([][]float64, len(sp.Estimators))
	}
	return l
}

// observe records u's sample when the chain retained it. It may run on
// a Drive worker's goroutine, so a failure is reported with t.Errorf.
func (l *sampleLog) observe(t testing.TB, u Update) {
	t.Helper()
	if !u.Sampled {
		return
	}
	l.degrees[u.Chain] = append(l.degrees[u.Chain], l.g.Degree(u.Node))
	for e, es := range l.ests {
		x, _, err := engine.Measure(l.g, es.attr(), u.Node)
		if err != nil {
			t.Errorf("measuring chain %d's sample: %v", u.Chain, err)
		}
		l.values[u.Chain][e] = append(l.values[u.Chain][e], x)
	}
}

// referenceMerge is merge recomputed from log: the ledger from
// mergeLedger, then every estimate folded from every retained sample.
func referenceMerge(sp *Spec, run, chains []*chainRun, log *sampleLog) (*Result, error) {
	res := mergeLedger(sp, run, chains)
	design := sp.design()
	shortest := -1
	for _, cr := range chains {
		if n := len(log.degrees[cr.idx]); shortest < 0 || n < shortest {
			shortest = n
		}
	}
	prefix := shortest / sp.CIBatch * sp.CIBatch
	for e, es := range sp.Estimators {
		var perChain, allW, allWF []float64
		var series [][]float64
		var sumW, sumWF float64
		samples := 0
		for _, cr := range chains {
			ci, err := estimate.NewMeanCI(design, sp.CIBatch)
			if err != nil {
				return nil, err
			}
			degrees := log.degrees[cr.idx]
			vals := make([]float64, len(degrees))
			var w, wf float64
			for i, raw := range log.values[cr.idx][e] {
				val := es.transform(raw)
				vals[i] = val
				if err := ci.Add(val, degrees[i]); err != nil {
					return nil, fmt.Errorf("session: %s: %w", es.label(), err)
				}
				weight := 1.0
				if design == estimate.DegreeProportional {
					weight = 1 / float64(degrees[i])
				}
				w += weight
				wf += weight * val
			}
			est, err := ci.Estimate()
			if err != nil {
				return nil, fmt.Errorf("session: chain %d produced no samples for %s", cr.idx, es.label())
			}
			perChain = append(perChain, est)
			bw, bwf := ci.Components()
			allW = append(allW, bw...)
			allWF = append(allWF, bwf...)
			sumW += w
			sumWF += wf
			samples += len(vals)
			series = append(series, vals)
		}
		point := sumWF / sumW
		out := Estimate{
			Name:     es.label(),
			Design:   design,
			Point:    point,
			PerChain: perChain,
			Samples:  samples,
		}
		if iv, err := estimate.IntervalFromComponents(point, sp.Confidence, allW, allWF); err == nil {
			out.Interval, out.HasInterval = iv, true
		}
		if len(chains) >= 2 && prefix >= max(sp.CIBatch, 4) {
			trimmed := make([][]float64, len(series))
			for i, s := range series {
				trimmed[i] = s[:prefix]
			}
			if r, err := diagnostics.GelmanRubin(trimmed); err == nil {
				out.GelmanRubin = r
			}
		}
		res.Estimates = append(res.Estimates, out)
	}
	return res, nil
}
