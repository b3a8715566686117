package session

// Reference implementation of the from-scratch estimate merge, kept
// verbatim so the incremental merge can be proven bit-identical: every
// call rebuilds each chain's MeanCI, copies its transformed series and
// runs R̂ over the series themselves, where merge keeps per-chain
// accumulators across calls and folds only new samples.
// TestIncrementalMergeMatchesReference and FuzzIncrementalMerge drive
// both side by side.
//
// Do not "modernize" this file: its value is being the historical
// behavior, not good code.

import (
	"fmt"

	"histwalk/internal/diagnostics"
	"histwalk/internal/estimate"
)

// referenceMerge is merge as it was before the per-chain accumulators:
// the ledger from mergeLedger, then every estimate refolded from every
// retained sample.
func referenceMerge(sp *Spec, run, chains []*chainRun) (*Result, error) {
	res := mergeLedger(sp, run, chains)
	design := sp.design()
	for e, es := range sp.Estimators {
		pooled := estimate.NewMean(design)
		var perChain []float64
		var allW, allWF []float64
		var series [][]float64
		minLen, samples := -1, 0
		for _, cr := range chains {
			ci, err := estimate.NewMeanCI(design, sp.CIBatch)
			if err != nil {
				return nil, err
			}
			vals := make([]float64, len(cr.degrees))
			for i, raw := range cr.values[e] {
				val := es.transform(raw)
				vals[i] = val
				if err := pooled.Add(val, cr.degrees[i]); err != nil {
					return nil, fmt.Errorf("session: %s: %w", es.label(), err)
				}
				if err := ci.Add(val, cr.degrees[i]); err != nil {
					return nil, fmt.Errorf("session: %s: %w", es.label(), err)
				}
			}
			est, err := ci.Estimate()
			if err != nil {
				return nil, fmt.Errorf("session: chain %d produced no samples for %s", cr.idx, es.label())
			}
			perChain = append(perChain, est)
			w, wf := ci.Components()
			allW = append(allW, w...)
			allWF = append(allWF, wf...)
			samples += len(vals)
			series = append(series, vals)
			if minLen < 0 || len(vals) < minLen {
				minLen = len(vals)
			}
		}
		point, err := pooled.Estimate()
		if err != nil {
			return nil, fmt.Errorf("session: %s: %w", es.label(), err)
		}
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
		// R̂ over equal-length prefixes of the chains' retained series.
		if len(chains) >= 2 && minLen >= 4 {
			trimmed := make([][]float64, len(series))
			for i, s := range series {
				trimmed[i] = s[:minLen]
			}
			if r, err := diagnostics.GelmanRubin(trimmed); err == nil {
				out.GelmanRubin = r
			}
		}
		res.Estimates = append(res.Estimates, out)
	}
	return res, nil
}
