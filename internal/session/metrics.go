package session

// The session layer's obs instrumentation: chain lifecycle counters
// and the budget ledger on the process-wide registry, plus chain
// start/finish trace spans. Everything here fires once per chain, not
// per step — the walk's zero-alloc hot path is untouched — and
// consumes no RNG, so trajectories stay bit-identical with
// instrumentation and tracing enabled (pinned by the observability
// parity test).

import "histwalk/internal/obs"

var (
	obsChainsStarted = obs.Default.Counter("histwalk_chains_started_total",
		"Chains constructed (walker seeded and positioned).")
	obsChainsFinished = obs.Default.Counter("histwalk_chains_finished_total",
		"Chains that reached a stop condition (budget, caps, error).")
	obsChainsAbandoned = obs.Default.Counter("histwalk_chains_abandoned_total",
		"Chains a closed session left before any stop condition (cancelled runs).")
	obsBudgetSpent = obs.Default.Counter("histwalk_budget_spent_total",
		"Total budget consumed by finished and abandoned chains, under each run's cost model.")
)

// markDone transitions the chain to done exactly once, recording the
// finish on the registry and the trace. Every cr.done = true in this
// package goes through here; the idempotence guard keeps the counters
// exact even when multiple stop conditions fire on one step.
func (cr *chainRun) markDone(sp *Spec) {
	if cr.done {
		return
	}
	cr.done = true
	obsChainsFinished.Inc()
	obsBudgetSpent.Add(int64(cr.spend(sp)))
	if tr := obs.ActiveTracer(); tr != nil {
		tr.Emit("chain.finish", obs.F{
			"chain": cr.idx, "steps": cr.steps,
			"spent": cr.spend(sp), "samples": cr.samples,
		})
	}
}

// abandon records a chain that a closed session left unfinished. Close
// calls it at most once per session, and only for chains markDone never
// reached, so every started chain is counted exactly once as finished
// or abandoned.
func (cr *chainRun) abandon(sp *Spec) {
	obsChainsAbandoned.Inc()
	obsBudgetSpent.Add(int64(cr.spend(sp)))
}
