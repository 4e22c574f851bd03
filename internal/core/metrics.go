package core

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// Process-wide guard metric families. Every Guardian — across all
// concurrent experiments in the process — feeds the same counters, so a
// prognosisd scrape sees fleet-wide voting cost; per-run cost stays
// available through GuardStats snapshots (lab.Result.Metrics).
var (
	metricGuardVotes = metrics.Default().Counter("prognosis_guard_votes_total",
		"SUL executions performed by the §5 voting guard.")
	metricGuardEscalations = metrics.Default().Counter("prognosis_guard_escalations_total",
		"Vote-budget escalations (each also emitted as a guard_escalated event).")
	metricGuardRetried = metrics.Default().Counter("prognosis_guard_retried_queries_total",
		"Queries that saw at least one disagreeing execution.")
	metricGuardWasted = metrics.Default().Counter("prognosis_guard_wasted_votes_total",
		"Votes spent beyond the MinVotes floor — the price of link flakiness.")
	metricGuardRecasts = metrics.Default().Counter("prognosis_guard_recasts_total",
		"Executions voided by a late or cut-short response and cast again; a voided execution is not a vote.")
)

// The addX helpers below are the single update path for guard cost
// counters: one atomic add into the per-guardian snapshot struct, one
// into the process-wide metrics plane.

func (s *GuardStats) addVotes(n int64) {
	atomic.AddInt64(&s.Votes, n)
	metricGuardVotes.Add(n)
}

func (s *GuardStats) addEscalations(n int64) {
	atomic.AddInt64(&s.Escalations, n)
	metricGuardEscalations.Add(n)
}

func (s *GuardStats) addRetried(n int64) {
	atomic.AddInt64(&s.RetriedQueries, n)
	metricGuardRetried.Add(n)
}

func (s *GuardStats) addWasted(n int64) {
	atomic.AddInt64(&s.WastedVotes, n)
	metricGuardWasted.Add(n)
}

func (s *GuardStats) addRecasts(n int64) {
	atomic.AddInt64(&s.Recasts, n)
	metricGuardRecasts.Add(n)
}
