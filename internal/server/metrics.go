package server

import "repro/internal/metrics"

// Process-wide daemon metric families, served by GET /metrics alongside
// the learn/guard/transport/netem families the lower layers publish (and
// the prognosisd_monitor_* families, which internal/cli's monitor cycle
// publishes).
var (
	metricJobsSubmitted = metrics.Default().Counter("prognosisd_jobs_submitted_total",
		"Jobs accepted by POST /v1/jobs.")
	metricSSEPublished = metrics.Default().Counter("prognosisd_sse_events_published_total",
		"Events accepted into the SSE fan-out hub.")
	metricSSEDropped = metrics.Default().Counter("prognosisd_sse_events_dropped_total",
		"Events lost to slow SSE subscribers.")
	metricSSESubscribers = metrics.Default().Gauge("prognosisd_sse_subscribers",
		"Currently attached SSE subscribers.")
)

// metricJobsFinished resolves the per-terminal-state finished counter.
func metricJobsFinished(state State) *metrics.Counter {
	return metrics.Default().CounterWith("prognosisd_jobs_finished_total",
		"Jobs that reached a terminal state.", []string{"state"}, []string{string(state)})
}

// metricJobsState resolves the per-state queue-shape gauge.
func metricJobsState(state State) *metrics.Gauge {
	return metrics.Default().GaugeWith("prognosisd_jobs",
		"Jobs currently in each lifecycle state.", []string{"state"}, []string{string(state)})
}

// syncStateGauges recounts the queue shape into the per-state gauges.
// Called after every lifecycle transition; the job map is queue-sized,
// so the recount is cheap and immune to increment/decrement drift.
func (m *Manager) syncStateGauges() {
	counts := map[State]int{
		StatePending: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCancelled: 0,
	}
	m.mu.Lock()
	for _, j := range m.jobs {
		counts[j.State]++
	}
	m.mu.Unlock()
	for state, n := range counts {
		metricJobsState(state).Set(float64(n))
	}
}
