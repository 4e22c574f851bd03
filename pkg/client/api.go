// Package client is the typed Go client for the prognosisd HTTP/JSON
// API: job submission, status, cancellation, SSE event subscription, and
// artifact retrieval. The wire types live here — internal/server aliases
// them — so the daemon's API has exactly one Go-side definition: the
// server cannot drift from what this client encodes, and external
// tooling (prognosisctl, the E2E tests, CI's daemon-smoke choreography)
// all speak the API through the same structs.
package client

import (
	"fmt"
	"time"

	"repro/internal/learncfg"
)

// Kind names a job's verb — the prognosis subcommands the service
// exposes, plus the monitor cycle.
const (
	KindLearn   = "learn"
	KindDiff    = "diff"
	KindCheck   = "check"
	KindRegress = "regress"
	KindMonitor = "monitor"
)

// State is one stop of the job lifecycle state machine:
//
//	pending → running → done
//	                  ↘ failed
//	pending/running → cancelled        (DELETE /v1/jobs/{id})
//	running → pending                  (daemon shutdown/crash: re-queued)
type State string

const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state ends the lifecycle.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Valid reports whether s is a known lifecycle state.
func (s State) Valid() bool {
	switch s {
	case StatePending, StateRunning, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Spec is a job submission: the POST /v1/jobs body. Config carries the
// same knobs as the CLI flags and resolves through the same
// learncfg.Config builder, so a job body and a `prognosis` invocation
// cannot drift. Absent Config fields keep the per-kind defaults (diff
// jobs default to the mildly impaired 4-worker link, exactly like
// `prognosis diff`).
type Spec struct {
	Kind string `json:"kind"`
	// Target names the registry target of learn and check jobs.
	Target string `json:"target,omitempty"`
	// TargetA/TargetB name the two sides of a diff job.
	TargetA string          `json:"target_a,omitempty"`
	TargetB string          `json:"target_b,omitempty"`
	Config  learncfg.Config `json:"config"`
	// Witnesses bounds the distinguishing traces a diff collects (and a
	// regress writes per drifted target). Default 5.
	Witnesses int `json:"witnesses,omitempty"`
	// Replay confirms a diff's first witness against both live targets
	// (majority vote per step), like `prognosis diff`. Default true.
	Replay *bool `json:"replay,omitempty"`
	// Property is an extra LTLf property for check jobs; Depth bounds its
	// exploration (default 4).
	Property string `json:"property,omitempty"`
	Depth    int    `json:"depth,omitempty"`
	// Manifest is the regression manifest path of regress and monitor
	// jobs (resolved on the daemon host; default
	// internal/analysis/testdata/regress.json). Targets optionally
	// restricts it to a comma-separated subset.
	Manifest string `json:"manifest,omitempty"`
	Targets  string `json:"targets,omitempty"`
}

// NewLearnSpec returns a learn job for target with default config.
func NewLearnSpec(target string) Spec {
	return Spec{Kind: KindLearn, Target: target, Config: learncfg.Default(learncfg.Defaults{})}
}

// NewCheckSpec returns a check job for target with default config.
func NewCheckSpec(target string) Spec {
	return Spec{Kind: KindCheck, Target: target, Config: learncfg.Default(learncfg.Defaults{Conformance: 2})}
}

// NewDiffSpec returns a diff job between two targets with default config
// (the mildly impaired 4-worker link `prognosis diff` uses).
func NewDiffSpec(targetA, targetB string) Spec {
	return Spec{Kind: KindDiff, TargetA: targetA, TargetB: targetB,
		Config: learncfg.Default(learncfg.Defaults{Conformance: 2, Loss: 0.02, Workers: 4})}
}

// NewRegressSpec returns a regress job over the given manifest path ("" =
// daemon default).
func NewRegressSpec(manifest string) Spec {
	return Spec{Kind: KindRegress, Manifest: manifest, Config: learncfg.Default(learncfg.Defaults{})}
}

// NewMonitorSpec returns one monitor cycle over the given manifest path
// ("" = daemon default): every cell is warm-relearned, snapshotted into
// the lineage journal, and compared against its previous snapshot.
func NewMonitorSpec(manifest string) Spec {
	return Spec{Kind: KindMonitor, Manifest: manifest, Config: learncfg.Default(learncfg.Defaults{})}
}

// ReplayWitness reports whether a diff job should replay its first
// witness (the Replay default is true).
func (s *Spec) ReplayWitness() bool { return s.Replay == nil || *s.Replay }

// Validate rejects specs no job can run, before anything is journaled.
func (s *Spec) Validate() error {
	switch s.Kind {
	case KindLearn, KindCheck:
		if s.Target == "" {
			return fmt.Errorf("%s job needs a target", s.Kind)
		}
		if _, err := learncfg.ParseTargets(s.Target); err != nil {
			return err
		}
		if s.TargetA != "" || s.TargetB != "" {
			return fmt.Errorf("%s job takes target, not target_a/target_b", s.Kind)
		}
	case KindDiff:
		if s.TargetA == "" || s.TargetB == "" {
			return fmt.Errorf("diff job needs target_a and target_b")
		}
		if _, err := learncfg.ParseTargets(s.TargetA + "," + s.TargetB); err != nil {
			return err
		}
	case KindRegress, KindMonitor:
		if s.Target != "" || s.TargetA != "" || s.TargetB != "" {
			return fmt.Errorf("%s job selects targets with the targets field, not target/target_a/target_b", s.Kind)
		}
	case "":
		return fmt.Errorf("job needs a kind: learn, diff, check, regress, or monitor")
	default:
		return fmt.Errorf("unknown job kind %q (want learn, diff, check, regress, or monitor)", s.Kind)
	}
	if s.Witnesses < 0 {
		return fmt.Errorf("witnesses %d < 0", s.Witnesses)
	}
	if s.Depth < 0 {
		return fmt.Errorf("depth %d < 0", s.Depth)
	}
	return s.Config.Validate()
}

// Summary is the kind-specific result a finished job reports in its
// status (and journals, so a restarted daemon still serves it).
type Summary struct {
	// Learn / check / diff side A.
	States      int   `json:"states,omitempty"`
	Transitions int   `json:"transitions,omitempty"`
	Queries     int64 `json:"queries,omitempty"`
	Symbols     int64 `json:"symbols,omitempty"`
	Hits        int64 `json:"hits,omitempty"`
	// GuardEscalations counts the §5 voting guard's vote-budget raises
	// across the job's learns.
	GuardEscalations int64         `json:"guard_escalations,omitempty"`
	Duration         time.Duration `json:"duration,omitempty"`
	// Nondet marks a learn that halted on the §5 nondeterminism analysis
	// (a reported outcome, not a failure); NondetWord is its witness query.
	Nondet     bool     `json:"nondet,omitempty"`
	NondetWord []string `json:"nondet_word,omitempty"`
	// Diff.
	Equivalent *bool `json:"equivalent,omitempty"`
	Witnesses  int   `json:"witnesses,omitempty"`
	// Confirmed reports whether the replayed witness diverged on the wire.
	Confirmed *bool `json:"confirmed,omitempty"`
	// Check.
	Violations int `json:"violations,omitempty"`
	// Regress / monitor.
	RegressTargets int      `json:"regress_targets,omitempty"`
	Drifted        []string `json:"drifted,omitempty"`
	// Monitor: drift alarms raised this cycle (drifted cells whose
	// witness was confirmed live).
	Alarms int `json:"alarms,omitempty"`
}

// Status is the JSON view of a job served by GET /v1/jobs/{id}.
type Status struct {
	ID        string     `json:"id"`
	Kind      string     `json:"kind"`
	State     State      `json:"state"`
	Spec      Spec       `json:"spec"`
	Error     string     `json:"error,omitempty"`
	Summary   *Summary   `json:"summary,omitempty"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Attempts  int        `json:"attempts,omitempty"`
	Artifacts []string   `json:"artifacts,omitempty"`
}

// JobStateChanged is the hub's job-lifecycle meta event, streamed over
// SSE inline with the learning events (event name "job_state").
type JobStateChanged struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Error carries the failure message on a failed transition.
	Error string `json:"error,omitempty"`
}

// Kind implements learn.Event.
func (JobStateChanged) Kind() string { return "job_state" }

// DriftAlarm is the monitor's alarm event (SSE event name
// "drift_alarm"): a monitored cell's freshly learned model diverged from
// its previous lineage snapshot AND the shortest distinguishing witness
// reproduced the divergence against the live target.
type DriftAlarm struct {
	// Cell names the drifted (target × config) cell.
	Cell string `json:"cell"`
	// Witness is the shortest input word distinguishing the two models.
	Witness []string `json:"witness"`
	// Expected/Got are the outputs the previous and current model produce
	// on the witness.
	Expected []string `json:"expected,omitempty"`
	Got      []string `json:"got,omitempty"`
	// Confirmed reports that the witness was replayed against the live
	// target and the divergence reproduced (always true for alarms the
	// monitor raises; unconfirmed drift is recorded in lineage only).
	Confirmed bool `json:"confirmed"`
	// Diff summarizes the model divergence (state/transition deltas and
	// witness count from analysis.Diff).
	Diff string `json:"diff,omitempty"`
	// ModelVersion/LogVersion identify the lineage snapshot that raised
	// the alarm.
	ModelVersion int   `json:"model_version"`
	LogVersion   int64 `json:"log_version"`
}

// Kind implements learn.Event.
func (DriftAlarm) Kind() string { return "drift_alarm" }

// Stats is the /v1/stats payload: queue shape, throughput, and the
// event hub's drop accounting.
type Stats struct {
	Uptime   string        `json:"uptime"`
	Jobs     map[State]int `json:"jobs"`
	Resumed  int           `json:"resumed,omitempty"`
	Finished int64         `json:"finished"`
	Draining bool          `json:"draining,omitempty"`
	Totals   SummaryTotals `json:"totals"`
	Hub      HubStats      `json:"events"`
}

// SummaryTotals aggregates the learning counters across finished jobs.
// Queries, Symbols, Hits, GuardEscalations, and BusySeconds are
// monotonic: they only ever grow, so deltas between two scrapes are
// meaningful, and QueriesPerSec (Queries/BusySeconds) is stable across
// concurrent scrapes instead of drifting with in-flight jobs.
type SummaryTotals struct {
	Queries          int64   `json:"queries"`
	Symbols          int64   `json:"symbols"`
	Hits             int64   `json:"cache_hits"`
	HitRate          float64 `json:"cache_hit_rate"`
	GuardEscalations int64   `json:"guard_escalations"`
	// BusySeconds is the summed wall time of finished jobs.
	BusySeconds   float64 `json:"busy_seconds"`
	QueriesPerSec float64 `json:"queries_per_sec"`
}

// HubStats is the SSE hub's observability snapshot, under /v1/stats.
type HubStats struct {
	Subscribers int64 `json:"subscribers"`
	Published   int64 `json:"events_published"`
	Dropped     int64 `json:"events_dropped"`
}
