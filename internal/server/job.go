// Package server implements prognosisd, the learning-as-a-service
// daemon: an HTTP/JSON API over an async job manager with a persistent
// FS-backed queue. Learn/diff/check/regress/monitor jobs are submitted as
// JSON bodies carrying the same learncfg.Config the CLI flags resolve
// through, run with bounded parallelism under per-job cancellable
// contexts, journal every lifecycle transition (so a killed daemon
// re-queues in-flight jobs on restart), stream the typed learning event
// stream over SSE through a fan-out hub with slow-subscriber drop
// accounting, and serve learned-model and witness artifacts from the
// job's artifact directory. The verbs themselves live in internal/cli:
// a job converts its spec, calls the verb's one implementation there
// (exec.go), and writes the outcome as artifacts. See docs/SERVICE.md and
// docs/MONITORING.md.
//
// The wire types — Spec, State, Status, Summary, Stats, and the SSE
// meta events — are defined once in pkg/client and aliased here, so the
// daemon and its typed Go client cannot drift.
package server

import (
	"time"

	"repro/internal/learncfg"
	"repro/pkg/client"
)

// Kind names a job's verb. Aliased from pkg/client.
const (
	KindLearn   = client.KindLearn
	KindDiff    = client.KindDiff
	KindCheck   = client.KindCheck
	KindRegress = client.KindRegress
	KindMonitor = client.KindMonitor
)

// State is one stop of the job lifecycle state machine; see
// client.State.
type State = client.State

const (
	StatePending   = client.StatePending
	StateRunning   = client.StateRunning
	StateDone      = client.StateDone
	StateFailed    = client.StateFailed
	StateCancelled = client.StateCancelled
)

// Spec is a job submission: the POST /v1/jobs body. See client.Spec.
type Spec = client.Spec

// Summary is the kind-specific result a finished job reports. See
// client.Summary.
type Summary = client.Summary

// Status is the JSON view of a job served by GET /v1/jobs/{id}. See
// client.Status.
type Status = client.Status

// JobStateChanged is the hub's job-lifecycle meta event. See
// client.JobStateChanged.
type JobStateChanged = client.JobStateChanged

// DriftAlarm is the monitor's live-confirmed drift event. See
// client.DriftAlarm.
type DriftAlarm = client.DriftAlarm

// defaultsFor returns the per-kind learncfg defaults, mirroring the CLI
// subcommands exactly.
func defaultsFor(kind string) learncfg.Defaults {
	switch kind {
	case KindDiff:
		return learncfg.Defaults{Conformance: 2, Loss: 0.02, Workers: 4}
	case KindCheck:
		return learncfg.Defaults{Conformance: 2}
	default:
		return learncfg.Defaults{}
	}
}

// Job is one submitted job's full runtime record. Fields are guarded by
// the manager's lock; handlers read consistent snapshots via Status.
type Job struct {
	ID   string
	Spec Spec

	State    State
	Error    string
	Summary  *Summary
	Created  time.Time
	Started  time.Time
	Finished time.Time
	// Attempts counts how many times the job entered running — >1 means
	// the daemon was killed mid-job and the queue resumed it.
	Attempts int

	// Dir is the job's artifact directory (model.json, witness.txt, ...).
	Dir string

	cancel    func() // cancels the running job's context
	cancelled bool   // the user asked for cancellation
}
