package lab

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/jsonlog"
	"repro/internal/learn"
	"repro/internal/netem"
)

// checkpointFormat / checkpointVersion identify the campaign-checkpoint
// file format (first line of every file). A checkpoint written by a future
// version is ignored rather than half-understood.
const (
	checkpointFormat  = "prognosis-campaign-checkpoint"
	checkpointVersion = 1
)

// checkpointRecord is one completed campaign run, with everything needed
// to restore its RunResult without relearning. Machine is nil for runs
// that halted on nondeterminism (Nondet carries the §5 verdict instead).
type checkpointRecord struct {
	Name     string                    `json:"name"`
	Target   string                    `json:"target"`
	Learner  LearnerKind               `json:"learner,omitempty"`
	Machine  *automata.Mealy           `json:"machine,omitempty"`
	Nondet   *core.NondeterminismError `json:"nondet,omitempty"`
	Stats    learn.Stats               `json:"stats"`
	Guard    core.GuardStats           `json:"guard"`
	Faults   netem.Stats               `json:"faults"`
	Duration time.Duration             `json:"duration"`
}

// result converts the record back into the Result the run produced.
func (r *checkpointRecord) result() *Result {
	return RestoreResult(r.Target, r.Learner, r.Machine, r.Nondet,
		Metrics{Learner: r.Stats, Guard: r.Guard, Faults: r.Faults, Duration: r.Duration})
}

// WriteCheckpoint writes a fresh campaign checkpoint at path holding the
// given results, keyed by RunResult.Name (the target when unnamed).
// Results without a Result — errored or never-started runs — are skipped.
// Any existing file at path is replaced. This is the export half of the
// fleet merge stage: a coordinator reconstructs per-cell Results from
// worker artifacts and files them in one checkpoint that ReadCheckpoint,
// SummarizeMatrix and every other consumer read unchanged. Each record is
// one complete line per Write, so a crash loses at most the line in
// flight.
func WriteCheckpoint(path string, results []RunResult) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("lab: checkpoint: %w", err)
	}
	if err := jsonlog.Reset(f, checkpointFormat, checkpointVersion); err != nil {
		f.Close()
		return err
	}
	for _, r := range results {
		if r.Result == nil {
			continue
		}
		name := r.Name
		if name == "" {
			name = r.Target
		}
		rm := r.Result.Metrics()
		line, err := jsonlog.Marshal(checkpointRecord{
			Name: name, Target: r.Result.Target, Learner: r.Result.LearnerKind,
			Machine: r.Result.Machine, Nondet: r.Result.Nondet, Stats: rm.Learner,
			Guard: rm.Guard, Faults: rm.Faults, Duration: rm.Duration,
		})
		if err == nil {
			_, err = f.Write(line)
		}
		if err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// ReadCheckpoint loads the completed runs recorded in a campaign
// checkpoint, keyed by run name — the import half of WriteCheckpoint.
// Like the query store (both speak the jsonlog format), a corrupted,
// truncated, or unterminated tail is discarded and the valid prefix is
// returned; that recovery truncation is the only change made to the file.
// A file with a foreign or future header yields no runs.
func ReadCheckpoint(path string) (map[string]*Result, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("lab: checkpoint: %w", err)
	}
	defer f.Close()
	done := make(map[string]*Result)
	_, err = jsonlog.Recover(f, checkpointFormat, checkpointVersion, func(line []byte) bool {
		var rec checkpointRecord
		if json.Unmarshal(line, &rec) != nil || rec.Name == "" {
			return false
		}
		done[rec.Name] = rec.result()
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("lab: recover checkpoint: %w", err)
	}
	return done, nil
}
