package lab

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
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
	Learner  core.LearnerKind          `json:"learner,omitempty"`
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

// checkpointFile appends completed runs to a campaign checkpoint. Append
// is safe for concurrent use (campaign runs finish on separate
// goroutines); each record is one complete JSON line per Write, so a crash
// loses at most the line in flight.
type checkpointFile struct {
	mu sync.Mutex
	f  *os.File
}

// openCheckpoint loads the completed runs recorded in path (creating the
// file if needed) and returns them keyed by run name alongside the
// appender for this campaign's own completions. Like the query store
// (both speak the jsonlog format), a corrupted, truncated, or
// unterminated tail is discarded and overwritten by the next append; a
// file with a foreign or future header is reset.
func openCheckpoint(path string) (map[string]*Result, *checkpointFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("lab: checkpoint: %w", err)
	}
	done := make(map[string]*Result)
	ok, err := jsonlog.Recover(f, checkpointFormat, checkpointVersion, func(line []byte) bool {
		var rec checkpointRecord
		if json.Unmarshal(line, &rec) != nil || rec.Name == "" {
			return false
		}
		done[rec.Name] = rec.result()
		return true
	})
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("lab: recover checkpoint: %w", err)
	}
	if !ok {
		if err := jsonlog.Reset(f, checkpointFormat, checkpointVersion); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return done, &checkpointFile{f: f}, nil
}

// append records one completed run. Failures are returned but the
// campaign treats them as non-fatal: a checkpoint that cannot grow costs
// resumability, not results.
func (c *checkpointFile) append(name string, res *Result) error {
	rm := res.Metrics()
	line, err := jsonlog.Marshal(checkpointRecord{
		Name:     name,
		Target:   res.Target,
		Learner:  res.LearnerKind,
		Machine:  res.Machine,
		Nondet:   res.Nondet,
		Stats:    res.Stats,
		Guard:    rm.Guard,
		Faults:   rm.Faults,
		Duration: res.Duration,
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err = c.f.Write(line)
	return err
}

func (c *checkpointFile) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.Close()
}

// WriteCheckpoint writes a fresh campaign checkpoint at path holding the
// given results, keyed by RunResult.Name (results without a Result —
// errored or never-started runs — are skipped, exactly as Campaign.Run
// skips journaling them). Any existing file at path is replaced. This is
// the export half of the fleet merge stage: a coordinator reconstructs
// per-cell Results from worker artifacts and files them under the same
// checkpoint format a single-process campaign writes, so `Campaign`
// resume, `SummarizeMatrix`, and every other checkpoint consumer read
// fleet-merged campaigns unchanged.
func WriteCheckpoint(path string, results []RunResult) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("lab: checkpoint: %w", err)
	}
	if err := jsonlog.Reset(f, checkpointFormat, checkpointVersion); err != nil {
		f.Close()
		return err
	}
	ckpt := &checkpointFile{f: f}
	for _, r := range results {
		if r.Result == nil {
			continue
		}
		name := r.Name
		if name == "" {
			name = r.Target
		}
		if err := ckpt.append(name, r.Result); err != nil {
			ckpt.close()
			return err
		}
	}
	return ckpt.close()
}

// ReadCheckpoint loads the completed runs recorded in a campaign
// checkpoint, keyed by run name — the import half of WriteCheckpoint.
// Corrupt or truncated tails are tolerated exactly as on campaign
// resume: the valid prefix is returned. The file is not modified beyond
// that recovery truncation.
func ReadCheckpoint(path string) (map[string]*Result, error) {
	done, ckpt, err := openCheckpoint(path)
	if err != nil {
		return nil, err
	}
	if err := ckpt.close(); err != nil {
		return nil, err
	}
	return done, nil
}
