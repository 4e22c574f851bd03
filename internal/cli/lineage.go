package cli

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/jsonlog"
)

// lineageFormat and lineageVersion identify the monitor's lineage
// journal. Like the query store, a journal whose header names a foreign
// format or a newer version is reset rather than misread.
const (
	lineageFormat  = "prognosisd-lineage"
	lineageVersion = 1
)

// LineageRecord is one line of the monitor's lineage journal: which
// query-log version (the persistent store's entry count at snapshot
// time) produced which model version of which monitored cell, and what
// the cycle concluded about drift. The journal is append-only JSONL
// through internal/jsonlog, so a daemon killed mid-append costs at most
// the line in flight — the valid prefix survives.
type LineageRecord struct {
	// Cell names the monitored (target × config) cell — the manifest
	// entry's target name.
	Cell string `json:"cell"`
	// ModelVersion counts this cell's distinct model snapshots, 1-based.
	// An unchanged cycle re-references the current version.
	ModelVersion int `json:"model_version"`
	// LogVersion is the shared query store's entry count when the cycle's
	// relearn finished — the query-log version this model version was
	// produced from.
	LogVersion int64 `json:"log_version"`
	// Model is the snapshot filename (under the monitor's snapshots
	// directory) this record refers to; empty for nondet outcomes.
	Model string `json:"model,omitempty"`
	// Nondet marks a cycle whose relearn halted on the §5 analysis.
	Nondet bool `json:"nondet,omitempty"`
	// LiveQueries is what the relearn cost on the wire. An unchanged
	// target warm-relearned from the store costs zero.
	LiveQueries int64 `json:"live_queries"`
	// Drift marks a cycle whose outcome diverged from the cell's previous
	// snapshot; Confirmed marks that the witness reproduced the
	// divergence against the live target (only confirmed drift raises the
	// alarm and advances the baseline).
	Drift     bool      `json:"drift,omitempty"`
	Confirmed bool      `json:"confirmed,omitempty"`
	Witness   []string  `json:"witness,omitempty"`
	At        time.Time `json:"at"`
}

// Lineage is the open lineage journal. Safe for concurrent use.
type Lineage struct {
	mu   sync.Mutex
	f    *os.File
	recs []LineageRecord
}

// OpenLineage opens (creating if needed) the lineage journal at path,
// recovering the longest valid prefix: a corrupt or truncated tail —
// a daemon killed mid-append — is discarded, exactly like the query
// store's log. A foreign or future-version file is reset empty.
func OpenLineage(path string) (*Lineage, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("monitor: open lineage: %w", err)
	}
	l := &Lineage{f: f}
	ok, err := jsonlog.Recover(f, lineageFormat, lineageVersion, func(line []byte) bool {
		var rec LineageRecord
		if json.Unmarshal(line, &rec) != nil || rec.Cell == "" || rec.ModelVersion < 1 {
			return false
		}
		l.recs = append(l.recs, rec)
		return true
	})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("monitor: recover lineage: %w", err)
	}
	if !ok {
		l.recs = nil
		if err := jsonlog.Reset(f, lineageFormat, lineageVersion); err != nil {
			f.Close()
			return nil, err
		}
	}
	return l, nil
}

// Append journals one record (a single complete-line write).
func (l *Lineage) Append(rec LineageRecord) error {
	line, err := jsonlog.Marshal(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(line); err != nil {
		return fmt.Errorf("monitor: append lineage: %w", err)
	}
	l.recs = append(l.recs, rec)
	return nil
}

// Records returns a copy of every recovered and appended record, in
// journal order.
func (l *Lineage) Records() []LineageRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]LineageRecord(nil), l.recs...)
}

// Latest returns the cell's most recent record, if any.
func (l *Lineage) Latest(cell string) (LineageRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.recs) - 1; i >= 0; i-- {
		if l.recs[i].Cell == cell {
			return l.recs[i], true
		}
	}
	return LineageRecord{}, false
}

// Close releases the journal file.
func (l *Lineage) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
