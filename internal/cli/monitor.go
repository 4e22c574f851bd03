package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/learn"
	"repro/internal/metrics"
	"repro/pkg/client"
)

// This file is the continuous drift monitor: a scheduled (or one-shot)
// cycle that warm-relearns every (target × config) cell of a regression
// manifest, records time-versioned model snapshots with lineage — which
// query-log version produced which model version, appended to a
// crash-tolerant JSONL journal — and raises drift alarms carrying the
// shortest distinguishing witness. An alarm only fires after the witness
// is replayed against the live target and the divergence reproduces;
// unconfirmed drift (a transient flaky learn) is journaled but does not
// advance the baseline or alarm. Each cell goes through the same
// relearn-and-compare step as regress (relearnCell); only the baseline
// differs — the cell's previous snapshot instead of its golden. Alarms
// reach observers as client.DriftAlarm events (prognosisd's "drift_alarm"
// SSE events) and the prognosisd_monitor_* metric families. See
// docs/MONITORING.md.

var (
	metricMonitorCycles = metrics.Default().Counter("prognosisd_monitor_cycles_total",
		"Completed monitor cycles (every manifest cell warm-relearned once).")
	metricMonitorDrift = metrics.Default().Counter("prognosisd_monitor_drift_alarms_total",
		"Drift alarms raised with a live-confirmed witness.")
)

// Monitor implements `prognosis monitor`: run monitor cycles over a
// manifest. With -interval it keeps cycling; without, one cycle runs and
// the command fails if any alarm fired.
func Monitor(args []string) error {
	fs := flag.NewFlagSet("prognosis monitor", flag.ContinueOnError)
	manifest := fs.String("manifest", DefaultManifest,
		"regression manifest naming the monitored (target × config) cells")
	data := fs.String("data", "prognosis-monitor",
		"monitor state root: lineage journal, model snapshots, and the shared query store")
	targets := fs.String("targets", "", "comma-separated subset of manifest cells to monitor (default: all)")
	workers := fs.Int("workers", 1, "membership-query concurrency per relearn")
	witnesses := fs.Int("witnesses", 3, "distinguishing traces to collect per drifted cell")
	interval := fs.Duration("interval", 0, "keep cycling at this interval (0 = one cycle, exit nonzero on alarm)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("monitor takes no positional arguments (got %v)", fs.Args())
	}

	ctx, stop := signalContext()
	defer stop()
	opt := MonitorOptions{
		Manifest: *manifest, Targets: *targets, DataDir: *data,
		Workers: *workers, Witnesses: *witnesses,
	}
	for {
		sum, report, err := RunMonitorCycle(ctx, opt, nil)
		fmt.Print(report)
		if err != nil {
			return err
		}
		fmt.Printf("monitor cycle: %d cells, %d live queries, %d alarm(s)\n",
			sum.RegressTargets, sum.Queries, sum.Alarms)
		if *interval <= 0 {
			if sum.Alarms > 0 {
				return fmt.Errorf("%d cell(s) drifted with live-confirmed witnesses: %s",
					sum.Alarms, strings.Join(sum.Drifted, ", "))
			}
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*interval):
		}
	}
}

// MonitorOptions configures one monitor cycle.
type MonitorOptions struct {
	// Manifest is the regression manifest naming the monitored cells
	// ("" = DefaultManifest). Targets optionally restricts it to a
	// comma-separated subset.
	Manifest string
	Targets  string
	// DataDir is the monitor's state root: lineage and model snapshots
	// live under DataDir/monitor, and relearns warm-start from the shared
	// query store under DataDir/store — the same store daemon jobs use,
	// which is what makes an unchanged cell's cycle cost zero live
	// queries.
	DataDir string
	// Workers is the membership-query concurrency per relearn (default 1).
	Workers int
	// Witnesses bounds the distinguishing traces collected per drifted
	// cell (default 3).
	Witnesses int
}

func (o *MonitorOptions) defaults() {
	if o.Manifest == "" {
		o.Manifest = DefaultManifest
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Witnesses < 1 {
		o.Witnesses = 3
	}
}

// cellOutcome is what one cell's cycle concluded, for the report.
type cellOutcome struct {
	rec   LineageRecord
	alarm *client.DriftAlarm
	note  string
}

// RunMonitorCycle is the monitor verb, one cycle: every selected manifest
// cell is warm-relearned, snapshotted into the lineage journal, and
// compared against its previous snapshot. It returns the cycle's job
// summary (cells, live queries, alarms, drifted cells) and the
// human-readable cycle report, which `prognosis monitor` prints and
// prognosisd serves as the job's witness.txt. obs, when non-nil,
// receives the relearns' typed event streams plus a client.DriftAlarm
// event per confirmed drift.
func RunMonitorCycle(ctx context.Context, opt MonitorOptions, obs learn.Observer) (*client.Summary, string, error) {
	opt.defaults()
	m, err := LoadRegressManifest(opt.Manifest)
	if err != nil {
		return nil, "", err
	}
	selected, err := m.Filter(opt.Targets)
	if err != nil {
		return nil, "", err
	}
	monDir := filepath.Join(opt.DataDir, "monitor")
	snapDir := filepath.Join(monDir, "snapshots")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, "", err
	}
	lin, err := OpenLineage(filepath.Join(monDir, "lineage.jsonl"))
	if err != nil {
		return nil, "", err
	}
	defer lin.Close()
	storeDir := filepath.Join(opt.DataDir, "store")

	sum := &client.Summary{RegressTargets: len(selected)}
	var buf strings.Builder
	for _, rt := range selected {
		out, err := monitorCell(ctx, rt, lin, snapDir, storeDir, opt, obs)
		sum.Queries += out.rec.LiveQueries
		if err != nil {
			return sum, buf.String(), fmt.Errorf("cell %s: %w", rt.Name, err)
		}
		fmt.Fprintf(&buf, "monitor %s: %s — model v%d, log v%d, %d live queries\n",
			rt.Name, out.note, out.rec.ModelVersion, out.rec.LogVersion, out.rec.LiveQueries)
		if out.alarm != nil {
			sum.Alarms++
			sum.Drifted = append(sum.Drifted, rt.Name)
			metricMonitorDrift.Inc()
			if obs != nil {
				obs.OnEvent(*out.alarm)
			}
			fmt.Fprintf(&buf, "  DRIFT ALARM: witness %v confirmed live\n  %s\n",
				out.alarm.Witness, strings.ReplaceAll(strings.TrimSpace(out.alarm.Diff), "\n", "\n  "))
		} else if out.rec.Drift {
			fmt.Fprintf(&buf, "  drift observed but NOT confirmed live (transient) — baseline kept\n")
		}
	}
	metricMonitorCycles.Inc()
	return sum, buf.String(), nil
}

// monitorCell runs one cell's cycle: warm relearn and drift comparison
// against the previous snapshot (the shared relearnCell step), lineage
// snapshot, and — when the models diverge — live witness confirmation.
func monitorCell(ctx context.Context, rt RegressTarget, lin *Lineage,
	snapDir, storeDir string, opt MonitorOptions, obs learn.Observer) (cellOutcome, error) {
	prev, havePrev := lin.Latest(rt.Name)
	run, err := relearnCell(ctx, rt, storeDir, opt.Workers, opt.Witnesses, obs, func() (*analysis.Model, error) {
		if !havePrev || prev.Model == "" {
			return nil, nil
		}
		baseline, err := analysis.LoadModel(filepath.Join(snapDir, prev.Model))
		if err != nil {
			return nil, fmt.Errorf("load baseline snapshot: %w", err)
		}
		baseline.Name = fmt.Sprintf("%s@v%d", rt.Name, prev.ModelVersion)
		return baseline, nil
	})
	if run == nil {
		return cellOutcome{}, err
	}
	defer run.exp.Close()
	rec := LineageRecord{
		Cell:        rt.Name,
		LogVersion:  int64(run.exp.StoreEntries()),
		LiveQueries: run.res.Stats.Queries,
		At:          time.Now(),
	}
	if err != nil {
		return cellOutcome{rec: rec}, err
	}

	// Nondeterministic outcome: the §5 halt is itself a live observation,
	// so a model→nondet (or nondet→model) transition is confirmed drift
	// by construction — no replay needed.
	if nd := run.res.Nondet; nd != nil {
		rec.Nondet = true
		switch {
		case !havePrev:
			rec.ModelVersion = 1
			return cellOutcome{rec: rec, note: "baseline recorded (nondet)"}, lin.Append(rec)
		case prev.Nondet:
			rec.ModelVersion = prev.ModelVersion
			return cellOutcome{rec: rec, note: "OK (still nondet)"}, lin.Append(rec)
		default:
			rec.ModelVersion = prev.ModelVersion + 1
			rec.Drift, rec.Confirmed = true, true
			rec.Witness = nd.Word
			alarm := &client.DriftAlarm{
				Cell: rt.Name, Witness: rec.Witness, Confirmed: true,
				Diff:         fmt.Sprintf("target became nondeterministic: %v", nd),
				ModelVersion: rec.ModelVersion, LogVersion: rec.LogVersion,
			}
			return cellOutcome{rec: rec, alarm: alarm, note: "DRIFT (became nondet)"}, lin.Append(rec)
		}
	}

	// First sight of a model for this cell: either a fresh baseline or a
	// nondet→model transition.
	if !havePrev || prev.Model == "" {
		version := 1
		note := "baseline recorded"
		var alarm *client.DriftAlarm
		if havePrev {
			version = prev.ModelVersion + 1
			rec.Drift, rec.Confirmed = true, true
			note = "DRIFT (was nondet, learned a model)"
			alarm = &client.DriftAlarm{
				Cell: rt.Name, Confirmed: true,
				Diff:         fmt.Sprintf("previously nondeterministic; now a deterministic %d-state model", run.learned.States()),
				ModelVersion: version, LogVersion: rec.LogVersion,
			}
		}
		rec.ModelVersion = version
		rec.Model, err = saveSnapshot(run.learned, snapDir, rt.Name, version)
		if err != nil {
			return cellOutcome{}, err
		}
		return cellOutcome{rec: rec, alarm: alarm, note: note}, lin.Append(rec)
	}

	if run.drift == nil {
		rec.ModelVersion = prev.ModelVersion
		rec.Model = prev.Model
		return cellOutcome{rec: rec, note: "OK (unchanged)"}, lin.Append(rec)
	}

	// The models diverge. Before alarming, replay the shortest witness
	// against the live target through the experiment's §5 guard: only a
	// reproduced divergence is real drift — a flaky learn that cannot be
	// reproduced keeps the baseline and alarms nobody.
	w := run.drift.Witness
	rec.Drift = true
	rec.Witness = w.Word
	live, err := run.exp.Oracle().Query(ctx, w.Word)
	if err != nil {
		return cellOutcome{}, fmt.Errorf("replay witness: %w", err)
	}
	if slices.Equal(live, w.OutputsB) {
		// The live target still answers like the baseline: transient.
		rec.ModelVersion = prev.ModelVersion
		rec.Model = prev.Model
		return cellOutcome{rec: rec, note: "drift NOT confirmed"}, lin.Append(rec)
	}
	rec.Confirmed = true
	rec.ModelVersion = prev.ModelVersion + 1
	rec.Model, err = saveSnapshot(run.learned, snapDir, rt.Name, rec.ModelVersion)
	if err != nil {
		return cellOutcome{}, err
	}
	alarm := &client.DriftAlarm{
		Cell: rt.Name, Witness: w.Word,
		Expected: w.OutputsB, Got: live, Confirmed: true,
		Diff:         run.drift.String(),
		ModelVersion: rec.ModelVersion, LogVersion: rec.LogVersion,
	}
	return cellOutcome{rec: rec, alarm: alarm, note: "DRIFT confirmed"}, lin.Append(rec)
}

// saveSnapshot writes one time-versioned model snapshot and returns its
// filename (relative to snapDir, as lineage records reference it).
func saveSnapshot(m *analysis.Model, snapDir, cell string, version int) (string, error) {
	name := fmt.Sprintf("%s.v%d.json", cell, version)
	if err := m.Save(filepath.Join(snapDir, name)); err != nil {
		return "", err
	}
	return name, nil
}
