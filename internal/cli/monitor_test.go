package cli

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/learn"
	"repro/pkg/client"
)

// The monitor's manifests name a golden because manifest validation
// requires one, but the monitor never reads it (its baselines are its own
// lineage snapshots), so it may name a file that does not exist.

// TestMonitorUnchangedTargetZeroLiveQueries is one acceptance criterion:
// a monitor cycle over an unchanged target warm-relearns entirely from
// the shared query store and records a lineage entry with ZERO live
// queries — continuous monitoring of a stable target costs nothing on
// the wire.
func TestMonitorUnchangedTargetZeroLiveQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("two full learns")
	}
	ctx := context.Background()
	dataDir := t.TempDir()
	manifest := writeManifest(t, t.TempDir(),
		`{"version":1,"targets":[{"name":"tcp","golden":"unused.json","seed":13,"conformance":2}]}`)
	opt := MonitorOptions{Manifest: manifest, DataDir: dataDir}

	sum, report, err := RunMonitorCycle(ctx, opt, nil)
	if err != nil {
		t.Fatalf("first cycle: %v\n%s", err, report)
	}
	if sum.Alarms != 0 || sum.RegressTargets != 1 {
		t.Fatalf("first cycle summary = %+v", sum)
	}
	if sum.Queries == 0 {
		t.Fatal("first (cold) cycle reported zero live queries")
	}

	sum, report, err = RunMonitorCycle(ctx, opt, nil)
	if err != nil {
		t.Fatalf("second cycle: %v\n%s", err, report)
	}
	if sum.Alarms != 0 {
		t.Fatalf("unchanged target raised an alarm:\n%s", report)
	}
	if sum.Queries != 0 {
		t.Fatalf("unchanged target cost %d live queries, want 0\n%s", sum.Queries, report)
	}

	lin, err := OpenLineage(filepath.Join(dataDir, "monitor", "lineage.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer lin.Close()
	recs := lin.Records()
	if len(recs) != 2 {
		t.Fatalf("lineage has %d records, want 2:\n%+v", len(recs), recs)
	}
	first, second := recs[0], recs[1]
	if first.ModelVersion != 1 || first.LiveQueries == 0 || first.Drift {
		t.Fatalf("baseline record = %+v", first)
	}
	if second.ModelVersion != 1 || second.Model != first.Model || second.LiveQueries != 0 || second.Drift {
		t.Fatalf("unchanged-cycle record = %+v (baseline %+v)", second, first)
	}
	if first.LogVersion == 0 || second.LogVersion != first.LogVersion {
		t.Fatalf("log versions %d → %d; an unchanged cycle must not grow the query log",
			first.LogVersion, second.LogVersion)
	}
	// The single snapshot both records reference exists.
	if _, err := os.Stat(filepath.Join(dataDir, "monitor", "snapshots", first.Model)); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorDriftAlarmOnMutatedTarget is the other acceptance
// criterion: when the monitored cell's behaviour changes (here, the
// lossy-retransmit target reconfigured from a clean link to the
// loss+warmup profile that flips it into degraded double-send mode), the
// cycle detects the divergence, replays the shortest witness against the
// live target, and raises a confirmed drift alarm carrying it.
func TestMonitorDriftAlarmOnMutatedTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("two full learns")
	}
	ctx := context.Background()
	dataDir := t.TempDir()
	clean := writeManifest(t, t.TempDir(),
		`{"version":1,"targets":[{"name":"lossy-retransmit","golden":"unused.json","seed":13,"conformance":2}]}`)
	mutated := writeManifest(t, t.TempDir(),
		`{"version":1,"targets":[{"name":"lossy-retransmit","golden":"unused.json","seed":13,"conformance":2,`+
			`"loss":0.02,"warmup":100}]}`)

	sum, report, err := RunMonitorCycle(ctx, MonitorOptions{Manifest: clean, DataDir: dataDir}, nil)
	if err != nil {
		t.Fatalf("baseline cycle: %v\n%s", err, report)
	}
	if sum.Alarms != 0 {
		t.Fatalf("baseline cycle alarmed:\n%s", report)
	}

	// The mutated cycle must alarm, and the alarm must reach the observer
	// as a typed drift_alarm event (the daemon's SSE path).
	var alarms []client.DriftAlarm
	obs := learn.ObserverFunc(func(e learn.Event) {
		if a, ok := e.(client.DriftAlarm); ok {
			alarms = append(alarms, a)
		}
	})
	sum, report, err = RunMonitorCycle(ctx, MonitorOptions{Manifest: mutated, DataDir: dataDir}, obs)
	if err != nil {
		t.Fatalf("mutated cycle: %v\n%s", err, report)
	}
	if sum.Alarms != 1 || len(sum.Drifted) != 1 || sum.Drifted[0] != "lossy-retransmit" {
		t.Fatalf("mutated cycle summary = %+v\n%s", sum, report)
	}
	if len(alarms) != 1 {
		t.Fatalf("observer saw %d drift alarms, want 1", len(alarms))
	}
	a := alarms[0]
	if a.Cell != "lossy-retransmit" || !a.Confirmed {
		t.Fatalf("alarm = %+v", a)
	}
	if len(a.Witness) == 0 {
		t.Fatal("alarm carries no witness")
	}
	// The alarm fired only after the witness replayed live: Got is what
	// the live target answered, and it must diverge from the baseline's
	// prediction.
	if len(a.Got) != len(a.Witness) || len(a.Expected) != len(a.Witness) {
		t.Fatalf("witness outputs not aligned: %+v", a)
	}
	if slices.Equal(a.Got, a.Expected) {
		t.Fatalf("live outputs match the baseline — nothing drifted: %+v", a)
	}
	if a.ModelVersion != 2 {
		t.Fatalf("alarm model version = %d, want 2", a.ModelVersion)
	}
	if !strings.Contains(report, "DRIFT ALARM") {
		t.Fatalf("report missing the alarm:\n%s", report)
	}

	lin, err := OpenLineage(filepath.Join(dataDir, "monitor", "lineage.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer lin.Close()
	latest, ok := lin.Latest("lossy-retransmit")
	if !ok || !latest.Drift || !latest.Confirmed || latest.ModelVersion != 2 {
		t.Fatalf("lineage after drift = %+v, %v", latest, ok)
	}
	// Both model versions are snapshotted: the lineage can answer "what
	// did v1 look like" after the baseline advanced.
	for _, name := range []string{"lossy-retransmit.v1.json", "lossy-retransmit.v2.json"} {
		if _, err := os.Stat(filepath.Join(dataDir, "monitor", "snapshots", name)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMonitorNondetCell: a cell whose golden outcome is the §5
// nondeterminism halt records nondet lineage and does not alarm while it
// stays nondeterministic.
func TestMonitorNondetCell(t *testing.T) {
	if testing.Short() {
		t.Skip("two full learns")
	}
	ctx := context.Background()
	dataDir := t.TempDir()
	manifest := writeManifest(t, t.TempDir(),
		`{"version":1,"targets":[{"name":"mvfst","expect":"nondet","seed":13}]}`)
	opt := MonitorOptions{Manifest: manifest, DataDir: dataDir}

	for cycle := 1; cycle <= 2; cycle++ {
		sum, report, err := RunMonitorCycle(ctx, opt, nil)
		if err != nil {
			t.Fatalf("cycle %d: %v\n%s", cycle, err, report)
		}
		if sum.Alarms != 0 {
			t.Fatalf("cycle %d alarmed on a stably nondet cell:\n%s", cycle, report)
		}
	}
	lin, err := OpenLineage(filepath.Join(dataDir, "monitor", "lineage.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer lin.Close()
	recs := lin.Records()
	if len(recs) != 2 || !recs[0].Nondet || !recs[1].Nondet {
		t.Fatalf("lineage = %+v, want two nondet records", recs)
	}
	if recs[0].ModelVersion != 1 || recs[1].ModelVersion != 1 {
		t.Fatalf("nondet records advanced the model version: %+v", recs)
	}
}
