package lab

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/netem"
	"repro/internal/testutil"
)

// checkpointResults are three finished runs as the fleet merge files
// them: two learned models and one §5 nondeterminism halt.
func checkpointResults() []RunResult {
	m := gaugeTruth()
	return []RunResult{
		{Name: "tcp", Result: RestoreResult(TargetTCP, LearnerTTT, m, nil, Metrics{
			Learner: learn.Stats{Queries: 7, Symbols: 9, Hits: 1}, Duration: time.Second,
		})},
		{Name: "mvfst", Result: RestoreResult(TargetMvfst, LearnerLStar, nil,
			&core.NondeterminismError{Word: []string{"a", "b"}, Observed: map[string]int{"x": 3, "y": 2}, Votes: 5},
			Metrics{Guard: core.GuardStats{Votes: 5, RetriedQueries: 1}})},
		{Name: "lossy", Result: RestoreResult(TargetGoogle, LearnerTTT, m, nil, Metrics{
			Guard:  core.GuardStats{Votes: 9, WastedVotes: 3, Predicted: 2},
			Faults: netem.Stats{SentClient: 4, DroppedClient: 1}, Duration: 1500,
		})},
	}
}

// sameResult compares a restored Result against the one written.
func sameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Target != want.Target || got.LearnerKind != want.LearnerKind || got.Metrics() != want.Metrics() {
		t.Fatalf("%s: restored %+v / %+v, want %+v / %+v", name, got, got.Metrics(), want, want.Metrics())
	}
	if (got.Machine == nil) != (want.Machine == nil) || (got.Nondet == nil) != (want.Nondet == nil) {
		t.Fatalf("%s: restored machine/nondet presence differs", name)
	}
	if want.Machine != nil {
		if eq, ce := want.Machine.Equivalent(got.Machine); !eq {
			t.Fatalf("%s: restored model diverges on %v", name, ce)
		}
	}
	if want.Nondet != nil && got.Nondet.Votes != want.Nondet.Votes {
		t.Fatalf("%s: restored nondeterminism verdict %+v, want %+v", name, got.Nondet, want.Nondet)
	}
}

// TestCheckpointRoundTrip: every result WriteCheckpoint files — a §5
// nondeterminism halt included — comes back from ReadCheckpoint with its
// outcome and counters intact; results without a Result are skipped.
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	results := append(checkpointResults(), RunResult{Name: "failed", Target: TargetTCP})
	if err := WriteCheckpoint(path, results); err != nil {
		t.Fatal(err)
	}
	done, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 3 {
		t.Fatalf("read %d runs, want 3: %v", len(done), done)
	}
	for _, r := range results[:3] {
		sameResult(t, r.Name, done[r.Name], r.Result)
	}
}

// TestReadCheckpointLegacyRecord: a record exactly as earlier releases
// wrote it (guard and fault counters as the top-level "guard"/"faults"
// objects, without the later Recasts and Predicted guard counters) still
// restores, its counters read through Metrics().
func TestReadCheckpointLegacyRecord(t *testing.T) {
	legacy := filepath.Join(t.TempDir(), "legacy.ckpt")
	if err := os.WriteFile(legacy, []byte(`{"format":"prognosis-campaign-checkpoint","version":1}
{"name":"lossy","target":"tcp","learner":"ttt","stats":{"Queries":7,"Symbols":9,"Hits":1},"guard":{"Votes":5,"Escalations":2,"RetriedQueries":1,"WastedVotes":3},"faults":{"SentClient":4,"DroppedClient":1,"SentServer":4,"DroppedServer":0,"Duplicated":2,"Reordered":1},"duration":1500}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	done, err := ReadCheckpoint(legacy)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := done["lossy"]
	if !ok {
		t.Fatalf("legacy record not restored: %v", done)
	}
	m := res.Metrics()
	if want := (core.GuardStats{Votes: 5, Escalations: 2, RetriedQueries: 1, WastedVotes: 3}); m.Guard != want {
		t.Fatalf("legacy guard = %+v, want %+v", m.Guard, want)
	}
	if want := (netem.Stats{SentClient: 4, DroppedClient: 1, SentServer: 4, Duplicated: 2, Reordered: 1}); m.Faults != want {
		t.Fatalf("legacy faults = %+v, want %+v", m.Faults, want)
	}
	if m.Learner.Queries != 7 || m.Duration != 1500 || res.LearnerKind != LearnerTTT {
		t.Fatalf("legacy record = %+v / %+v", res, m)
	}
}

// TestReadCheckpointTornWriteAtEveryOffset cuts a written checkpoint at
// every byte offset: ReadCheckpoint must never fail, and must restore
// exactly the runs whose lines were complete before the cut — a valid
// prefix, never a half-read record.
func TestReadCheckpointTornWriteAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ckpt")
	results := checkpointResults()
	if err := WriteCheckpoint(full, results); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(dir, "cut.ckpt")
	testutil.TornWrites(t, data, len(results), cutPath, func(cut, records int) {
		done, err := ReadCheckpoint(cutPath)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(done) != records {
			t.Fatalf("cut %d: restored %d runs, want the %d complete ones", cut, len(done), records)
		}
		for _, r := range results[:records] {
			got, ok := done[r.Name]
			if !ok {
				t.Fatalf("cut %d: complete run %s missing", cut, r.Name)
			}
			sameResult(t, r.Name, got, r.Result)
		}
	})
}
