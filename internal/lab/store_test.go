package lab

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netem"
)

// TestWithStoreWarmRelearn is the end-to-end incremental-learning
// contract: the first (cold) run of a target populates the store; a second
// run of the unchanged target warm-starts from it, issues zero live
// membership queries (the perfect equivalence oracle adds none), and
// reproduces the model byte for byte in canonical form — including the
// on-disk snapshot, which must not change when nothing changed.
func TestWithStoreWarmRelearn(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithSeed(13), WithPerfectEquivalence(), WithStore(dir)}

	cold, err := Run(context.Background(), TargetQuiche, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Queries == 0 {
		t.Fatal("cold run issued no live queries")
	}
	snapshots, err := filepath.Glob(filepath.Join(dir, "*.model.json"))
	if err != nil || len(snapshots) != 1 {
		t.Fatalf("snapshots after cold run: %v (%v)", snapshots, err)
	}
	snapBefore, err := os.ReadFile(snapshots[0])
	if err != nil {
		t.Fatal(err)
	}

	warm, err := Run(context.Background(), TargetQuiche, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Queries != 0 {
		t.Fatalf("warm relearn of an unchanged target issued %d live queries, want 0", warm.Stats.Queries)
	}
	if warm.Stats.Hits == 0 {
		t.Fatal("warm run reports no cache hits; the store did not preload")
	}
	if eq, ce := cold.Machine.Equivalent(warm.Machine); !eq {
		t.Fatalf("warm relearn diverged on %v", ce)
	}
	a, _ := json.Marshal(cold.Machine.Minimize())
	b, _ := json.Marshal(warm.Machine.Minimize())
	if string(a) != string(b) {
		t.Fatal("warm relearn not byte-identical in canonical form")
	}
	snapAfter, err := os.ReadFile(snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(snapBefore) != string(snapAfter) {
		t.Fatal("snapshot rewritten differently by a run that learned nothing new")
	}
}

// TestWithStoreKeysSeparateConfigurations: answer-affecting configuration
// must split store files — a lossy-link run of a state-leaking target and
// a clean run of the same target must not share a log.
func TestWithStoreKeysSeparateConfigurations(t *testing.T) {
	clean := runKey(TargetLossyRetransmit, config{seed: 13})
	impaired := runKey(TargetLossyRetransmit, config{seed: 13,
		impair: ImpairmentCell{Loss: 0.02}.Config(13), warmup: 100})
	if clean == impaired {
		t.Fatalf("clean and impaired runs share store key %q", clean)
	}
	otherSeed := runKey(TargetLossyRetransmit, config{seed: 14})
	if clean == otherSeed {
		t.Fatal("different seeds share a store key")
	}
	// Workers/RTT/transport do not change answers; they must share the log.
	if runKey(TargetGoogle, config{seed: 13, workers: 4}) != runKey(TargetGoogle, config{seed: 13}) {
		t.Fatal("worker count split the store key")
	}
	for _, r := range impaired {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			t.Fatalf("store key %q contains unsafe rune %q", impaired, r)
		}
	}
}

// TestRunKeyIsTheStoreKey is the fleet-identity regression test: the
// exported RunKey — the name the coordinator assigns a cell, files its
// merged checkpoint record under, and asks workers for store logs by —
// must be exactly the key WithStore files the query log under. If the two
// derivations ever diverged, a fleet-merged checkpoint and store could
// disagree about a cell's identity.
func TestRunKeyIsTheStoreKey(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{
		WithSeed(17),
		WithImpairment(ImpairmentCell{Loss: 0.05, Duplicate: 0.01}.Config(17)),
		WithWarmup(50),
		WithWorkers(2), // must NOT affect the key
		WithStore(dir),
	}
	exp, err := NewExperiment(TargetLossyRetransmit, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	key := RunKey(TargetLossyRetransmit, opts...)
	if key == "" {
		t.Fatal("empty run key")
	}
	if _, err := os.Stat(filepath.Join(dir, key+".log")); err != nil {
		entries, _ := filepath.Glob(filepath.Join(dir, "*.log"))
		t.Fatalf("experiment's store log is not named by RunKey %q (store dir holds %v)", key, entries)
	}
	// And the one-worker variant derives the identical identity.
	if solo := RunKey(TargetLossyRetransmit, opts[:3]...); solo != key {
		t.Fatalf("worker count split the run key: %q vs %q", solo, key)
	}
}

// sentinelQueries is an impossible live-query count planted into
// checkpoint records by tamperCheckpoint: a result carrying it can only
// have come from the checkpoint, never from a real relearn.
const sentinelQueries = 987654321

// tamperCheckpoint rewrites every record's stats.Queries to
// sentinelQueries, so tests can distinguish restored results from
// relearned ones.
func tamperCheckpoint(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := 1; i < len(lines); i++ { // line 0 is the header
		var rec map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Fatal(err)
		}
		var stats map[string]int64
		if err := json.Unmarshal(rec["stats"], &stats); err != nil {
			t.Fatal(err)
		}
		stats["Queries"] = sentinelQueries
		rec["stats"], _ = json.Marshal(stats)
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(b)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignCheckpointResume: a campaign with a checkpoint records
// completed runs; rerunning the campaign restores them without relearning
// — proven by planting a sentinel query count in the records, which a
// real relearn could never produce.
func TestCampaignCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	camp := &Campaign{
		Checkpoint: ckpt,
		Runs: []RunSpec{
			{Name: "tcp", Target: TargetTCP, Options: []Option{WithSeed(13)}},
			{Name: "quiche", Target: TargetQuiche, Options: []Option{WithSeed(13), WithPerfectEquivalence()}},
		},
	}
	first, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range first {
		if r.Err != nil || r.Result == nil || r.Result.Machine == nil {
			t.Fatalf("run %s failed: %+v", r.Name, r.Err)
		}
	}
	tamperCheckpoint(t, ckpt)

	second, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range second {
		if r.Err != nil || r.Result == nil || r.Result.Machine == nil {
			t.Fatalf("resumed run %s failed: %+v", r.Name, r.Err)
		}
		if r.Result.Stats.Queries != sentinelQueries {
			t.Fatalf("run %s was relearned instead of restored (queries=%d)", r.Name, r.Result.Stats.Queries)
		}
		if eq, ce := first[i].Result.Machine.Equivalent(r.Result.Machine); !eq {
			t.Fatalf("restored model for %s diverged on %v", r.Name, ce)
		}
	}

	// A record exactly as earlier releases wrote it (guard and fault
	// counters as the top-level "guard"/"faults" objects) still restores,
	// its counters read through Metrics().
	legacy := filepath.Join(t.TempDir(), "legacy.ckpt")
	if err := os.WriteFile(legacy, []byte(`{"format":"prognosis-campaign-checkpoint","version":1}
{"name":"lossy","target":"tcp","learner":"ttt","stats":{"Queries":7,"Symbols":9,"Hits":1},"guard":{"Votes":5,"Escalations":2,"RetriedQueries":1,"WastedVotes":3},"faults":{"SentClient":4,"DroppedClient":1,"SentServer":4,"DroppedServer":0,"Duplicated":2,"Reordered":1},"duration":1500}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	done, f, err := openCheckpoint(legacy)
	if err != nil {
		t.Fatal(err)
	}
	f.close()
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
	if m.Learner.Queries != 7 || m.Duration != 1500 || res.LearnerKind != core.LearnerTTT {
		t.Fatalf("legacy record = %+v / %+v", res, m)
	}
}

// TestCampaignCheckpointIgnoresRetargetedName: a record whose target no
// longer matches the spec (the campaign was edited but kept the run name)
// must be relearned, not restored — restoring would attribute the old
// target's model to the new one.
func TestCampaignCheckpointIgnoresRetargetedName(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	camp := &Campaign{
		Checkpoint: ckpt,
		Runs:       []RunSpec{{Name: "run", Target: TargetTCP, Options: []Option{WithSeed(13)}}},
	}
	if _, err := camp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	tamperCheckpoint(t, ckpt)
	retargeted := &Campaign{
		Checkpoint: ckpt,
		Runs: []RunSpec{{Name: "run", Target: TargetQuiche,
			Options: []Option{WithSeed(13), WithPerfectEquivalence()}}},
	}
	results, err := retargeted.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Err != nil || r.Result == nil || r.Result.Machine == nil {
		t.Fatalf("retargeted run failed: %+v", r.Err)
	}
	if r.Result.Stats.Queries == sentinelQueries {
		t.Fatal("stale tcp record restored for the retargeted quiche run")
	}
	if r.Result.Machine.NumStates() != 8 {
		t.Fatalf("retargeted run learned %d states, want quiche's 8", r.Result.Machine.NumStates())
	}
}

// TestCampaignCheckpointPartialResume: only the missing runs of an
// interrupted campaign execute on resume, and a corrupted checkpoint tail
// costs exactly the run it recorded.
func TestCampaignCheckpointPartialResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	firstHalf := &Campaign{
		Checkpoint: ckpt,
		Runs:       []RunSpec{{Name: "tcp", Target: TargetTCP, Options: []Option{WithSeed(13)}}},
	}
	if _, err := firstHalf.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	tamperCheckpoint(t, ckpt)
	// Simulate a crash mid-append of a second record: a truncated tail.
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, append(raw, []byte(`{"name":"qui`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	full := &Campaign{
		Checkpoint: ckpt,
		Runs: []RunSpec{
			{Name: "tcp", Target: TargetTCP, Options: []Option{WithSeed(13)}},
			{Name: "quiche", Target: TargetQuiche, Options: []Option{WithSeed(13), WithPerfectEquivalence()}},
		},
	}
	results, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[0].Result == nil ||
		results[0].Result.Stats.Queries != sentinelQueries {
		t.Fatalf("checkpointed tcp run not restored: %+v", results[0])
	}
	if results[1].Err != nil || results[1].Result == nil || results[1].Result.Machine == nil {
		t.Fatalf("missing quiche run not executed: %+v", results[1].Err)
	}
	if results[1].Result.Machine.NumStates() != 8 {
		t.Fatalf("resumed quiche learned %d states, want 8", results[1].Result.Machine.NumStates())
	}
}

// TestCampaignCheckpointRecordsNondet: a §5 nondeterminism halt is a
// completed analysis and must be checkpointed (not retried on resume).
func TestCampaignCheckpointRecordsNondet(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	camp := &Campaign{
		Checkpoint: ckpt,
		Runs:       []RunSpec{{Name: "mvfst", Target: TargetMvfst, Options: []Option{WithSeed(13)}}},
	}
	first, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Err != nil || first[0].Result == nil || first[0].Result.Nondet == nil {
		t.Fatalf("mvfst did not halt on nondeterminism: %+v", first[0])
	}
	tamperCheckpoint(t, ckpt)
	second, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second[0].Err != nil || second[0].Result == nil || second[0].Result.Nondet == nil {
		t.Fatalf("nondeterminism verdict not restored: %+v", second[0])
	}
	if second[0].Result.Stats.Queries != sentinelQueries {
		t.Fatal("mvfst verdict was re-derived instead of restored")
	}
	if second[0].Result.Nondet.Votes != first[0].Result.Nondet.Votes {
		t.Fatal("restored nondeterminism verdict differs")
	}
}
