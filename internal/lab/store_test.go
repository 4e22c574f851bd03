package lab

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
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
