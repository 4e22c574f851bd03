package netem_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/netem"
)

// TestLearningSucceedsOverFlakyLink: end-to-end, the guard lets the full
// learning pipeline succeed over a link with rare faults.
func TestLearningSucceedsOverFlakyLink(t *testing.T) {
	exp, err := lab.NewExperiment(lab.TargetQuiche,
		lab.WithImpairment(netem.Config{LossServer: 0.002, Seed: 5}),
		lab.WithGuard(core.GuardConfig{MinVotes: 3, MaxVotes: 80}),
		lab.WithPerfectEquivalence())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	res, err := exp.Learn(context.Background())
	dropped := exp.Faults().DroppedServer
	if err != nil || res.Nondet != nil {
		t.Fatalf("learning failed over flaky link (dropped %d): %v %v", dropped, err, res)
	}
	if res.Machine.NumStates() != 8 {
		t.Fatalf("learned %d states, want 8", res.Machine.NumStates())
	}
	if dropped == 0 {
		t.Log("note: no datagrams were dropped this run")
	}
}
