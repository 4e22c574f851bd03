package lab

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/netem"
)

// TestGuardUnderLossAcrossSeeds holds the voting guard to both sides of
// its §5 job over five seeds, at one worker, so each seed's run is
// deterministic: mvfst's stateless-RESET coin halts the learn on a 2%-loss
// link, and tcp through 5% loss each way, with the conformance-2 chain,
// learns its golden, settling some queries by their prediction
// (GuardStats.Predicted). Equivalence words settle at the vote floor when
// their executions reproduce the hypothesis's prediction, so a guard
// that trusted predictions too far would either hide the coin or learn a
// wrong tcp model here.
func TestGuardUnderLossAcrossSeeds(t *testing.T) {
	golden, err := analysis.LoadModel(filepath.Join("..", "analysis", "testdata", "tcp.json"))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		res := learnT(t, TargetMvfst, WithSeed(seed), WithConformance(2),
			WithImpairment(netem.Config{LossClient: 0.02, LossServer: 0.02, Seed: seed}))
		if res.Nondet == nil {
			t.Errorf("seed %d: mvfst at 2%% loss learned a model instead of halting on nondeterminism", seed)
		}
		res = learnT(t, TargetTCP, WithSeed(seed), WithConformance(2),
			WithImpairment(netem.Config{LossClient: 0.05, LossServer: 0.05, Seed: seed}))
		if res.Nondet != nil {
			t.Errorf("seed %d: tcp at 5%% loss halted: %v", seed, res.Nondet)
			continue
		}
		if res.Metrics().Guard.Predicted == 0 {
			t.Errorf("seed %d: no tcp query was settled by its prediction: %+v", seed, res.Metrics().Guard)
		}
		drift, err := analysis.CompareGolden(res.Model(), golden, 1)
		if err != nil {
			t.Fatal(err)
		}
		if drift != nil {
			t.Errorf("seed %d: tcp at 5%% loss drifted from its golden:\n%s", seed, drift)
		}
	}
}

// TestGuardHaltsMvfstCoinUnderLossSeeds holds the coin side at two seeds
// of `prognosis learn -target mvfst -loss 0.02 -conformance 2` (whose
// warmup is 100 random words) where a guard whose prediction prior could
// settle a tied or close split learned a model instead of halting: there
// the hypothesis predicts RESET, and the prior carried RESET-against-
// silence splits as close as 1–1.
func TestGuardHaltsMvfstCoinUnderLossSeeds(t *testing.T) {
	for _, seed := range []int64{23, 42} {
		res := learnT(t, TargetMvfst, WithSeed(seed), WithConformance(2), WithWarmup(100),
			WithImpairment(netem.Config{LossClient: 0.02, LossServer: 0.02, Seed: seed}))
		if res.Nondet == nil {
			t.Errorf("seed %d: mvfst at 2%% loss learned a model instead of halting on nondeterminism", seed)
		}
	}
}
