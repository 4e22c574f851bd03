package cli

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// TestManifestCellsLearnWithBothLearners learns every regress.json cell
// with L* and with TTT, each under the manifest's own configuration
// (lossy-retransmit's 2% loss and warmup included): whichever learner
// asks, every model must equal its golden and mvfst must halt on
// nondeterminism.
func TestManifestCellsLearnWithBothLearners(t *testing.T) {
	m, err := LoadRegressManifest(filepath.Join("..", "..", DefaultManifest))
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range m.Targets {
		for _, learner := range []string{"lstar", "ttt"} {
			t.Run(rt.Name+"/"+learner, func(t *testing.T) {
				exp, res, err := LearnTarget(context.Background(), rt.Name, rt.Config(learner, 1, ""), nil)
				if err != nil {
					t.Fatalf("%s on %s: %v", learner, rt.Name, err)
				}
				defer exp.Close()
				t.Logf("%s on %s: %d live queries", learner, rt.Name, res.Stats.Queries)
				if rt.Expect == expectNondet {
					if res.Nondet == nil {
						t.Fatalf("%s on %s learned a %d-state model, want the §5 nondeterminism halt",
							learner, rt.Name, res.Machine.NumStates())
					}
					return
				}
				if res.Nondet != nil {
					t.Fatalf("%s on %s halted on nondeterminism: %v", learner, rt.Name, res.Nondet)
				}
				golden, err := analysis.LoadModel(filepath.Join(m.Dir, rt.Golden))
				if err != nil {
					t.Fatal(err)
				}
				drift, err := analysis.CompareGolden(res.Model(), golden, 1)
				if err != nil {
					t.Fatal(err)
				}
				if drift != nil {
					t.Fatalf("%s on %s: %s", learner, rt.Name, drift)
				}
			})
		}
	}
}
