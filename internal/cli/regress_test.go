package cli

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// TestRegressGolden pins what `prognosis regress` prints for the default
// manifest, cold at one worker: every cell's verdict and live-query
// count, byte for byte. CI compares the binary's cold output with the
// same file.
func TestRegressGolden(t *testing.T) {
	manifest := filepath.Join("..", "..", DefaultManifest)
	got, err := capture(t, func() error { return Regress([]string{"-manifest", manifest}) })
	if err != nil {
		t.Fatalf("regress: %v\n%s", err, got)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "regress.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("regress output differs from testdata/regress.txt\n got:\n%s\nwant:\n%s", got, want)
	}
}

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
