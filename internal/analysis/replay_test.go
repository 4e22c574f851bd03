package analysis

import (
	"context"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/quicsim"
)

// flakyOracle corrupts every third execution's outputs — a stand-in for a
// lossy replay link.
func flakyOracle(m learn.Oracle) learn.Oracle {
	var calls int64
	return learn.OracleFunc(func(ctx context.Context, word []string) ([]string, error) {
		out, err := m.Query(ctx, word)
		if err != nil {
			return nil, err
		}
		if atomic.AddInt64(&calls, 1)%3 == 0 {
			corrupted := append([]string(nil), out...)
			corrupted[len(corrupted)-1] = "{CORRUPTED}"
			return corrupted, nil
		}
		return out, nil
	})
}

// flakyRate is the share of flakyOracle's executions a fault reaches.
const flakyRate = 1.0 / 3

// guarded settles every query on o with the §5 guard over a link of the
// given fault rate, as lab.Experiment.Oracle does.
func guarded(o learn.Oracle, faultRate float64) learn.Oracle {
	return core.NewGuardian(core.DefaultGuard(), faultRate, nil, nil).Wrap(o)
}

// scripted answers its executions in turn from execs, cycling.
func scripted(execs ...[]string) learn.Oracle {
	var calls int
	return learn.OracleFunc(func(ctx context.Context, word []string) ([]string, error) {
		calls++
		return execs[(calls-1)%len(execs)], nil
	})
}

// TestReplayMajorityOutvotesFlakiness: a guard that knows the link's
// fault rate outvotes the corrupted executions of a witness replay.
func TestReplayMajorityOutvotesFlakiness(t *testing.T) {
	g := quicsim.GroundTruth(quicsim.ProfileGoogle)
	w := DiffWitness{Word: []string{quicsim.SymInitialCrypto, quicsim.SymHandshakeC}}
	want, _ := g.Run(w.Word)
	confirmed, err := ConfirmWitness(context.Background(), w,
		guarded(flakyOracle(learn.MealyOracle(g)), flakyRate), learn.MealyOracle(g.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(confirmed.LiveA, want) {
		t.Fatalf("guarded replay %v, want %v", confirmed.LiveA, want)
	}
}

func TestReplayShortOutputRejected(t *testing.T) {
	short := learn.OracleFunc(func(ctx context.Context, word []string) ([]string, error) {
		return []string{"only-one"}, nil
	})
	w := DiffWitness{Word: []string{"a", "b"}}
	if _, err := ConfirmWitness(context.Background(), w, short, short); err == nil {
		t.Fatal("short output accepted")
	}
}

// TestConfirmWitnessNeverStitchesExecutions: a guarded replay answers
// only what its executions agree on. Executions that split at the first
// position must not be answered position by position ([A S] is no
// execution's answer), and an even RESET/silence split, the shape of
// mvfst's stateless-RESET coin, must not be settled by a tie-break. Both
// end in a *core.NondeterminismError, on a clean link and on a lossy one.
func TestConfirmWitnessNeverStitchesExecutions(t *testing.T) {
	stitch := [][]string{{"A", "P"}, {"A", "Q"}, {"A", "R"}, {"B", "S"}, {"B", "S"}}
	coin := [][]string{{"RESET"}, {"{}"}, {"{}"}, {"RESET"}}
	for _, rate := range []float64{0, 0.05} {
		for _, execs := range [][][]string{stitch, coin} {
			w := DiffWitness{Word: make([]string, len(execs[0]))}
			r, err := ConfirmWitness(context.Background(), w,
				guarded(scripted(execs...), rate), scripted(execs[0]))
			if _, ok := core.IsNondeterminism(err); !ok {
				t.Errorf("fault rate %g, executions %v: replay %+v, %v; want nondeterminism", rate, execs, r, err)
			}
		}
	}
}

// TestConfirmWitnessOnGoldens replays the google-vs-lossy witness against
// "live" oracles backed by the two golden models: the divergence must
// reproduce and match both models' predictions.
func TestConfirmWitnessOnGoldens(t *testing.T) {
	google, err := LoadModel(filepath.Join("testdata", "google.json"))
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := LoadModel(filepath.Join("testdata", "lossy-retransmit.json"))
	if err != nil {
		t.Fatal(err)
	}
	report := Diff(google, lossy, 1)
	if report.Equivalent {
		t.Fatal("goldens must differ")
	}
	w := report.Witnesses[0]
	confirmed, err := ConfirmWitness(context.Background(), w,
		guarded(flakyOracle(learn.MealyOracle(google.Mealy())), flakyRate),
		guarded(flakyOracle(learn.MealyOracle(lossy.Mealy())), flakyRate))
	if err != nil {
		t.Fatal(err)
	}
	if !confirmed.Diverged {
		t.Fatal("witness did not reproduce")
	}
	if confirmed.At != w.FirstDivergence {
		t.Fatalf("diverged at %d, model predicted %d", confirmed.At, w.FirstDivergence)
	}
	if !confirmed.MatchesModels {
		t.Fatalf("live outputs drifted from models: %v / %v", confirmed.LiveA, confirmed.LiveB)
	}
}

func TestConfirmWitnessAgreement(t *testing.T) {
	g := quicsim.GroundTruth(quicsim.ProfileGoogle)
	w := DiffWitness{Word: []string{quicsim.SymInitialCrypto}}
	confirmed, err := ConfirmWitness(context.Background(), w,
		learn.MealyOracle(g), learn.MealyOracle(g.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	if confirmed.Diverged || confirmed.At != -1 {
		t.Fatalf("identical systems reported divergent: %+v", confirmed)
	}
}
