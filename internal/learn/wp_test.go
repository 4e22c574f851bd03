package learn

import (
	"testing"

	"repro/internal/automata"
)

func TestWpMethodProvesEquivalence(t *testing.T) {
	truth := tcpModel()
	eqo := &WpMethodOracle{Oracle: MealyOracle(truth), Inputs: truth.Inputs(), Depth: 1}
	if ce, err := eqo.FindCounterexample(bg, truth.Clone()); err != nil || ce != nil {
		t.Fatalf("ce=%v err=%v", ce, err)
	}
}

func TestWpMethodFindsMutations(t *testing.T) {
	truth := tcpModel()
	for s := 0; s < truth.NumStates(); s++ {
		for _, in := range truth.Inputs() {
			mut := truth.Clone()
			to, _, _ := mut.Step(automata.State(s), in)
			mut.SetTransition(automata.State(s), in, to, "MUTANT")
			// The mutated machine plays the SUL; the hypothesis is truth.
			eqo := &WpMethodOracle{Oracle: MealyOracle(mut), Inputs: truth.Inputs(), Depth: 1}
			ce, err := eqo.FindCounterexample(bg, truth)
			if err != nil {
				t.Fatal(err)
			}
			if ce == nil {
				// Only acceptable if the mutation is unreachable.
				if eq, _ := truth.Equivalent(mut); !eq {
					t.Fatalf("Wp-method missed output mutation at s%d/%s", s, in)
				}
			}
		}
	}
}

func TestWpMethodUsableAsLearningOracle(t *testing.T) {
	truth := tcpModel()
	o := MealyOracle(truth)
	// Depth must cover the state-count gap between intermediate hypotheses
	// (as small as 1 state) and the 4-state target.
	eqo := &WpMethodOracle{Oracle: o, Inputs: truth.Inputs(), Depth: 3}
	hyp, err := NewDTLearner(o, truth.Inputs()).Learn(bg, eqo)
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := truth.Equivalent(hyp); !eq {
		t.Fatalf("learned model differs on %v", ce)
	}
}

// TestIdentificationSetsSeparateAllStates validates the W_i construction.
func TestIdentificationSetsSeparateAllStates(t *testing.T) {
	m := tcpModel()
	wset := m.CharacterizingSet()
	ids := identificationSets(m, wset)
	for s := 0; s < m.NumStates(); s++ {
		for o := 0; o < m.NumStates(); o++ {
			if s == o {
				continue
			}
			separated := false
			for _, word := range ids[automata.State(s)] {
				a, _ := m.RunFrom(automata.State(s), word)
				b, _ := m.RunFrom(automata.State(o), word)
				if join(a) != join(b) {
					separated = true
					break
				}
			}
			if !separated {
				t.Fatalf("W_%d does not separate state %d from %d", s, s, o)
			}
		}
	}
}

func join(ss []string) string {
	out := ""
	for _, s := range ss {
		out += s + "\x1f"
	}
	return out
}
