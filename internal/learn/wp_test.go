package learn

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// TestIdentificationSetsSeparateAllStates validates the W_s construction
// on every model golden and on a one-state machine: W_s separates s from
// every other state, and following it down the warm tree from the root
// reaches s's own leaf, since both are read from one splitting.
func TestIdentificationSetsSeparateAllStates(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "analysis", "testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	one := automata.NewMealy([]string{"a"})
	one.SetTransition(0, "a", 0, "x")
	machines := map[string]*automata.Mealy{"one state": one}
	for _, p := range paths {
		if filepath.Base(p) == "regress.json" {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if machines[p], err = automata.Decode(data); err != nil {
			t.Fatal(err)
		}
	}
	if len(machines) < 8 {
		t.Fatalf("found %d model goldens, want 7", len(machines)-1)
	}
	sig := func(m *automata.Mealy, s automata.State, word []string) string {
		out, _ := m.RunFrom(s, word)
		return strings.Join(out, "\x1f")
	}
	for name, m := range machines {
		access := m.AccessSequences()
		root, ids := splitStates(m, access, m.CharacterizingSet())
		for s := range automata.State(m.NumStates()) {
			if len(ids[s]) == 0 {
				t.Fatalf("%s: W_%d is empty, so its transition words would go unchecked", name, s)
			}
			for o := range automata.State(m.NumStates()) {
				if s != o && !slices.ContainsFunc(ids[s], func(w []string) bool { return sig(m, s, w) != sig(m, o, w) }) {
					t.Fatalf("%s: W_%d %v does not separate state %d from %d", name, s, ids[s], s, o)
				}
			}
			node := root
			for _, w := range ids[s] {
				if len(w) == 0 {
					continue // the one-state identifier: no split to follow
				}
				if node == nil || node.leaf() || !slices.Equal(node.suffix, w) {
					t.Fatalf("%s: W_%d %v leaves the warm tree's path at %v", name, s, ids[s], w)
				}
				node = node.children[sig(m, s, w)]
			}
			if node == nil || !node.leaf() || !slices.Equal(node.access, access[s]) {
				t.Fatalf("%s: W_%d %v does not end at the leaf %v", name, s, ids[s], access[s])
			}
		}
	}
}
