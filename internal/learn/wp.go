package learn

import (
	"context"
	"sort"
	"strings"

	"repro/internal/automata"
)

// WpMethodOracle implements the Wp-method (Fujiwara et al.), the partial-W
// refinement of Chow's W-method: the first phase tests state identification
// with the full characterizing set W, while the second (transition) phase
// only uses each target state's identification set W_i ⊆ W. It gives the
// same fault-detection guarantee as the W-method with substantially fewer
// tests — the difference is measured in the benchmark harness.
type WpMethodOracle struct {
	Oracle Oracle
	Inputs []string
	Depth  int
	// Workers partitions the test suite across that many goroutines (at
	// least one) with first-counterexample cancellation. The suite order
	// is fixed and the earliest failing word always wins, so the returned
	// counterexample does not depend on it.
	Workers int
}

// Suite materialises the full Wp test suite for a hypothesis, in the order
// the search ranks its failures. The suite is O(|Q|·|Σ|^Depth·|W|)
// words, fine at this repo's hypothesis sizes and shallow depths; a
// streaming generator would be worth it before pointing large Depth at a
// big machine. Phase 1 is state cover × W; phase 2 is
// transition cover × middle words × W_target. The transition cover itself
// contributes one symbol of depth, so middles extend only to Depth-1:
// WpMethodOracle{Depth: d} detects the same fault class as the W-method
// suite of depth d. That suite is state cover · Σ^≤d · W, which is Chow's
// P · Σ^≤(d−1) · W with P the transition cover, so it finds every fault
// that adds at most d−1 extra states.
func (w *WpMethodOracle) Suite(hyp *automata.Mealy) [][]string {
	access := hyp.AccessSequences()
	wset := hyp.CharacterizingSet()
	if len(wset) == 0 {
		wset = [][]string{{}}
	}
	idSets := identificationSets(hyp, wset)

	// Iterate states in numeric order so the suite — and therefore the
	// counterexample the search returns — is reproducible run to run
	// (access is a map; ranging over it directly would randomise the
	// order).
	states := make([]automata.State, 0, len(access))
	for s := range access {
		states = append(states, s)
	}
	sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })

	var suite [][]string
	// Phase 1: state cover × W.
	for _, s := range states {
		acc := access[s]
		for _, suf := range wset {
			word := concat(acc, nil, suf)
			if len(word) == 0 {
				continue
			}
			suite = append(suite, word)
		}
	}

	// Phase 2: transition cover × middle words × W_target.
	middles := [][]string{{}}
	frontier := [][]string{{}}
	for d := 0; d < w.Depth-1; d++ {
		var next [][]string
		for _, mid := range frontier {
			for _, in := range w.Inputs {
				next = append(next, append(append([]string(nil), mid...), in))
			}
		}
		middles = append(middles, next...)
		frontier = next
	}
	var prefix []string
	for _, state := range states {
		acc := access[state]
		for _, in := range w.Inputs {
			if _, _, ok := hyp.Step(state, in); !ok {
				continue
			}
			for _, mid := range middles {
				prefix = append(append(append(prefix[:0], acc...), in), mid...)
				target, ok := hyp.StateAfter(prefix)
				if !ok {
					continue
				}
				for _, suf := range idSets[target] {
					suite = append(suite, concat(prefix, nil, suf))
				}
			}
		}
	}
	return suite
}

// FindCounterexample implements EquivalenceOracle.
func (w *WpMethodOracle) FindCounterexample(ctx context.Context, hyp *automata.Mealy) ([]string, error) {
	return findFirstCE(ctx, w.Oracle, hyp, w.Suite(hyp), w.Workers)
}

// identificationSets computes, per state, a minimal subset of W that
// distinguishes it from every other state.
func identificationSets(m *automata.Mealy, wset [][]string) map[automata.State][][]string {
	out := make(map[automata.State][][]string, m.NumStates())
	n := m.NumStates()
	response := func(s automata.State, word []string) string {
		o, _ := m.RunFrom(s, word)
		return strings.Join(o, "\x1f")
	}
	for s := 0; s < n; s++ {
		var set [][]string
		remaining := make(map[automata.State]bool)
		for o := 0; o < n; o++ {
			if o != s {
				remaining[automata.State(o)] = true
			}
		}
		for _, word := range wset {
			if len(remaining) == 0 {
				break
			}
			mine := response(automata.State(s), word)
			separated := false
			for o := range remaining {
				if response(o, word) != mine {
					delete(remaining, o)
					separated = true
				}
			}
			if separated {
				set = append(set, word)
			}
		}
		if len(set) == 0 {
			// A state needing no distinguishing suffix (e.g. the only
			// state) still needs the transition word itself checked.
			set = [][]string{{}}
		}
		out[automata.State(s)] = set
	}
	return out
}

func concat(a, b, c []string) []string {
	out := make([]string, 0, len(a)+len(b)+len(c))
	out = append(out, a...)
	out = append(out, b...)
	out = append(out, c...)
	return out
}
