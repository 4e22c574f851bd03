package learn

import (
	"context"

	"repro/internal/automata"
)

// SuiteKind selects the identifier ConformanceSuite appends to each
// transition-cover word.
type SuiteKind int

const (
	// SuiteW appends the whole characterizing set W: Chow's W-method.
	SuiteW SuiteKind = iota
	// SuiteWp appends only the target state's identification set
	// W_s ⊆ W: the Wp-method of Fujiwara et al.
	SuiteWp
)

// ConformanceSuite materialises the checking suite of hyp, in the order
// the equivalence search ranks its failures. Phase 1 is state cover × W,
// in state order. Phase 2 runs only when depth ≥ 1: it is transition cover
// × Σ^≤(depth−1) × the target state's identifier, over inputs. The
// transition cover itself contributes one symbol of depth, so the SuiteW
// suite of depth d holds the words of state cover · Σ^≤d · W that hyp
// defines, Chow's P · Σ^≤(d−1) · W with P the transition cover. Both
// kinds find every fault that adds at most d−1 extra states; SuiteWp
// does it with substantially fewer words.
//
// The suite is O(|Q|·|Σ|^depth·|W|) words, fine at this repo's hypothesis
// sizes and shallow depths; a streaming generator would be worth it
// before pointing a large depth at a big machine.
func ConformanceSuite(hyp *automata.Mealy, inputs []string, depth int, kind SuiteKind) [][]string {
	access := hyp.AccessSequences()
	wset := hyp.CharacterizingSet()
	if len(wset) == 0 {
		wset = [][]string{{}}
	}
	var suite [][]string
	for _, acc := range access {
		for _, suf := range wset {
			if acc != nil && len(acc)+len(suf) > 0 {
				suite = append(suite, concat(acc, suf))
			}
		}
	}
	if depth < 1 {
		return suite
	}
	var ids [][][]string
	if kind == SuiteWp {
		_, ids = splitStates(hyp, access, wset)
	}
	middles := [][]string{{}}
	frontier := [][]string{{}}
	for d := 0; d < depth-1; d++ {
		var next [][]string
		for _, mid := range frontier {
			for _, in := range inputs {
				next = append(next, concat(mid, []string{in}))
			}
		}
		middles = append(middles, next...)
		frontier = next
	}
	var prefix []string
	for _, acc := range access {
		if acc == nil {
			continue // unreachable state
		}
		for _, in := range inputs {
			for _, mid := range middles {
				prefix = append(append(append(prefix[:0], acc...), in), mid...)
				target, ok := hyp.StateAfter(prefix)
				if !ok {
					continue
				}
				id := wset
				if ids != nil {
					id = ids[target]
				}
				for _, suf := range id {
					suite = append(suite, concat(prefix, suf))
				}
			}
		}
	}
	return suite
}

// WpMethodOracle implements the Wp-method (Fujiwara et al.), the partial-W
// refinement of Chow's W-method: the first phase tests state identification
// with the full characterizing set W, while the second (transition) phase
// only uses each target state's identification set W_i ⊆ W. It gives the
// same fault-detection guarantee as the W-method with substantially fewer
// tests; BenchmarkConformance in the root bench_test.go measures both.
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

// Suite materialises the Wp suite of depth w.Depth for a hypothesis:
// ConformanceSuite of kind SuiteWp over w.Inputs.
func (w *WpMethodOracle) Suite(hyp *automata.Mealy) [][]string {
	return ConformanceSuite(hyp, w.Inputs, w.Depth, SuiteWp)
}

// FindCounterexample implements EquivalenceOracle.
func (w *WpMethodOracle) FindCounterexample(ctx context.Context, hyp *automata.Mealy) ([]string, error) {
	return findFirstCE(ctx, w.Oracle, hyp, w.Suite(hyp), w.Workers)
}

func concat(a, b []string) []string {
	return append(append(make([]string, 0, len(a)+len(b)), a...), b...)
}
