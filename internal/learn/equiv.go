package learn

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/automata"
)

// RandomWordsOracle is a heuristic equivalence oracle that tests the
// hypothesis against the system on randomly generated input words. As §4.1
// notes, a returned counterexample is always genuine, but finding none only
// gives probabilistic confidence.
type RandomWordsOracle struct {
	Oracle Oracle
	Inputs []string
	Words  int // number of random words to try per call
	MinLen int
	MaxLen int
	// Seed is the base of the per-hypothesis word streams: each
	// FindCounterexample call draws its suite from a fresh RNG seeded by
	// Seed ⊕ fingerprint(hypothesis), so the words that vet a given
	// hypothesis are identical across calls, rounds, and processes. That
	// determinism is what lets a store-backed relearn of an unchanged
	// target reach zero live queries: its final hypothesis is re-verified
	// with exactly the words the previous run already asked and logged.
	Seed int64
	// Workers partitions the word suite across that many goroutines
	// (at least one), cancelling the rest once a counterexample is found.
	// The result does not depend on it: each call draws the full round of
	// Words words up front and the earliest failing word of the round
	// wins.
	Workers int
}

// NewRandomWordsOracle returns an oracle with sensible defaults
// (300 words of length 3..12, deterministic seed for reproducibility).
func NewRandomWordsOracle(o Oracle, inputs []string, seed int64) *RandomWordsOracle {
	return &RandomWordsOracle{
		Oracle: o,
		Inputs: inputs,
		Words:  300,
		MinLen: 3,
		MaxLen: 12,
		Seed:   seed,
	}
}

// draw generates the next random test word from rng.
func (r *RandomWordsOracle) draw(rng *rand.Rand) []string {
	n := r.MinLen
	if r.MaxLen > r.MinLen {
		n += rng.Intn(r.MaxLen - r.MinLen + 1)
	}
	word := make([]string, n)
	for j := range word {
		word[j] = r.Inputs[rng.Intn(len(r.Inputs))]
	}
	return word
}

// fingerprint hashes a hypothesis up to isomorphism: states are
// renumbered in BFS order over the sorted alphabet, so the same machine
// fingerprints identically regardless of construction order or process —
// a freshly learned hypothesis and its reloaded snapshot agree.
func fingerprint(m *automata.Mealy) int64 {
	h := fnv.New64a()
	inputs := append([]string(nil), m.Inputs()...)
	sort.Strings(inputs)
	idx := map[automata.State]int{m.Initial(): 0}
	queue := []automata.State{m.Initial()}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		for _, in := range inputs {
			to, out, ok := m.Step(s, in)
			if !ok {
				continue
			}
			j, seen := idx[to]
			if !seen {
				j = len(idx)
				idx[to] = j
				queue = append(queue, to)
			}
			fmt.Fprintf(h, "%d,%s,%d,%s;", idx[s], in, j, out)
		}
	}
	return int64(h.Sum64())
}

// FindCounterexample implements EquivalenceOracle.
func (r *RandomWordsOracle) FindCounterexample(ctx context.Context, hyp *automata.Mealy) ([]string, error) {
	rng := rand.New(rand.NewSource(r.Seed ^ fingerprint(hyp)))
	words := make([][]string, r.Words)
	for i := range words {
		words[i] = r.draw(rng)
	}
	return findFirstCE(ctx, r.Oracle, hyp, words, r.Workers)
}

// ModelOracle is a perfect equivalence oracle backed by a known Mealy
// machine — the "omniscient oracle" of §4.1 that exists only when the true
// model is already known. It is used in tests and to validate that learners
// recover simulator ground truth exactly.
type ModelOracle struct {
	Model *automata.Mealy
}

// FindCounterexample implements EquivalenceOracle via the product
// construction, returning a shortest distinguishing word.
func (m *ModelOracle) FindCounterexample(ctx context.Context, hyp *automata.Mealy) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eq, ce := m.Model.Equivalent(hyp)
	if eq {
		return nil, nil
	}
	return ce, nil
}

// ChainOracle tries several equivalence oracles in order, returning the
// first counterexample found; a hypothesis passes only when every oracle
// passes it. When each member's suite depends on the hypothesis alone,
// as the Wp-method's and the fingerprint-seeded random words' do, the
// order changes what the wrong hypotheses cost, never what the final one
// is checked against. lab.Experiment asks the Wp-method first: it finds
// early counterexamples in fewer queries than random words.
type ChainOracle []EquivalenceOracle

// FindCounterexample implements EquivalenceOracle.
func (c ChainOracle) FindCounterexample(ctx context.Context, hyp *automata.Mealy) ([]string, error) {
	for _, o := range c {
		ce, err := o.FindCounterexample(ctx, hyp)
		if err != nil {
			return nil, err
		}
		if ce != nil {
			return ce, nil
		}
	}
	return nil, nil
}

// checkWord queries the system on word and compares against the hypothesis,
// returning the shortest failing prefix as a counterexample (trimming makes
// later counterexample analysis cheaper). The hypothesis is stepped in
// place rather than run into an output slice: every equivalence word
// passes through here.
func checkWord(ctx context.Context, o Oracle, hyp *automata.Mealy, word []string) ([]string, error) {
	sys, err := query(ctx, o, word)
	if err != nil {
		return nil, err
	}
	s, first := hyp.Initial(), -1
	for i, in := range word {
		next, out, ok := hyp.Step(s, in)
		if !ok {
			// The hypothesis is partial where the system is not: the
			// defined prefix plus one symbol already distinguishes.
			return word[:i+1], nil
		}
		if first < 0 && sys[i] != out {
			first = i
		}
		s = next
	}
	if first >= 0 {
		return word[:first+1], nil
	}
	return nil, nil
}
