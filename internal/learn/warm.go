package learn

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/automata"
)

// This file implements warm-started learning: both learners can rebuild
// their internal structures from a previously learned hypothesis, so
// relearning an unchanged target re-derives the old model from cached
// answers and pays live queries only for the equivalence pass — and a
// changed target starts refining from the first divergent cell instead of
// from a single-state hypothesis. The warm structures carry no answers,
// only *questions*: every cell and signature is still (re)asked through
// the oracle, so a stale hypothesis can bias which queries are asked but
// never what the learner believes about the system.

// compatibleAlphabet reports whether a warm hypothesis over warmInputs can
// seed a learner over inputs (same symbol set; order may differ, as it is
// local to each machine).
func compatibleAlphabet(inputs, warmInputs []string) bool {
	if len(inputs) != len(warmInputs) {
		return false
	}
	set := make(map[string]bool, len(inputs))
	for _, in := range inputs {
		set[in] = true
	}
	for _, in := range warmInputs {
		if !set[in] {
			return false
		}
	}
	return true
}

// sortedAccess returns prev's access sequences ordered by (length, lex) —
// deterministic, with the empty word (the initial state) first. BFS access
// sequences are prefix-closed: each state's sequence extends its BFS
// parent's by one symbol.
func sortedAccess(prev *automata.Mealy) [][]string {
	var out [][]string
	for _, a := range prev.AccessSequences() {
		if a != nil {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return strings.Join(out[i], "\x1f") < strings.Join(out[j], "\x1f")
	})
	return out
}

// seedWarm initialises the L* observation table from a previous
// hypothesis: S gets one access word per old state (prefix-closed by
// construction), E gets the old characterizing set on top of the
// single-symbol base. Filling the seeded table re-asks every cell through
// the oracle — against a store-warmed cache those are all hits when the
// target is unchanged, and the table is closed with the old state set
// after round one.
func (l *LStar) seedWarm(prev *automata.Mealy) {
	if prev == nil || !compatibleAlphabet(l.inputs, prev.Inputs()) {
		return
	}
	l.prefixes = sortedAccess(prev)
	have := make(map[string]bool, len(l.suffixes))
	for _, s := range l.suffixes {
		have[key(s)] = true
	}
	for _, w := range prev.CharacterizingSet() {
		if len(w) == 0 || have[key(w)] {
			continue
		}
		have[key(w)] = true
		l.suffixes = append(l.suffixes, append([]string(nil), w...))
	}
}

// splitStates separates m's reachable states by the words of wset and
// returns the result read two ways: as a discrimination tree, and as each
// state's identification set W_s, the suffixes on the path from the root
// to its leaf. A group splits on the first remaining word its states
// disagree on, with each inner node's child signatures computed by running
// m itself, so W_s holds exactly the words of wset, in order, that separate
// s from some state no earlier word separated it from. A state with an empty path (the
// only state) gets the empty word, so its transition words are still
// checked.
//
// Sifting a leaf's access word through the tree asks the live oracle
// exactly the access·discriminator words whose answers the seal pass
// logged (store.go), so a warm learner over an unchanged target rebuilds
// its old hypothesis entirely from cache, without any oracle traffic to
// build the tree itself.
func splitStates(m *automata.Mealy, access, wset [][]string) (*dtNode, [][][]string) {
	ids := make([][][]string, len(access))
	var split func(group []automata.State, wIdx int, path [][]string) *dtNode
	split = func(group []automata.State, wIdx int, path [][]string) *dtNode {
		for ; len(group) > 1 && wIdx < len(wset); wIdx++ {
			w := wset[wIdx]
			parts := make(map[string][]automata.State)
			order := make([]string, 0, 2)
			for _, s := range group {
				out, ok := m.RunFrom(s, w)
				if !ok {
					// A partial machine can leave a state undefined on w;
					// give those states their own signature class.
					out = []string{}
				}
				sig := strings.Join(out, "\x1f")
				if _, seen := parts[sig]; !seen {
					order = append(order, sig)
				}
				parts[sig] = append(parts[sig], s)
			}
			if len(parts) < 2 {
				continue // w does not split this group; try the next suffix
			}
			n := &dtNode{suffix: append([]string(nil), w...), children: make(map[string]*dtNode, len(parts))}
			path = append(slices.Clip(path), w)
			for _, sig := range order {
				n.children[sig] = split(parts[sig], wIdx+1, path)
			}
			return n
		}
		// One state is left, or the characterizing set failed to separate
		// the group, possible only for a non-minimal machine. Collapse to
		// one leaf; the MAT loop re-discovers the distinction if the system
		// still has it.
		if len(path) == 0 {
			path = [][]string{{}}
		}
		for _, s := range group {
			ids[s] = path
		}
		return &dtNode{access: append([]string(nil), access[group[0]]...)}
	}
	var states []automata.State
	for s, acc := range access {
		if acc != nil {
			states = append(states, automata.State(s))
		}
	}
	return split(states, 0, nil), ids
}

// seedWarm replaces the single-leaf start tree with one rebuilt from a
// previous hypothesis (no-op when prev is nil or speaks another alphabet).
func (d *DTLearner) seedWarm(prev *automata.Mealy) {
	if prev == nil || !compatibleAlphabet(d.inputs, prev.Inputs()) {
		return
	}
	d.root, _ = splitStates(prev, prev.AccessSequences(), prev.CharacterizingSet())
}

// maxSealQueries bounds the seal simulation below. The warm rebuild of an
// n-state hypothesis asks O(n·|Σ|·|W|) words; real targets stay orders of
// magnitude under this, so hitting the bound means the cache contradicts
// the model badly enough that sealing would chase a moving fixpoint.
const maxSealQueries = 1 << 18

// SealWarm completes the attached store for a future warm start from
// model: it simulates the warm relearn (same learner kind, same alphabet)
// against an oracle that answers from the cache where an answer exists and
// from the model everywhere else, logging every model-answered word. After
// a successful seal, a warm run against an unchanged target finds every
// word its rebuild asks — table cells, tree signatures, transition outputs
// — already in the log and issues zero live membership queries; only the
// equivalence search still speaks to the system. Model-derived entries are
// exactly as trustworthy as the hypothesis itself, and a changed target
// invalidates them through the same refresh/repair path as any stale
// entry. Sealing is a no-op without an attached store, and errors leave
// the store merely less warm, never wrong.
func (c *CachedOracle) SealWarm(ctx context.Context, model *automata.Mealy, inputs []string, lstar bool) error {
	if c.store == nil || model == nil {
		return nil
	}
	asked := 0
	sealed := make(map[string][]string)
	oracle := OracleFunc(func(ctx context.Context, word []string) ([]string, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if out, ok := c.cache.lookup(word); ok {
			return out, nil
		}
		k := strings.Join(word, "\x1f")
		if out, ok := sealed[k]; ok {
			return out, nil
		}
		if asked++; asked > maxSealQueries {
			return nil, fmt.Errorf("learn: seal budget of %d queries exhausted", maxSealQueries)
		}
		out, ok := model.Run(word)
		if !ok {
			return nil, fmt.Errorf("learn: sealed model has no run for %v", word)
		}
		sealed[k] = out
		_ = c.store.Append(word, out)
		return out, nil
	})
	eq := &ModelOracle{Model: model}
	if lstar {
		l := NewLStar(oracle, inputs)
		l.Warm = model
		_, err := l.Learn(ctx, eq)
		return err
	}
	d := NewDTLearner(oracle, inputs)
	d.Warm = model
	_, err := d.Learn(ctx, eq)
	return err
}
