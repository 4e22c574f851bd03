package learn

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/automata"
)

// LStar is Angluin's L* adapted to Mealy machines (Shahbaz–Groz style
// counterexample handling: all suffixes of a counterexample are added to
// the distinguishing set E, which keeps the observation table consistent by
// construction and avoids the consistency check of the classic algorithm).
type LStar struct {
	oracle Oracle
	inputs []string

	// Observer, when set, receives RoundStarted / HypothesisReady /
	// CounterexampleFound events as the MAT loop progresses.
	Observer Observer

	// Warm, when set, seeds the observation table from a previously
	// learned hypothesis (access words as S, its characterizing set in E)
	// instead of the one-row cold table — see warm.go. Ignored when the
	// hypothesis speaks a different alphabet.
	Warm *automata.Mealy

	// prefixes S: prefix-closed set of access words; rows for S ∪ S·Σ.
	prefixes [][]string
	suffixes [][]string // distinguishing suffixes E, each non-empty

	rows map[string][]string // key(prefix) -> concatenated outputs per suffix
}

// NewLStar returns an L* learner over the given input alphabet.
func NewLStar(o Oracle, inputs []string) *LStar {
	return &LStar{oracle: o, inputs: inputs}
}

func key(word []string) string { return strings.Join(word, "\x1f") }

// Learn runs the full MAT loop: build a closed table, form a hypothesis,
// ask eq for a counterexample, refine, repeat. It returns the final
// hypothesis when eq finds no counterexample, or ctx.Err() as soon as the
// context is cancelled mid-round.
func (l *LStar) Learn(ctx context.Context, eq EquivalenceOracle) (*automata.Mealy, error) {
	l.prefixes = [][]string{{}}
	l.suffixes = nil
	for _, in := range l.inputs {
		l.suffixes = append(l.suffixes, []string{in})
	}
	l.rows = make(map[string][]string)
	l.seedWarm(l.Warm)

	for round := 1; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		notify(l.Observer, RoundStarted{Round: round})
		if err := l.close(ctx); err != nil {
			return nil, err
		}
		hyp, err := l.hypothesis(ctx)
		if err != nil {
			return nil, err
		}
		notify(l.Observer, HypothesisReady{
			Round: round, States: hyp.NumStates(), Transitions: hyp.NumTransitions(),
		})
		ce, err := eq.FindCounterexample(ctx, hyp)
		if err != nil {
			return nil, err
		}
		if ce == nil {
			return hyp, nil
		}
		notify(l.Observer, CounterexampleFound{Round: round, Word: ce})
		if err := l.refine(ctx, hyp, ce); err != nil {
			return nil, err
		}
	}
}

// row computes (and caches) the observation row of a prefix.
func (l *LStar) row(ctx context.Context, prefix []string) ([]string, error) {
	k := key(prefix)
	if r, ok := l.rows[k]; ok && len(r) == len(l.suffixes) {
		return r, nil
	}
	r := make([]string, len(l.suffixes))
	for i, suf := range l.suffixes {
		word := append(append([]string(nil), prefix...), suf...)
		out, err := query(ctx, l.oracle, word)
		if err != nil {
			return nil, fmt.Errorf("learn: membership query %v: %w", word, err)
		}
		r[i] = strings.Join(out[len(prefix):], "\x1f")
	}
	l.rows[k] = r
	return r, nil
}

// ensureRows materialises the observation rows of the given prefixes,
// emitting every missing table cell as one membership-query batch. With a
// BatchOracle underneath, this is where the observation table's work fans
// out across the SUL pool.
func (l *LStar) ensureRows(ctx context.Context, prefixes [][]string) error {
	type cell struct {
		key  string
		idx  int // suffix index within the row
		plen int // prefix length, to slice the suffix outputs
	}
	var words [][]string
	var cells []cell
	scheduled := make(map[string]bool)
	for _, p := range prefixes {
		k := key(p)
		if scheduled[k] {
			continue
		}
		if r, ok := l.rows[k]; ok && len(r) == len(l.suffixes) {
			continue
		}
		scheduled[k] = true
		for i, suf := range l.suffixes {
			words = append(words, concat(p, suf))
			cells = append(cells, cell{key: k, idx: i, plen: len(p)})
		}
	}
	if len(words) == 0 {
		return nil
	}
	outs, err := queryAll(ctx, l.oracle, words)
	if err != nil {
		return fmt.Errorf("learn: membership batch: %w", err)
	}
	for j, c := range cells {
		r, ok := l.rows[c.key]
		if !ok || len(r) != len(l.suffixes) {
			r = make([]string, len(l.suffixes))
			l.rows[c.key] = r
		}
		r[c.idx] = strings.Join(outs[j][c.plen:], "\x1f")
	}
	return nil
}

// close extends S until every one-step extension row appears among S rows.
// Each round batches all missing cells of the S ∪ S·Σ rows before the
// closedness check, so a pooled oracle sees the table's whole frontier at
// once instead of one cell at a time.
func (l *LStar) close(ctx context.Context) error {
	for {
		want := make([][]string, 0, len(l.prefixes)*(len(l.inputs)+1))
		want = append(want, l.prefixes...)
		for _, p := range l.prefixes {
			for _, in := range l.inputs {
				want = append(want, append(append([]string(nil), p...), in))
			}
		}
		if err := l.ensureRows(ctx, want); err != nil {
			return err
		}
		index := make(map[string]bool)
		for _, p := range l.prefixes {
			r, err := l.row(ctx, p)
			if err != nil {
				return err
			}
			index[strings.Join(r, "\x1e")] = true
		}
		extended := false
		for _, p := range l.prefixes {
			for _, in := range l.inputs {
				ext := append(append([]string(nil), p...), in)
				r, err := l.row(ctx, ext)
				if err != nil {
					return err
				}
				if !index[strings.Join(r, "\x1e")] {
					l.prefixes = append(l.prefixes, ext)
					index[strings.Join(r, "\x1e")] = true
					extended = true
				}
			}
		}
		if !extended {
			return nil
		}
	}
}

// hypothesis builds the Mealy machine encoded by the closed table.
func (l *LStar) hypothesis(ctx context.Context) (*automata.Mealy, error) {
	// Map distinct rows to states; first occurrence in S order names the state.
	stateOf := make(map[string]automata.State)
	reps := make([][]string, 0)
	m := automata.NewMealy(l.inputs)
	for _, p := range l.prefixes {
		r, err := l.row(ctx, p)
		if err != nil {
			return nil, err
		}
		rk := strings.Join(r, "\x1e")
		if _, ok := stateOf[rk]; !ok {
			var s automata.State
			if len(reps) == 0 {
				s = m.Initial()
			} else {
				s = m.AddState()
			}
			stateOf[rk] = s
			reps = append(reps, p)
		}
	}
	// Batch the transition-output queries for every (prefix, input) pair.
	// Each word equals the p·[in] table cell, so with the cache on these
	// are all hits; with a raw pool they fan out in one round.
	exts := make([][]string, 0, len(l.prefixes)*len(l.inputs))
	for _, p := range l.prefixes {
		for _, in := range l.inputs {
			exts = append(exts, append(append([]string(nil), p...), in))
		}
	}
	extOuts, err := queryAll(ctx, l.oracle, exts)
	if err != nil {
		return nil, err
	}
	j := 0
	for _, p := range l.prefixes {
		r, _ := l.row(ctx, p)
		from := stateOf[strings.Join(r, "\x1e")]
		for _, in := range l.inputs {
			ext := exts[j]
			out := extOuts[j]
			j++
			extRow, err := l.row(ctx, ext)
			if err != nil {
				return nil, err
			}
			to, ok := stateOf[strings.Join(extRow, "\x1e")]
			if !ok {
				return nil, fmt.Errorf("learn: table not closed at %v", ext)
			}
			m.SetTransition(from, in, to, out[len(ext)-1])
		}
	}
	return m, nil
}

// refine incorporates a counterexample by adding all of its suffixes to E.
func (l *LStar) refine(ctx context.Context, hyp *automata.Mealy, ce []string) error {
	// Sanity: the counterexample must actually distinguish.
	sysOut, err := query(ctx, l.oracle, ce)
	if err != nil {
		return err
	}
	hypOut, _ := hyp.Run(ce)
	if strings.Join(sysOut, ",") == strings.Join(hypOut, ",") {
		return fmt.Errorf("learn: spurious counterexample %v", ce)
	}
	have := make(map[string]bool, len(l.suffixes))
	for _, s := range l.suffixes {
		have[key(s)] = true
	}
	added := false
	for i := 0; i < len(ce); i++ {
		suf := ce[i:]
		if !have[key(suf)] {
			l.suffixes = append(l.suffixes, append([]string(nil), suf...))
			have[key(suf)] = true
			added = true
		}
	}
	if !added {
		return fmt.Errorf("learn: counterexample %v added no new suffixes", ce)
	}
	// Invalidate cached rows; they are stale now that E grew.
	l.rows = make(map[string][]string)
	return nil
}
