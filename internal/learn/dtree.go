package learn

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/automata"
)

// DTLearner is a discrimination-tree learner in the style of TTT /
// Kearns–Vazirani with Rivest–Schapire counterexample analysis. Compared to
// L*, it stores one discriminator per tree node instead of a full
// observation table and decomposes counterexamples by binary search, which
// keeps both the number and the length of membership queries small — the
// property that makes the paper's QUIC experiments feasible.
type DTLearner struct {
	oracle Oracle
	inputs []string
	root   *dtNode

	// Observer, when set, receives RoundStarted / HypothesisReady /
	// CounterexampleFound events as the MAT loop progresses.
	Observer Observer

	// Warm, when set, starts the MAT loop from a discrimination tree
	// rebuilt from this previously learned hypothesis instead of the
	// single-leaf tree — see warm.go. Ignored when the hypothesis speaks a
	// different alphabet.
	Warm *automata.Mealy

	// access maps each hypothesis state to the access sequence of its tree
	// leaf. Counterexample analysis must use these canonical sequences (not
	// arbitrary shortest paths in the hypothesis): transition targets and
	// outputs were defined by queries on leaf accesses, and the
	// Rivest–Schapire argument is only sound relative to them.
	access map[automata.State][]string
}

// dtNode is either an inner node (suffix != nil) with children keyed by the
// output signature of the discriminator, or a leaf holding a state's access
// sequence.
type dtNode struct {
	suffix   []string // discriminator; nil for leaves
	children map[string]*dtNode
	access   []string // leaf only
	state    automata.State
}

func (n *dtNode) leaf() bool { return n.suffix == nil }

// NewDTLearner returns a discrimination-tree learner over the alphabet.
func NewDTLearner(o Oracle, inputs []string) *DTLearner {
	return &DTLearner{oracle: o, inputs: inputs}
}

// Learn runs the MAT loop to a stable hypothesis, or returns ctx.Err() as
// soon as the context is cancelled mid-round.
func (d *DTLearner) Learn(ctx context.Context, eq EquivalenceOracle) (*automata.Mealy, error) {
	d.root = &dtNode{access: []string{}} // single-leaf tree: one state
	d.seedWarm(d.Warm)
	for round := 1; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		notify(d.Observer, RoundStarted{Round: round})
		hyp, err := d.hypothesis(ctx)
		if err != nil {
			return nil, err
		}
		notify(d.Observer, HypothesisReady{
			Round: round, States: hyp.NumStates(), Transitions: hyp.NumTransitions(),
		})
		ce, err := eq.FindCounterexample(ctx, hyp)
		if err != nil {
			return nil, err
		}
		if ce == nil {
			return hyp, nil
		}
		notify(d.Observer, CounterexampleFound{Round: round, Word: ce})
		if err := d.processCounterexample(ctx, hyp, ce); err != nil {
			return nil, err
		}
	}
}

// signature returns the output word of the oracle on prefix·suffix,
// restricted to the suffix positions, joined as a map key.
func (d *DTLearner) signature(ctx context.Context, prefix, suffix []string) (string, error) {
	word := append(append([]string(nil), prefix...), suffix...)
	out, err := query(ctx, d.oracle, word)
	if err != nil {
		return "", err
	}
	return strings.Join(out[len(prefix):], "\x1f"), nil
}

// sift descends the tree with the given access word, creating a new leaf if
// an unseen signature is encountered. It returns the leaf and whether it
// was newly created.
func (d *DTLearner) sift(ctx context.Context, word []string) (*dtNode, bool, error) {
	n := d.root
	for !n.leaf() {
		sig, err := d.signature(ctx, word, n.suffix)
		if err != nil {
			return nil, false, err
		}
		child, ok := n.children[sig]
		if !ok {
			leaf := &dtNode{access: append([]string(nil), word...)}
			n.children[sig] = leaf
			return leaf, true, nil
		}
		n = child
	}
	return n, false, nil
}

// siftAll descends many words through the tree in lock step: each round
// batches the signature queries of every word still at an inner node, so a
// pooled oracle answers a whole tree level at once instead of one
// signature at a time. It returns the leaf each word lands on and whether
// any new leaf was created along the way.
func (d *DTLearner) siftAll(ctx context.Context, words [][]string) ([]*dtNode, bool, error) {
	nodes := make([]*dtNode, len(words))
	for i := range nodes {
		nodes[i] = d.root
	}
	created := false
	for {
		var idxs []int
		var qs [][]string
		for i, n := range nodes {
			if !n.leaf() {
				idxs = append(idxs, i)
				qs = append(qs, concat(words[i], n.suffix))
			}
		}
		if len(idxs) == 0 {
			return nodes, created, nil
		}
		outs, err := queryAll(ctx, d.oracle, qs)
		if err != nil {
			return nil, false, err
		}
		for j, i := range idxs {
			n := nodes[i]
			sig := strings.Join(outs[j][len(words[i]):], "\x1f")
			child, ok := n.children[sig]
			if !ok {
				child = &dtNode{access: append([]string(nil), words[i]...)}
				n.children[sig] = child
				created = true
			}
			nodes[i] = child
		}
	}
}

// leaves collects all leaves of the tree, walking children in sorted
// signature order so the enumeration — and therefore hypothesis state
// numbering — is identical run to run (children is a map; ranging over it
// directly would randomise state names between otherwise-equal runs).
func (d *DTLearner) leaves() []*dtNode {
	var out []*dtNode
	var walk func(*dtNode)
	walk = func(n *dtNode) {
		if n.leaf() {
			out = append(out, n)
			return
		}
		sigs := make([]string, 0, len(n.children))
		for sig := range n.children {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			walk(n.children[sig])
		}
	}
	walk(d.root)
	return out
}

// hypothesis constructs the Mealy machine induced by the current tree.
// Sifting transition targets can create new leaves; construction loops
// until the state set is stable. Each round is a discriminator-refinement
// batch point: the transition-output queries for every leaf×input
// extension go out as one batch, and the extensions are then sifted in
// lock step (siftAll), so a pooled oracle keeps all shards busy.
func (d *DTLearner) hypothesis(ctx context.Context) (*automata.Mealy, error) {
	for {
		ls := d.leaves()
		// The initial leaf is where the empty word sifts to.
		init, created, err := d.sift(ctx, nil)
		if err != nil {
			return nil, err
		}
		if created {
			continue
		}
		m := automata.NewMealy(d.inputs)
		d.access = make(map[automata.State][]string, len(ls))
		init.state = m.Initial()
		d.access[init.state] = init.access
		for _, l := range ls {
			if l != init {
				l.state = m.AddState()
				d.access[l.state] = l.access
			}
		}
		exts := make([][]string, 0, len(ls)*len(d.inputs))
		for _, l := range ls {
			for _, in := range d.inputs {
				exts = append(exts, append(append([]string(nil), l.access...), in))
			}
		}
		targets, grew, err := d.siftAll(ctx, exts)
		if err != nil {
			return nil, err
		}
		if grew {
			continue // new states discovered; rebuild over the larger tree
		}
		// Only a stable round pays for the transition outputs, so growth
		// rounds never waste live queries on results that would be
		// discarded.
		outs, err := queryAll(ctx, d.oracle, exts)
		if err != nil {
			return nil, err
		}
		j := 0
		for _, l := range ls {
			for _, in := range d.inputs {
				m.SetTransition(l.state, in, targets[j].state, outs[j][len(exts[j])-1])
				j++
			}
		}
		return m, nil
	}
}

// processCounterexample applies Rivest–Schapire decomposition repeatedly
// until the hypothesis agrees with the system on ce.
func (d *DTLearner) processCounterexample(ctx context.Context, hyp *automata.Mealy, ce []string) error {
	for {
		sysOut, err := query(ctx, d.oracle, ce)
		if err != nil {
			return err
		}
		hypOut, ok := hyp.Run(ce)
		if ok && strings.Join(sysOut, ",") == strings.Join(hypOut, ",") {
			return nil // fully incorporated
		}
		if err := d.splitOnce(ctx, hyp, ce); err != nil {
			return err
		}
		hyp, err = d.hypothesis(ctx)
		if err != nil {
			return err
		}
	}
}

// splitOnce finds one split point in ce by binary search and splits the
// corresponding leaf with a new discriminator.
func (d *DTLearner) splitOnce(ctx context.Context, hyp *automata.Mealy, ce []string) error {
	// asked records every query this analysis issued, so a contradiction
	// can report exactly the words whose cached answers are suspect.
	var asked [][]string
	inconsistent := func(reason string, extra ...[]string) error {
		words := append([][]string{ce}, asked...)
		words = append(words, extra...)
		return &InconsistencyError{CE: ce, Words: words, Reason: reason}
	}

	// alpha(i) returns the canonical (tree-leaf) access word of the
	// hypothesis state reached after ce[:i].
	alpha := func(i int) ([]string, error) {
		s, ok := hyp.StateAfter(ce[:i])
		if !ok {
			return nil, fmt.Errorf("learn: hypothesis stuck on %v", ce[:i])
		}
		a, ok := d.access[s]
		if !ok {
			return nil, fmt.Errorf("learn: no access sequence for state %d", s)
		}
		return a, nil
	}

	// agrees reports whether the system's outputs on ce[i:] after alpha(i)
	// match the hypothesis outputs on ce[i:] from the state after ce[:i].
	agrees := func(i int) (bool, error) {
		a, err := alpha(i)
		if err != nil {
			return false, err
		}
		word := append(append([]string(nil), a...), ce[i:]...)
		asked = append(asked, word)
		out, err := query(ctx, d.oracle, word)
		if err != nil {
			return false, err
		}
		s, _ := hyp.StateAfter(ce[:i])
		hout, ok := hyp.RunFrom(s, ce[i:])
		if !ok {
			return false, fmt.Errorf("learn: hypothesis stuck from state %d on %v", s, ce[i:])
		}
		return strings.Join(out[len(a):], ",") == strings.Join(hout, ","), nil
	}

	// Invariant for the binary search: agrees(lo) == false, agrees(hi) == true.
	lo, hi := 0, len(ce)
	if a0, err := agrees(0); err != nil {
		return err
	} else if a0 {
		return inconsistent("counterexample is spurious: the system agrees with the hypothesis on it")
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		am, err := agrees(mid)
		if err != nil {
			return err
		}
		if am {
			hi = mid
		} else {
			lo = mid
		}
	}
	i := lo
	// The discriminator v = ce[i+1:] separates the system state reached by
	// alpha(i)·ce[i] from the one reached by alpha(i+1).
	ai, err := alpha(i)
	if err != nil {
		return err
	}
	newAccess := append(append([]string(nil), ai...), ce[i])
	v := append([]string(nil), ce[i+1:]...)
	if len(v) == 0 {
		return inconsistent(fmt.Sprintf("empty discriminator at %d: a transition output contradicts itself", i))
	}

	// Locate the leaf the new access currently sifts to and split it.
	leaf, created, err := d.sift(ctx, newAccess)
	if err != nil {
		return err
	}
	if created {
		return nil // sifting alone discovered a new state; good enough
	}
	// The two signature probes of the split are independent; emit them as
	// one batch.
	pairOuts, err := queryAll(ctx, d.oracle, [][]string{
		concat(leaf.access, v), concat(newAccess, v),
	})
	if err != nil {
		return err
	}
	sigOld := strings.Join(pairOuts[0][len(leaf.access):], "\x1f")
	sigNew := strings.Join(pairOuts[1][len(newAccess):], "\x1f")
	if sigOld == sigNew {
		return inconsistent(
			fmt.Sprintf("discriminator %v fails to split %v from %v", v, leaf.access, newAccess),
			concat(leaf.access, v), concat(newAccess, v))
	}
	oldLeaf := &dtNode{access: leaf.access}
	newLeaf := &dtNode{access: newAccess}
	// Convert leaf into an inner node in place so parent pointers stay valid.
	leaf.suffix = v
	leaf.access = nil
	leaf.children = map[string]*dtNode{sigOld: oldLeaf, sigNew: newLeaf}
	return nil
}
