package analysis

import (
	"fmt"
	"strings"

	"repro/internal/automata"
)

// DiffReport describes how two models relate, computed by one product
// construction: witnesses are the shortest distinguishing input words (the
// "concrete example traces that show the difference" of §5), and Divergent
// summarises, per reachable joint state, which inputs the models disagree
// on — the "in which state do these two implementations diverge?" view.
type DiffReport struct {
	NameA, NameB     string
	StatesA, StatesB int
	TransA, TransB   int
	Equivalent       bool
	// Witnesses are distinguishing input words with both models' outputs,
	// shortest first.
	Witnesses []DiffWitness
	// Divergent lists every reachable joint state at which at least one
	// input produces different outputs, in BFS (shortest-access) order.
	Divergent []JointDivergence
}

// DiffWitness is one distinguishing trace.
type DiffWitness struct {
	Word            []string
	OutputsA        []string
	OutputsB        []string
	FirstDivergence int
}

// JointDivergence is the per-state summary of one diverging joint state of
// the product automaton.
type JointDivergence struct {
	StateA, StateB automata.State
	// Access is a shortest input word reaching the joint state from the
	// initial states.
	Access []string
	// Inputs are the input symbols on which the two models' outputs (or
	// transition definedness) differ at this joint state.
	Inputs []string
}

// Diff compares two models over the same alphabet by exploring the full
// product automaton, collecting up to maxWitnesses distinguishing traces
// (shortest first; 0 collects none) and a per-joint-state divergence
// summary. Exploration continues through diverging transitions as long as
// both sides stay defined, so divergences deeper than the first are
// summarised too.
func Diff(a, b *Model, maxWitnesses int) *DiffReport {
	ma, mb := a.Mealy(), b.Mealy()
	r := &DiffReport{
		NameA: a.Name, NameB: b.Name,
		StatesA: ma.NumStates(), StatesB: mb.NumStates(),
		TransA: ma.NumTransitions(), TransB: mb.NumTransitions(),
	}
	type pair struct{ a, b automata.State }
	type node struct {
		p    pair
		word []string
	}
	addWitness := func(word []string) {
		if len(r.Witnesses) >= maxWitnesses {
			return
		}
		oa, _ := ma.Run(word)
		ob, _ := mb.Run(word)
		div := firstDivergence(oa, ob)
		if div < 0 {
			return
		}
		r.Witnesses = append(r.Witnesses, DiffWitness{
			Word: word, OutputsA: oa, OutputsB: ob, FirstDivergence: div,
		})
	}
	start := pair{ma.Initial(), mb.Initial()}
	seen := map[pair]bool{start: true}
	queue := []node{{p: start}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		var diverging []string
		for _, in := range ma.Inputs() {
			ta, oa, oka := ma.Step(cur.p.a, in)
			tb, ob, okb := mb.Step(cur.p.b, in)
			word := append(append([]string(nil), cur.word...), in)
			if oka != okb || (oka && oa != ob) {
				diverging = append(diverging, in)
				addWitness(word)
			}
			if !oka || !okb {
				continue
			}
			np := pair{ta, tb}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, node{p: np, word: word})
			}
		}
		if len(diverging) > 0 {
			r.Divergent = append(r.Divergent, JointDivergence{
				StateA: cur.p.a, StateB: cur.p.b,
				Access: cur.word, Inputs: diverging,
			})
		}
	}
	r.Equivalent = len(r.Divergent) == 0
	return r
}

func firstDivergence(a, b []string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// String renders the report for a terminal, mirroring the role of the
// paper's model visualizations when explaining anomalies to developers.
func (r *DiffReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model diff: %s (%d states, %d transitions) vs %s (%d states, %d transitions)\n",
		r.NameA, r.StatesA, r.TransA, r.NameB, r.StatesB, r.TransB)
	if r.Equivalent {
		b.WriteString("  models are equivalent\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  models are NOT equivalent (%d diverging joint states, %d witness traces)\n",
		len(r.Divergent), len(r.Witnesses))
	for _, d := range r.Divergent {
		fmt.Fprintf(&b, "  at (%s s%d, %s s%d) after %v: diverges on %s\n",
			r.NameA, d.StateA, r.NameB, d.StateB, d.Access, strings.Join(d.Inputs, ", "))
	}
	for i, w := range r.Witnesses {
		fmt.Fprintf(&b, "  witness %d (diverges at step %d):\n", i+1, w.FirstDivergence+1)
		for j, in := range w.Word {
			oa, ob := "-", "-"
			if j < len(w.OutputsA) {
				oa = w.OutputsA[j]
			}
			if j < len(w.OutputsB) {
				ob = w.OutputsB[j]
			}
			marker := " "
			if j == w.FirstDivergence {
				marker = "*"
			}
			fmt.Fprintf(&b, "   %s step %d: %s\n        %s: %s\n        %s: %s\n", marker, j+1, in, r.NameA, oa, r.NameB, ob)
		}
	}
	return b.String()
}
