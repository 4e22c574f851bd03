// Package automata provides finite-state machines used throughout Prognosis:
// deterministic Mealy machines (the model class learned from protocol
// implementations), specification DFAs used as safety monitors, and the
// decision procedures the analysis module relies on (minimization,
// equivalence with counterexample, trace counting, characterizing sets).
package automata

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// State identifies a state in a Mealy machine. States are dense indices
// starting at 0; the zero value is the conventional initial state of a
// machine built with NewMealy.
type State int

// Invalid is returned by lookups that fail to resolve a state.
const Invalid State = -1

// Mealy is a deterministic Mealy machine: a finite automaton that emits one
// output symbol for every input symbol it consumes. Inputs and outputs are
// strings (abstract alphabet symbols such as "SYN(?,?,0)" or
// "INITIAL(?,?)[CRYPTO]").
//
// The zero value is not useful; construct machines with NewMealy and
// populate them with AddState and SetTransition.
type Mealy struct {
	inputs  []string
	initial State

	// trans[s][i] and out[s][i] index by state and input position.
	trans [][]State
	out   [][]string
}

// NewMealy returns an empty machine over the given input alphabet with a
// single initial state 0 and no transitions defined.
func NewMealy(inputs []string) *Mealy {
	m := &Mealy{inputs: append([]string(nil), inputs...)}
	m.AddState()
	return m
}

// Inputs returns the input alphabet in declaration order. The returned slice
// must not be modified.
func (m *Mealy) Inputs() []string { return m.inputs }

// Initial returns the initial state.
func (m *Mealy) Initial() State { return m.initial }

// SetInitial changes the initial state.
func (m *Mealy) SetInitial(s State) { m.initial = s }

// NumStates returns the number of states.
func (m *Mealy) NumStates() int { return len(m.trans) }

// NumTransitions returns the number of defined transitions.
func (m *Mealy) NumTransitions() int {
	n := 0
	for _, row := range m.trans {
		for _, t := range row {
			if t != Invalid {
				n++
			}
		}
	}
	return n
}

// AddState adds a fresh state with no outgoing transitions and returns it.
func (m *Mealy) AddState() State {
	row := make([]State, len(m.inputs))
	for i := range row {
		row[i] = Invalid
	}
	m.trans = append(m.trans, row)
	m.out = append(m.out, make([]string, len(m.inputs)))
	return State(len(m.trans) - 1)
}

// SetTransition defines the transition and output for (from, input).
// It panics if the input is not in the alphabet or a state is out of range,
// since that is always a programming error in the caller.
func (m *Mealy) SetTransition(from State, input string, to State, output string) {
	i := slices.Index(m.inputs, input)
	if i < 0 {
		panic(fmt.Sprintf("automata: input %q not in alphabet", input))
	}
	if int(from) >= len(m.trans) || int(to) >= len(m.trans) || from < 0 || to < 0 {
		panic(fmt.Sprintf("automata: state out of range: %d -> %d (have %d)", from, to, len(m.trans)))
	}
	m.trans[from][i] = to
	m.out[from][i] = output
}

// Step returns the successor state and output for (from, input).
// ok is false if the transition is undefined or the input unknown.
func (m *Mealy) Step(from State, input string) (to State, output string, ok bool) {
	i := slices.Index(m.inputs, input)
	if i < 0 || int(from) >= len(m.trans) || from < 0 {
		return Invalid, "", false
	}
	to = m.trans[from][i]
	if to == Invalid {
		return Invalid, "", false
	}
	return to, m.out[from][i], true
}

// Run feeds word to the machine from the initial state and returns the
// output word. ok is false if any transition along the way is undefined.
func (m *Mealy) Run(word []string) (outputs []string, ok bool) {
	return m.RunFrom(m.initial, word)
}

// RunFrom is Run starting at an arbitrary state.
func (m *Mealy) RunFrom(s State, word []string) (outputs []string, ok bool) {
	outputs = make([]string, 0, len(word))
	for _, in := range word {
		next, out, ok := m.Step(s, in)
		if !ok {
			return outputs, false
		}
		outputs = append(outputs, out)
		s = next
	}
	return outputs, true
}

// StateAfter returns the state reached from the initial state on word.
func (m *Mealy) StateAfter(word []string) (State, bool) {
	s := m.initial
	for _, in := range word {
		next, _, ok := m.Step(s, in)
		if !ok {
			return Invalid, false
		}
		s = next
	}
	return s, true
}

// Total reports whether every state defines a transition for every input.
func (m *Mealy) Total() bool {
	for _, row := range m.trans {
		for _, t := range row {
			if t == Invalid {
				return false
			}
		}
	}
	return true
}

// Reachable returns the set of states reachable from the initial state.
func (m *Mealy) Reachable() []State {
	seen := make([]bool, len(m.trans))
	var order []State
	stack := []State{m.initial}
	seen[m.initial] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, s)
		for _, t := range m.trans[s] {
			if t != Invalid && !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	return order
}

// TrimReachable returns a copy of m containing only states reachable from
// the initial state, renumbered in BFS order (so the initial state is 0 and
// state numbering is canonical for comparison and display).
func (m *Mealy) TrimReachable() *Mealy {
	renum := make(map[State]State)
	order := []State{m.initial}
	renum[m.initial] = 0
	for qi := 0; qi < len(order); qi++ {
		s := order[qi]
		for i := range m.inputs {
			t := m.trans[s][i]
			if t == Invalid {
				continue
			}
			if _, ok := renum[t]; !ok {
				renum[t] = State(len(order))
				order = append(order, t)
			}
		}
	}
	n := NewMealy(m.inputs)
	for len(n.trans) < len(order) {
		n.AddState()
	}
	for _, s := range order {
		for i, in := range m.inputs {
			t := m.trans[s][i]
			if t == Invalid {
				continue
			}
			n.SetTransition(renum[s], in, renum[t], m.out[s][i])
		}
	}
	return n
}

// Minimize returns the minimal machine equivalent to m (restricted to
// reachable states), computed by Hopcroft-style partition refinement over
// output signatures. m must be total on its reachable part.
func (m *Mealy) Minimize() *Mealy {
	r := m.TrimReachable()
	n := r.NumStates()
	if n == 0 {
		return r
	}
	// Initial partition: group states by their output row.
	sig := make(map[string][]State)
	for s := 0; s < n; s++ {
		key := strings.Join(r.out[s], "\x00")
		sig[key] = append(sig[key], State(s))
	}
	block := make([]int, n) // state -> block id
	var blocks [][]State
	for _, states := range sig {
		id := len(blocks)
		blocks = append(blocks, states)
		for _, s := range states {
			block[s] = id
		}
	}
	// Refine until stable.
	for changed := true; changed; {
		changed = false
		var next [][]State
		nextBlock := make([]int, n)
		for _, b := range blocks {
			// Split b by successor block vector.
			groups := make(map[string][]State)
			for _, s := range b {
				var key strings.Builder
				for i := range r.inputs {
					fmt.Fprintf(&key, "%d,", block[r.trans[s][i]])
				}
				groups[key.String()] = append(groups[key.String()], s)
			}
			if len(groups) > 1 {
				changed = true
			}
			for _, g := range groups {
				id := len(next)
				next = append(next, g)
				for _, s := range g {
					nextBlock[s] = id
				}
			}
		}
		blocks, block = next, nextBlock
	}
	// Build quotient. Renumber so the initial block is 0 via TrimReachable.
	q := NewMealy(r.inputs)
	for len(q.trans) < len(blocks) {
		q.AddState()
	}
	q.SetInitial(State(block[r.initial]))
	for s := 0; s < n; s++ {
		for i, in := range r.inputs {
			t := r.trans[s][i]
			if t == Invalid {
				continue
			}
			q.SetTransition(State(block[s]), in, State(block[t]), r.out[s][i])
		}
	}
	return q.TrimReachable()
}

// Equivalent checks language equivalence of m and other (which must share
// the input alphabet, in any order). If the machines differ it returns a
// shortest distinguishing input word; otherwise ce is nil.
//
// Both machines must be total on their reachable parts; an undefined
// transition on one side counts as a difference.
func (m *Mealy) Equivalent(other *Mealy) (equal bool, ce []string) {
	type pair struct{ a, b State }
	type node struct {
		p    pair
		word []string
	}
	start := pair{m.initial, other.initial}
	seen := map[pair]bool{start: true}
	queue := []node{{p: start}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, in := range m.inputs {
			ta, oa, oka := m.Step(cur.p.a, in)
			tb, ob, okb := other.Step(cur.p.b, in)
			word := append(append([]string(nil), cur.word...), in)
			if oka != okb || (oka && oa != ob) {
				return false, word
			}
			if !oka {
				continue
			}
			np := pair{ta, tb}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, node{p: np, word: word})
			}
		}
	}
	return true, nil
}

// AccessSequences returns, indexed by state, a shortest input word leading
// from the initial state to it (BFS order). The initial state's word is
// empty but not nil; an unreachable state's is nil.
func (m *Mealy) AccessSequences() [][]string {
	acc := make([][]string, len(m.trans))
	acc[m.initial] = []string{}
	queue := []State{m.initial}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for i, in := range m.inputs {
			t := m.trans[s][i]
			if t == Invalid || acc[t] != nil {
				continue
			}
			acc[t] = append(append([]string(nil), acc[s]...), in)
			queue = append(queue, t)
		}
	}
	return acc
}

// CharacterizingSet returns a set W of input words such that any two
// distinct states of the (assumed minimal, total) machine produce different
// output words on at least one member of W. ConformanceSuite in
// internal/learn builds the W and Wp suites, and the warm discrimination
// tree, from it.
func (m *Mealy) CharacterizingSet() [][]string {
	n := m.NumStates()
	if n <= 1 {
		if len(m.inputs) > 0 {
			return [][]string{{m.inputs[0]}}
		}
		return nil
	}
	var w [][]string
	distinguished := func(a, b State) bool {
		for _, word := range w {
			oa, _ := m.RunFrom(a, word)
			ob, _ := m.RunFrom(b, word)
			if strings.Join(oa, "\x00") != strings.Join(ob, "\x00") {
				return true
			}
		}
		return false
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if distinguished(State(a), State(b)) {
				continue
			}
			word := m.distinguishingWord(State(a), State(b))
			if word != nil {
				w = append(w, word)
			}
		}
	}
	return w
}

// distinguishingWord returns a shortest word on which states a and b emit
// different outputs, or nil if they are equivalent.
func (m *Mealy) distinguishingWord(a, b State) []string {
	type pair struct{ x, y State }
	type node struct {
		p    pair
		word []string
	}
	start := pair{a, b}
	seen := map[pair]bool{start: true}
	queue := []node{{p: start}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, in := range m.inputs {
			tx, ox, okx := m.Step(cur.p.x, in)
			ty, oy, oky := m.Step(cur.p.y, in)
			word := append(append([]string(nil), cur.word...), in)
			if okx != oky || (okx && ox != oy) {
				return word
			}
			if !okx {
				continue
			}
			np := pair{tx, ty}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, node{p: np, word: word})
			}
		}
	}
	return nil
}

// TotalWords returns the number of distinct input words of length
// 1..maxLen over an alphabet of k symbols: sum over i of k^i. It is the
// denominator of the trace-reduction statistic of §6.2.2 — the full word
// space a learned model (CountTraces) cuts down. The result overflows
// uint64 silently for very large k^maxLen; the paper's 7-symbol,
// length-10 space (329,554,456) is nowhere near the limit.
func TotalWords(k, maxLen int) uint64 {
	var total, pow uint64 = 0, 1
	for i := 1; i <= maxLen; i++ {
		pow *= uint64(k)
		total += pow
	}
	return total
}

// CountTraces returns the number of distinct input words of length 1..maxLen
// that have defined runs in the machine. For a total machine over k inputs
// this is sum over i of k^i; for a partial machine it counts only words the
// model accepts, which is the trace-reduction statistic reported in §6.2.2
// of the paper.
func (m *Mealy) CountTraces(maxLen int) uint64 {
	// counts[s] = number of live words of the current length ending in s.
	counts := make([]uint64, m.NumStates())
	counts[m.initial] = 1
	var total uint64
	for l := 1; l <= maxLen; l++ {
		next := make([]uint64, m.NumStates())
		for s, c := range counts {
			if c == 0 {
				continue
			}
			for i := range m.inputs {
				t := m.trans[s][i]
				if t == Invalid {
					continue
				}
				next[t] += c
			}
		}
		counts = next
		for _, c := range counts {
			total += c
		}
	}
	return total
}

// CountTracesFiltered is CountTraces restricted to words whose every step's
// output satisfies keep. With keep rejecting the empty output "{}" this
// counts the model's productive traces — input words the implementation
// actually reacts to, the trace-reduction statistic of §6.2.2 (words
// containing a silently-dropped packet explore no new behaviour and need
// not be checked).
func (m *Mealy) CountTracesFiltered(maxLen int, keep func(output string) bool) uint64 {
	counts := make([]uint64, m.NumStates())
	counts[m.initial] = 1
	var total uint64
	for l := 1; l <= maxLen; l++ {
		next := make([]uint64, m.NumStates())
		for s, c := range counts {
			if c == 0 {
				continue
			}
			for i := range m.inputs {
				t := m.trans[s][i]
				if t == Invalid || !keep(m.out[s][i]) {
					continue
				}
				next[t] += c
			}
		}
		counts = next
		for _, c := range counts {
			total += c
		}
	}
	return total
}

// String returns a compact human-readable listing of the machine.
func (m *Mealy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mealy(states=%d, inputs=%d, initial=s%d)\n", m.NumStates(), len(m.inputs), m.initial)
	for s := range m.trans {
		for i, in := range m.inputs {
			if m.trans[s][i] == Invalid {
				continue
			}
			fmt.Fprintf(&b, "  s%d --%s/%s--> s%d\n", s, in, m.out[s][i], m.trans[s][i])
		}
	}
	return b.String()
}

// Clone returns a deep copy of m.
func (m *Mealy) Clone() *Mealy {
	n := NewMealy(m.inputs)
	for len(n.trans) < len(m.trans) {
		n.AddState()
	}
	n.initial = m.initial
	for s := range m.trans {
		copy(n.trans[s], m.trans[s])
		copy(n.out[s], m.out[s])
	}
	return n
}
