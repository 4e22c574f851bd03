package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/automata"
)

// Model is a learned behaviour model under analysis: a named Mealy machine
// with the decision procedures of the analysis plane hanging off it —
// minimization, language equivalence, diffing, reachability and invariant
// queries, property checking, and the unified DOT/JSON codecs. It is the
// one type the rest of the stack exchanges: lab.Result.Model() produces
// one, every prognosis subcommand consumes one.
type Model struct {
	// Name labels the model in reports (typically the registry target it
	// was learned from, or the file it was loaded from).
	Name string

	m *automata.Mealy
}

// NewModel wraps a Mealy machine for analysis. The machine is shared, not
// copied; analyses never mutate it.
func NewModel(name string, m *automata.Mealy) *Model {
	if m == nil {
		return nil
	}
	return &Model{Name: name, m: m}
}

// Mealy returns the underlying machine.
func (m *Model) Mealy() *automata.Mealy { return m.m }

// States returns the number of states.
func (m *Model) States() int { return m.m.NumStates() }

// Transitions returns the number of defined transitions.
func (m *Model) Transitions() int { return m.m.NumTransitions() }

// Inputs returns the input alphabet.
func (m *Model) Inputs() []string { return m.m.Inputs() }

// Run feeds word to the model and returns the output word; ok is false when
// the model has no run for it.
func (m *Model) Run(word []string) ([]string, bool) { return m.m.Run(word) }

// Minimize returns the minimal model with the same behaviour (reachable
// part, canonical BFS state numbering). Minimized models are language-
// equivalent to their originals — property-tested in model_test.go.
func (m *Model) Minimize() *Model {
	return &Model{Name: m.Name, m: m.m.Minimize()}
}

// Equivalent checks language equivalence with another model over the same
// alphabet, returning a shortest distinguishing input word when they
// differ.
func (m *Model) Equivalent(other *Model) (bool, []string) {
	return m.m.Equivalent(other.m)
}

// DOT renders the model in the unified Graphviz codec (automata.ParseDOT
// reads it back).
func (m *Model) DOT() string { return m.m.DOT(m.Name) }

// JSON renders the model in the unified JSON codec.
func (m *Model) JSON() ([]byte, error) { return json.MarshalIndent(m.m, "", "  ") }

// Save writes the model to path in the codec chosen by extension: ".dot"
// for Graphviz, anything else for JSON.
func (m *Model) Save(path string) error {
	var data []byte
	if strings.EqualFold(filepath.Ext(path), ".dot") {
		data = []byte(m.DOT())
	} else {
		var err error
		if data, err = m.JSON(); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadModel reads a model saved in either unified codec (JSON or dot,
// sniffed from the content). The model is named after the file.
func LoadModel(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := automata.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return NewModel(name, m), nil
}

// Step is one transition of a model, as reachability and invariant queries
// see it.
type Step struct {
	From   automata.State
	Input  string
	Output string
	To     automata.State
}

// Witness is a concrete trace of the model produced by a query: the input
// word from the initial state and the outputs along it. The final step is
// the one the query selected (the violating transition, the matching
// output, ...).
type Witness struct {
	Word    []string
	Outputs []string
}

// String renders the witness one step per line.
func (w *Witness) String() string {
	var b strings.Builder
	for i := range w.Word {
		fmt.Fprintf(&b, "  step %d: %s / %s\n", i+1, w.Word[i], w.Outputs[i])
	}
	return b.String()
}

// CheckInvariant checks a transition invariant over every reachable
// transition of the model and returns a shortest witness ending in a
// violating transition, or nil when the invariant holds. This is the
// model-level analogue of a packet-trace property: instead of one recorded
// trace, every behaviour of the learned model is checked.
func (m *Model) CheckInvariant(inv func(Step) bool) *Witness {
	return m.search(func(s Step) bool { return !inv(s) })
}

// FindOutput returns a shortest witness whose final output satisfies pred —
// the basic reachability query ("can the model ever emit X, and how?").
// It returns nil when no reachable transition's output matches.
func (m *Model) FindOutput(pred func(output string) bool) *Witness {
	return m.search(func(s Step) bool { return pred(s.Output) })
}

// Outputs returns the set of output symbols on transitions reachable from
// the initial state, in first-reached (BFS) order.
func (m *Model) Outputs() []string {
	var outs []string
	seen := map[string]bool{}
	for _, s := range m.m.Reachable() {
		for _, in := range m.m.Inputs() {
			if _, out, ok := m.m.Step(s, in); ok && !seen[out] {
				seen[out] = true
				outs = append(outs, out)
			}
		}
	}
	return outs
}

// search BFS-explores the model from the initial state and returns a
// shortest witness whose final transition satisfies hit.
func (m *Model) search(hit func(Step) bool) *Witness {
	type node struct {
		s    automata.State
		word []string
		outs []string
	}
	seen := map[automata.State]bool{m.m.Initial(): true}
	queue := []node{{s: m.m.Initial()}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, in := range m.m.Inputs() {
			to, out, ok := m.m.Step(cur.s, in)
			if !ok {
				continue
			}
			step := Step{From: cur.s, Input: in, Output: out, To: to}
			if hit(step) {
				return &Witness{
					Word:    append(append([]string(nil), cur.word...), in),
					Outputs: append(append([]string(nil), cur.outs...), out),
				}
			}
			if !seen[to] {
				seen[to] = true
				queue = append(queue, node{
					s:    to,
					word: append(append([]string(nil), cur.word...), in),
					outs: append(append([]string(nil), cur.outs...), out),
				})
			}
		}
	}
	return nil
}
