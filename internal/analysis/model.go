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
// minimization, language equivalence, diffing, property checking, and the
// unified DOT/JSON codecs. It is the
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

// Witness is a concrete trace of the model produced by a check: the input
// word from the initial state and the outputs along it. The final step is
// the one the check flagged (the violating transition).
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
