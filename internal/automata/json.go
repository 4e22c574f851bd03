package automata

import (
	"encoding/json"
	"fmt"
	"slices"
)

// mealyJSON is the serialized form of a Mealy machine: a portable record of
// a learned model, so analyses can run on saved models without re-learning
// (the tools' -save/-load flags).
type mealyJSON struct {
	Inputs      []string     `json:"inputs"`
	States      int          `json:"states"`
	Initial     State        `json:"initial"`
	Transitions []transition `json:"transitions"`
}

type transition struct {
	From   State  `json:"from"`
	Input  string `json:"input"`
	To     State  `json:"to"`
	Output string `json:"output"`
}

// maxSlotsPerByte bounds what a decoder may allocate for its input. A
// machine holds states × |inputs| transition slots; a learned (total)
// machine spends tens of encoded bytes on each slot, so four slots per
// input byte leaves room for sparse machines while keeping a short input
// that names many states and a long alphabet from sizing a huge table.
const maxSlotsPerByte = 4

// checkSize rejects a machine shape whose transition table exceeds the
// allocation budget of an n-byte input.
func checkSize(states, inputs, n int) error {
	if states*inputs > maxSlotsPerByte*n {
		return fmt.Errorf("automata: %d states × %d inputs exceed the %d slots a %d-byte input may size",
			states, inputs, maxSlotsPerByte*n, n)
	}
	return nil
}

// checkAlphabet rejects an alphabet that names a symbol twice: the
// second column could never be set, so the machine could not be total.
func checkAlphabet(inputs []string) error {
	seen := make(map[string]bool, len(inputs))
	for _, in := range inputs {
		if seen[in] {
			return fmt.Errorf("automata: input %q repeated in the alphabet", in)
		}
		seen[in] = true
	}
	return nil
}

// MarshalJSON implements json.Marshaler.
func (m *Mealy) MarshalJSON() ([]byte, error) {
	out := mealyJSON{
		Inputs:  m.inputs,
		States:  m.NumStates(),
		Initial: m.initial,
	}
	for s := range m.trans {
		for i, in := range m.inputs {
			if m.trans[s][i] == Invalid {
				continue
			}
			out.Transitions = append(out.Transitions, transition{
				From: State(s), Input: in, To: m.trans[s][i], Output: m.out[s][i],
			})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Mealy) UnmarshalJSON(data []byte) error {
	var in mealyJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.States < 1 {
		return fmt.Errorf("automata: machine needs at least one state, got %d", in.States)
	}
	// A well-formed export mentions every state it declares, as the
	// initial state or a transition endpoint. Bounding the count by the
	// ids the input names keeps a tiny input from sizing a huge machine.
	ids := map[State]bool{in.Initial: true}
	for _, t := range in.Transitions {
		ids[t.From], ids[t.To] = true, true
	}
	if in.States > len(ids) {
		return fmt.Errorf("automata: %d states declared but only %d state ids mentioned", in.States, len(ids))
	}
	if err := checkSize(in.States, len(in.Inputs), len(data)); err != nil {
		return err
	}
	if err := checkAlphabet(in.Inputs); err != nil {
		return err
	}
	if int(in.Initial) < 0 || int(in.Initial) >= in.States {
		return fmt.Errorf("automata: initial state %d out of range", in.Initial)
	}
	n := NewMealy(in.Inputs)
	for n.NumStates() < in.States {
		n.AddState()
	}
	n.SetInitial(in.Initial)
	for _, t := range in.Transitions {
		if int(t.From) >= in.States || int(t.To) >= in.States || t.From < 0 || t.To < 0 {
			return fmt.Errorf("automata: transition %v out of range", t)
		}
		if !slices.Contains(in.Inputs, t.Input) {
			return fmt.Errorf("automata: transition input %q not in alphabet", t.Input)
		}
		n.SetTransition(t.From, t.Input, t.To, t.Output)
	}
	*m = *n
	return nil
}
