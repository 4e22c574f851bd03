package automata

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
)

// FuzzDecode is the model-decoder fuzz gate registered in CI's fuzz-smoke:
// no input may panic either codec, and any machine Decode accepts must
// re-encode to JSON and decode back to an equivalent machine. The machines
// JSON cannot carry are one with a state it never names (neither initial
// nor a transition endpoint) and one whose compact re-encoding is too
// short for its states × inputs table; their re-encodings must be
// rejected.
func FuzzDecode(f *testing.F) {
	small := []*Mealy{handshake(), randomMealy(rand.New(rand.NewSource(1)), 4, []string{"a", "b"}, []string{"0", "1"})}
	for _, m := range small {
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add([]byte(m.DOT("m")))
	}
	for _, name := range []string{"google.json", "google.dot"} {
		data, err := os.ReadFile("../analysis/testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"inputs":["a"],"states":5000000,"initial":0,"transitions":[]}`))
	f.Add([]byte("digraph \"x\" {\n  __start -> s0;\n  s5000000 [label=\"x\"]\n}\n"))
	jsonIn, dotIn := amplifying()
	f.Add(jsonIn)
	f.Add(dotIn)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("decoded machine does not re-encode: %v", err)
		}
		back, err := Decode(enc)
		if !namesEveryState(m) || checkSize(m.NumStates(), len(m.Inputs()), len(enc)) != nil {
			if err == nil {
				t.Fatalf("JSON naming fewer ids than its %d states, or over the size budget, was accepted: %s", m.NumStates(), enc)
			}
			return
		}
		if err != nil {
			t.Fatalf("re-encoded machine does not decode: %v\n%s", err, enc)
		}
		if eq, ce := m.Equivalent(back); !eq {
			t.Fatalf("JSON round trip changed behaviour on %v\n%s", ce, enc)
		}
	})
}

// namesEveryState reports whether every state of m is its initial state or
// an endpoint of a defined transition.
func namesEveryState(m *Mealy) bool {
	named := map[State]bool{m.initial: true}
	for s := range m.trans {
		for _, to := range m.trans[s] {
			if to != Invalid {
				named[State(s)], named[to] = true, true
			}
		}
	}
	return len(named) == m.NumStates()
}

// amplifying returns a JSON and a DOT model that name many state ids and
// a long alphabet in few bytes: the JSON is under 90 KB and names 2,000
// states over 5,000 inputs, a 10-million-slot transition table.
func amplifying() (jsonIn, dotIn []byte) {
	const states, inputs = 2000, 5000
	alphabet := make([]string, inputs)
	for i := range alphabet {
		alphabet[i] = fmt.Sprint("i", i)
	}
	alph, _ := json.Marshal(alphabet)
	var j, d bytes.Buffer
	fmt.Fprintf(&j, `{"inputs":%s,"states":%d,"initial":0,"transitions":[`, alph, states)
	fmt.Fprintf(&d, "digraph \"x\" {\n  /* alphabet: %s */\n  __start -> s0;\n", alph)
	for s := 0; s < states; s += 2 {
		if s > 0 {
			j.WriteByte(',')
		}
		fmt.Fprintf(&j, `{"from":%d,"input":"i0","to":%d,"output":""}`, s, s+1)
		fmt.Fprintf(&d, "  s%d [label=\"\"];\n  s%d [label=\"\"];\n", s, s+1)
	}
	j.WriteString("]}")
	d.WriteString("}\n")
	return j.Bytes(), d.Bytes()
}
