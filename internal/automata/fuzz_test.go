package automata

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
)

// FuzzDecode is the model-decoder fuzz gate registered in CI's fuzz-smoke:
// no input may panic either codec, and any machine Decode accepts must
// re-encode to JSON and decode back to an equivalent machine. The one
// machine JSON cannot carry is one with a state it never names (neither
// initial nor a transition endpoint); its re-encoding must be rejected.
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
		if !namesEveryState(m) {
			if err == nil {
				t.Fatalf("JSON naming fewer ids than its %d states was accepted: %s", m.NumStates(), enc)
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
