package automata

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestJSONRoundTrip(t *testing.T) {
	m := handshake()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Mealy
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if eq, ce := m.Equivalent(&back); !eq {
		t.Fatalf("round trip changed behaviour on %v", ce)
	}
	if back.NumStates() != m.NumStates() || back.Initial() != m.Initial() {
		t.Fatalf("shape changed: %d/%d states", back.NumStates(), m.NumStates())
	}
}

func TestJSONRejectsMalformed(t *testing.T) {
	cases := []string{
		`{"inputs":["a"],"states":0,"initial":0}`,
		`{"inputs":["a"],"states":2,"initial":5}`,
		`{"inputs":["a"],"states":2,"initial":0,"transitions":[{"from":0,"input":"zz","to":1,"output":"x"}]}`,
		`{"inputs":["a"],"states":2,"initial":0,"transitions":[{"from":0,"input":"a","to":9,"output":"x"}]}`,
		`not json`,
		`{"inputs":["a"],"states":5000000,"initial":0,"transitions":[]}`, // count beyond the ids named
		// A repeated symbol: the second column could never be set.
		`{"inputs":["a","a"],"states":1,"initial":0,"transitions":[{"from":0,"input":"a","to":0,"output":"x"}]}`,
	}
	for _, c := range cases {
		var m Mealy
		if err := json.Unmarshal([]byte(c), &m); err == nil {
			t.Errorf("accepted malformed input %q", c)
		}
	}
}

func TestJSONPropertyRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 1
		m := randomMealy(r, n, []string{"a", "b"}, []string{"0", "1"})
		data, err := json.Marshal(m)
		if err != nil {
			return false
		}
		var back Mealy
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		eq, _ := m.Equivalent(&back)
		return eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONPartialMachine(t *testing.T) {
	m := NewMealy([]string{"a", "b"})
	s1 := m.AddState()
	m.SetTransition(0, "a", s1, "x")
	data, _ := json.Marshal(m)
	var back Mealy
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumTransitions() != 1 {
		t.Fatalf("transitions = %d, want 1", back.NumTransitions())
	}
	if _, _, ok := back.Step(0, "b"); ok {
		t.Fatal("undefined transition materialized")
	}
}
