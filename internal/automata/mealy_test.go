package automata

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// handshake builds the TCP 3-way handshake fragment of Fig. 3(b):
// s0 --SYN/SYN+ACK--> s1 --ACK/NIL--> s2, with self-loops elsewhere.
func handshake() *Mealy {
	m := NewMealy([]string{"SYN", "ACK"})
	s0 := m.Initial()
	s1 := m.AddState()
	s2 := m.AddState()
	m.SetTransition(s0, "SYN", s1, "SYN+ACK")
	m.SetTransition(s0, "ACK", s0, "RST")
	m.SetTransition(s1, "SYN", s1, "NIL")
	m.SetTransition(s1, "ACK", s2, "NIL")
	m.SetTransition(s2, "SYN", s2, "ACK") // challenge ACK once established
	m.SetTransition(s2, "ACK", s2, "NIL")
	return m
}

func TestMealyRun(t *testing.T) {
	m := handshake()
	out, ok := m.Run([]string{"SYN", "ACK"})
	if !ok {
		t.Fatal("run incomplete")
	}
	want := []string{"SYN+ACK", "NIL"}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
}

func TestMealyRunUndefined(t *testing.T) {
	m := NewMealy([]string{"a"})
	if _, ok := m.Run([]string{"a"}); ok {
		t.Fatal("expected undefined transition")
	}
	if _, ok := m.Run([]string{"zzz"}); ok {
		t.Fatal("expected unknown input to fail")
	}
}

func TestMealyStepUnknownInput(t *testing.T) {
	m := handshake()
	if _, _, ok := m.Step(m.Initial(), "nope"); ok {
		t.Fatal("unknown input must not step")
	}
}

func TestTotalAndReachable(t *testing.T) {
	m := handshake()
	if !m.Total() {
		t.Fatal("handshake machine should be total")
	}
	if got := len(m.Reachable()); got != 3 {
		t.Fatalf("reachable = %d, want 3", got)
	}
	unreachable := m.AddState()
	m.SetTransition(unreachable, "SYN", unreachable, "x")
	if got := len(m.Reachable()); got != 3 {
		t.Fatalf("reachable after adding orphan = %d, want 3", got)
	}
	trimmed := m.TrimReachable()
	if trimmed.NumStates() != 3 {
		t.Fatalf("trimmed states = %d, want 3", trimmed.NumStates())
	}
}

func TestMinimizeMergesEquivalentStates(t *testing.T) {
	// Build a machine with two copies of the absorbing state.
	m := NewMealy([]string{"a"})
	s0 := m.Initial()
	s1 := m.AddState()
	s2 := m.AddState()
	m.SetTransition(s0, "a", s1, "x")
	m.SetTransition(s1, "a", s2, "y")
	m.SetTransition(s2, "a", s1, "x") // s0 and s2 behave identically
	min := m.Minimize()
	if min.NumStates() != 2 {
		t.Fatalf("minimized states = %d, want 2", min.NumStates())
	}
	eq, ce := m.Equivalent(min)
	if !eq {
		t.Fatalf("minimized machine not equivalent, ce=%v", ce)
	}
}

func TestMinimizeIdempotent(t *testing.T) {
	m := handshake().Minimize()
	again := m.Minimize()
	if m.NumStates() != again.NumStates() {
		t.Fatalf("minimize not idempotent: %d vs %d", m.NumStates(), again.NumStates())
	}
}

func TestEquivalentDetectsDifference(t *testing.T) {
	a := handshake()
	b := handshake()
	// Change one deep output in b.
	b.SetTransition(2, "ACK", 2, "RST")
	eq, ce := a.Equivalent(b)
	if eq {
		t.Fatal("machines should differ")
	}
	oa, _ := a.Run(ce)
	ob, _ := b.Run(ce)
	if reflect.DeepEqual(oa, ob) {
		t.Fatalf("counterexample %v does not distinguish: %v vs %v", ce, oa, ob)
	}
	// Shortest counterexample for this machine pair has length 3.
	if len(ce) != 3 {
		t.Fatalf("counterexample length = %d, want 3 (%v)", len(ce), ce)
	}
}

func TestEquivalentSelf(t *testing.T) {
	a := handshake()
	if eq, ce := a.Equivalent(a.Clone()); !eq {
		t.Fatalf("machine not equivalent to its clone, ce=%v", ce)
	}
}

func TestAccessSequences(t *testing.T) {
	m := handshake()
	acc := m.AccessSequences()
	if len(acc) != 3 {
		t.Fatalf("access sequences for %d states, want 3", len(acc))
	}
	for s, word := range acc {
		got, ok := m.StateAfter(word)
		if !ok || got != State(s) {
			t.Fatalf("access sequence %v leads to %d, want %d", word, got, s)
		}
	}
	if len(acc[2]) != 2 {
		t.Fatalf("access to s2 has length %d, want 2", len(acc[2]))
	}
	m.AddState()
	if acc := m.AccessSequences(); len(acc) != 4 || acc[3] != nil || acc[0] == nil {
		t.Fatalf("access sequences %q: want a nil word for the unreachable s3 and an empty one for s0", acc)
	}
}

func TestCharacterizingSet(t *testing.T) {
	m := handshake()
	w := m.CharacterizingSet()
	if len(w) == 0 {
		t.Fatal("empty characterizing set for 3-state machine")
	}
	// Every pair of distinct states must be separated by some word in W.
	for a := 0; a < m.NumStates(); a++ {
		for b := a + 1; b < m.NumStates(); b++ {
			sep := false
			for _, word := range w {
				oa, _ := m.RunFrom(State(a), word)
				ob, _ := m.RunFrom(State(b), word)
				if strings.Join(oa, ",") != strings.Join(ob, ",") {
					sep = true
					break
				}
			}
			if !sep {
				t.Fatalf("states %d and %d not separated by W=%v", a, b, w)
			}
		}
	}
}

func TestCountTracesTotalMachine(t *testing.T) {
	// A total machine over k inputs has sum k^i traces of length 1..n.
	m := handshake()
	got := m.CountTraces(10)
	var want uint64
	pow := uint64(1)
	for i := 1; i <= 10; i++ {
		pow *= 2
		want += pow
	}
	if got != want {
		t.Fatalf("CountTraces = %d, want %d", got, want)
	}
}

func TestCountTracesPaperAlphabet(t *testing.T) {
	// §6.2.2: 7-symbol alphabet has 329,554,456 traces of length up to 10.
	inputs := make([]string, 7)
	for i := range inputs {
		inputs[i] = string(rune('a' + i))
	}
	m := NewMealy(inputs)
	for _, in := range inputs {
		m.SetTransition(0, in, 0, "o")
	}
	if got := m.CountTraces(10); got != 329554456 {
		t.Fatalf("CountTraces(10) over 7 symbols = %d, want 329554456", got)
	}
}

func TestCountTracesPartial(t *testing.T) {
	m := NewMealy([]string{"a", "b"})
	s1 := m.AddState()
	m.SetTransition(0, "a", s1, "x")
	m.SetTransition(s1, "b", 0, "y")
	// Words: a (1), ab (1), aba (1), ... exactly one per length.
	if got := m.CountTraces(5); got != 5 {
		t.Fatalf("CountTraces = %d, want 5", got)
	}
}

func TestDOTOutput(t *testing.T) {
	dot := handshake().DOT("tcp")
	for _, want := range []string{"digraph \"tcp\"", "s0 -> s1", "SYN / SYN+ACK", "rankdir=LR"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	a := handshake()
	b := a.Clone()
	b.SetTransition(0, "SYN", 0, "CHANGED")
	if _, out, _ := a.Step(0, "SYN"); out == "CHANGED" {
		t.Fatal("clone shares storage with original")
	}
}

// randomMealy builds a random total machine for property tests.
func randomMealy(rng *rand.Rand, states int, inputs []string, outputs []string) *Mealy {
	m := NewMealy(inputs)
	for m.NumStates() < states {
		m.AddState()
	}
	for s := 0; s < states; s++ {
		for _, in := range inputs {
			// Bias transitions toward lower states so most states are reachable.
			to := State(rng.Intn(states))
			m.SetTransition(State(s), in, to, outputs[rng.Intn(len(outputs))])
		}
	}
	return m
}

func TestPropertyMinimizePreservesBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := []string{"a", "b", "c"}
	outputs := []string{"0", "1"}
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 2
		m := randomMealy(r, n, inputs, outputs)
		min := m.Minimize()
		if min.NumStates() > len(m.Reachable()) {
			return false
		}
		eq, _ := m.Equivalent(min)
		return eq
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEquivalenceIsReflexiveAndFindsMutations(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMealy(r, 5, []string{"a", "b"}, []string{"0", "1", "2"})
		if eq, _ := m.Equivalent(m); !eq {
			return false
		}
		// Mutate one reachable transition's output to a fresh symbol.
		mut := m.Clone()
		reach := mut.Reachable()
		s := reach[r.Intn(len(reach))]
		in := mut.Inputs()[r.Intn(2)]
		to, _, _ := mut.Step(s, in)
		mut.SetTransition(s, in, to, "MUTANT")
		eq, ce := m.Equivalent(mut)
		if eq {
			return false
		}
		oa, _ := m.Run(ce)
		ob, _ := mut.Run(ce)
		return !reflect.DeepEqual(oa, ob)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
