package analysis

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/quicsim"
)

// TestBuiltinsHoldOnCleanGoldens: the clean google golden satisfies the
// whole builtin property set.
func TestBuiltinsHoldOnGoldenGoogle(t *testing.T) {
	google, err := LoadModel(filepath.Join("testdata", "google.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range CheckAll(google) {
		if !r.OK() {
			t.Errorf("%s violated on clean google: %v", r.Property.Name(), r.Violation)
		}
	}
}

// TestBuiltinsFlagLossyRetransmit: the degraded lossy-retransmit golden —
// learned through a lossy link — violates exactly the two
// retransmission-bug properties, with witnesses that replay on the model.
func TestBuiltinsFlagLossyRetransmit(t *testing.T) {
	lossy, err := LoadModel(filepath.Join("testdata", "lossy-retransmit.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{ // property name -> expect violation
		CloseIsTerminal().Name():                     true,
		AtMostOncePerFlight("HANDSHAKE_DONE").Name(): true,
	}
	results := CheckAll(lossy)
	if len(Violations(results)) != 2 {
		t.Fatalf("want exactly 2 violations, got %d", len(Violations(results)))
	}
	for _, r := range results {
		if want[r.Property.Name()] == r.OK() {
			t.Errorf("%s: ok=%v, want violation=%v", r.Property.Name(), r.OK(), want[r.Property.Name()])
		}
		if v := r.Violation; v != nil {
			out, ok := lossy.Run(v.Witness.Word)
			if !ok || strings.Join(out, ",") != strings.Join(v.Witness.Outputs, ",") {
				t.Errorf("%s: witness %v does not replay on the model", r.Property.Name(), v.Witness.Word)
			}
			if !strings.Contains(v.Error(), r.Property.Name()) {
				t.Errorf("violation rendering broken: %s", v.Error())
			}
		}
	}
	// The close violation is specifically the doubled close retransmission.
	v := Violations(results)[0]
	final := v.Witness.Outputs[len(v.Witness.Outputs)-1]
	if strings.Count(final, "CONNECTION_CLOSE") != 2 {
		t.Fatalf("close witness output %q is not the doubled close", final)
	}
}

// TestBuiltinsOnAllGroundTruths: every builtin holds on every profile's
// specification machine (including the mvfst skeleton), and holds
// vacuously on a machine with a disjoint vocabulary.
func TestBuiltinsOnAllGroundTruths(t *testing.T) {
	for _, p := range []quicsim.Profile{
		quicsim.ProfileGoogle, quicsim.ProfileGoogleFixed,
		quicsim.ProfileQuiche, quicsim.ProfileMvfst, quicsim.ProfileLossyRetransmit,
	} {
		m := NewModel(p.String(), quicsim.GroundTruth(p))
		for _, r := range CheckAll(m) {
			if !r.OK() {
				t.Errorf("%s: %s violated on the specification: %v", p, r.Property.Name(), r.Violation)
			}
		}
	}
	tcp := automata.NewMealy([]string{"SYN"})
	tcp.SetTransition(0, "SYN", 0, "SYN+ACK")
	for _, r := range CheckAll(NewModel("mini-tcp", tcp)) {
		if !r.OK() {
			t.Errorf("%s not vacuous on a non-QUIC vocabulary: %v", r.Property.Name(), r.Violation)
		}
	}
}

// TestOutputRequiresInputViolation: a machine that emits the fragment
// before the enabling input is caught with a shortest witness.
func TestOutputRequiresInputViolation(t *testing.T) {
	m := automata.NewMealy([]string{"go", "other"})
	s1 := m.AddState()
	m.SetTransition(0, "other", s1, "{}")
	m.SetTransition(0, "go", s1, "{}")
	m.SetTransition(s1, "other", s1, "{X}") // X before any "go" via other,other
	m.SetTransition(s1, "go", s1, "{X}")    // enabling input on the same step is fine
	p := OutputRequiresInput("x-needs-go", "X", "go")
	v := p.Check(NewModel("m", m))
	if v == nil {
		t.Fatal("expected a violation")
	}
	if strings.Join(v.Witness.Word, ",") != "other,other" {
		t.Fatalf("witness %v, want the shortest [other other]", v.Witness.Word)
	}
	// Same-step enabling: a machine whose X only follows "go" passes.
	ok := automata.NewMealy([]string{"go", "other"})
	s1 = ok.AddState()
	ok.SetTransition(0, "other", 0, "{}")
	ok.SetTransition(0, "go", s1, "{X}")
	ok.SetTransition(s1, "other", s1, "{X}")
	ok.SetTransition(s1, "go", s1, "{X}")
	if v := p.Check(NewModel("ok", ok)); v != nil {
		t.Fatalf("same-step enabling flagged: %v", v)
	}
}

// TestCloseIsTerminalCatchesNonCloseChatter: the other violation mode —
// a non-close response after closing.
func TestCloseIsTerminalCatchesNonCloseChatter(t *testing.T) {
	m := automata.NewMealy([]string{"a"})
	s1 := m.AddState()
	s2 := m.AddState()
	m.SetTransition(0, "a", s1, "{SHORT(?,?)[CONNECTION_CLOSE]}")
	m.SetTransition(s1, "a", s2, "{SHORT(?,?)[ACK,STREAM]}")
	m.SetTransition(s2, "a", s2, "{}")
	v := CloseIsTerminal().Check(NewModel("chatty", m))
	if v == nil {
		t.Fatal("post-close data not flagged")
	}
	if !strings.Contains(v.Detail, "no CONNECTION_CLOSE") {
		t.Fatalf("detail %q", v.Detail)
	}
}

func TestCheckAllDefaultsToBuiltins(t *testing.T) {
	g := NewModel("google", quicsim.GroundTruth(quicsim.ProfileGoogle))
	if got, want := len(CheckAll(g)), len(Builtins()); got != want {
		t.Fatalf("CheckAll ran %d properties, want %d", got, want)
	}
}

// TestMonitorPropertyWitnesses: reachability, transition invariants and
// DFA-style safety monitors are all MonitorProperty instances, and each
// check returns the shortest violating word of the product BFS.
func TestMonitorPropertyWitnesses(t *testing.T) {
	const (
		open = iota
		closed
	)
	google := NewModel("google", quicsim.GroundTruth(quicsim.ProfileGoogle))
	quiche := NewModel("quiche", quicsim.GroundTruth(quicsim.ProfileQuiche))
	never := func(frag string) func(int, string, string) (int, bool) {
		return func(s int, _, out string) (int, bool) { return s, !strings.Contains(out, frag) }
	}
	crypto := quicsim.SymInitialCrypto
	cases := []struct {
		name  string
		model *Model
		start int
		step  func(s int, in, out string) (int, bool)
		want  []string // nil: the property holds
	}{
		// Deliberately strict: once closed, the server stays silent. Google
		// retransmits CONNECTION_CLOSE on further probes (§6.2.3).
		{"close-then-silent", google, open, func(s int, _, out string) (int, bool) {
			if s == closed {
				return s, out == Silent
			}
			if strings.Contains(out, "CONNECTION_CLOSE") {
				return closed, true
			}
			return s, true
		}, []string{crypto, crypto, crypto}},
		{"quiche-never-resets", quiche, 0, func(s int, _, out string) (int, bool) {
			return s, out != "{RESET(?,?)[]}"
		}, nil},
		// Reachability: can the model emit the Issue 4 frame, and how?
		{"google-emits-blocked", google, 0, never("STREAM_DATA_BLOCKED"),
			[]string{crypto, quicsim.SymHandshakeC, quicsim.SymShortStream, quicsim.SymShortStream}},
		{"quiche-never-blocked", quiche, 0, never("STREAM_DATA_BLOCKED"), nil},
		// Invariant: every flight has at most 3 packets; google's first
		// server flight has 4.
		{"flight-at-most-3-packets", google, 0, func(s int, _, out string) (int, bool) {
			return s, packetCount(out) <= 3
		}, []string{crypto}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := &MonitorProperty{PropName: c.name, Start: c.start, Step: c.step}
			v := p.Check(c.model)
			if c.want == nil {
				if v != nil {
					t.Fatalf("unexpected violation %v", v.Witness.Word)
				}
				return
			}
			if v == nil {
				t.Fatalf("no violation, want witness %v", c.want)
			}
			if !slices.Equal(v.Witness.Word, c.want) {
				t.Fatalf("witness %v, want the shortest %v", v.Witness.Word, c.want)
			}
			if out, ok := c.model.Run(v.Witness.Word); !ok || !slices.Equal(out, v.Witness.Outputs) {
				t.Fatalf("witness outputs %v do not replay on the model", v.Witness.Outputs)
			}
		})
	}
}
