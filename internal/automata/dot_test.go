package automata

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestDOTRoundTrip(t *testing.T) {
	m := handshake()
	dot := m.DOT("handshake")
	back, err := ParseDOT([]byte(dot))
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := m.Equivalent(back); !eq {
		t.Fatalf("round trip changed behaviour on %v", ce)
	}
	if back.NumStates() != m.NumStates() || back.Initial() != m.Initial() {
		t.Fatalf("shape changed: %d states initial %d", back.NumStates(), back.Initial())
	}
	// The alphabet comment makes the second export byte-identical.
	if again := back.DOT("handshake"); again != dot {
		t.Fatalf("re-export not stable:\n%s\nvs\n%s", again, dot)
	}
}

func TestDOTPropertyRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 1
		m := randomMealy(r, n, []string{"a", "b"}, []string{"0", "1"})
		back, err := ParseDOT([]byte(m.DOT("m")))
		if err != nil {
			return false
		}
		eq, _ := m.Equivalent(back)
		return eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDOTEscaping(t *testing.T) {
	m := NewMealy([]string{`in"quote`})
	m.SetTransition(0, `in"quote`, 0, `out"q`)
	dot := m.DOT(`na"me`)
	back, err := ParseDOT([]byte(dot))
	if err != nil {
		t.Fatal(err)
	}
	if _, out, ok := back.Step(0, `in"quote`); !ok || out != `out"q` {
		t.Fatalf("escaped symbols mangled: %q ok=%v", out, ok)
	}
}

func TestDOTStyledAnnotationsAreSkippedByParser(t *testing.T) {
	m := handshake()
	dot := m.DOTStyled("ext", DOTStyle{
		StateLabel: func(s State) string { return "Q" },
		EdgeAnnotation: func(from State, in, out string) []string {
			return []string{"r0=p0+1 | o0=r0"}
		},
	})
	if !strings.Contains(dot, "r0=p0+1") {
		t.Fatalf("annotation missing:\n%s", dot)
	}
	back, err := ParseDOT([]byte(dot))
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := m.Equivalent(back); !eq {
		t.Fatalf("styled export does not parse back to the base machine (ce %v)", ce)
	}
}

func TestDOTWithoutAlphabetComment(t *testing.T) {
	m := handshake()
	var lines []string
	for _, l := range strings.Split(m.DOT("h"), "\n") {
		if !strings.Contains(l, "alphabet:") {
			lines = append(lines, l)
		}
	}
	back, err := ParseDOT([]byte(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := m.Equivalent(back); !eq {
		t.Fatalf("comment-free parse diverged on %v", ce)
	}
}

func TestParseDOTRejectsMalformed(t *testing.T) {
	cases := []string{
		"digraph \"x\" {\n  s0 -> s1 [label=\"a / b\"];\n}\n",          // no __start
		"digraph \"x\" {\n  __start -> s0;\n  s0 -> s1 [label=\"oops]", // unterminated label
		"digraph \"x\" {\n  /* alphabet: notjson */\n  __start -> s0;\n}\n",
		"digraph \"x\" {\n  __start -> s0;\n  s5000000 [label=\"x\"]\n}\n",                               // id beyond the ids named
		"digraph \"x\" {\n  __start -> s0;\n  s0 [label=\"s0\"];\n  s0 -> s0 [label=\"a / \xff\"];\n}\n", // not UTF-8
		// A repeated symbol in the declared alphabet.
		"digraph \"x\" {\n  /* alphabet: [\"a\",\"a\"] */\n  __start -> s0;\n  s0 [label=\"s0\"];\n  s0 -> s0 [label=\"a / x\"];\n}\n",
	}
	for _, c := range cases {
		if _, err := ParseDOT([]byte(c)); err == nil {
			t.Errorf("accepted malformed dot:\n%s", c)
		}
	}
}

func TestDecodeSniffsFormats(t *testing.T) {
	m := handshake()
	fromDot, err := Decode([]byte(m.DOT("h")))
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, back := range []*Mealy{fromDot, fromJSON} {
		if eq, ce := m.Equivalent(back); !eq {
			t.Fatalf("decode changed behaviour on %v", ce)
		}
	}
	if _, err := Decode([]byte("???")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestDecodeBoundsAllocation: an input that names many states and a long
// alphabet is rejected before its transition table is allocated, while
// every checked-in model still decodes.
func TestDecodeBoundsAllocation(t *testing.T) {
	jsonIn, dotIn := amplifying()
	for _, in := range [][]byte{jsonIn, dotIn} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(in)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("accepted a %d-byte input naming a 2,000 × 5,000 table", len(in))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Fatalf("rejecting a %d-byte input allocated %d MB", len(in), alloc>>20)
		}
	}
	files, err := filepath.Glob("../analysis/testdata/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		switch filepath.Base(f) {
		case "regress.json", "detection.txt", "suites.txt": // a manifest and two tables, not models
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(data); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}
