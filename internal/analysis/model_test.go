package analysis

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/automata"
	"repro/internal/quicsim"
)

// TestGoldenCodecRoundTrip pins the unified DOT/JSON codecs against
// checked-in learned models: the clean google model and the
// lossy-retransmit model learned through a 2%-loss link (the degraded
// double-send behaviour). Loading either codec must reproduce the other
// byte for byte.
func TestGoldenCodecRoundTrip(t *testing.T) {
	for _, name := range []string{"google", "lossy-retransmit"} {
		jsonPath := filepath.Join("testdata", name+".json")
		dotPath := filepath.Join("testdata", name+".dot")
		fromJSON, err := LoadModel(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		fromDOT, err := LoadModel(dotPath)
		if err != nil {
			t.Fatal(err)
		}
		if eq, ce := fromJSON.Equivalent(fromDOT); !eq {
			t.Fatalf("%s: codecs disagree on %v", name, ce)
		}
		wantDOT, err := os.ReadFile(dotPath)
		if err != nil {
			t.Fatal(err)
		}
		if got := fromJSON.DOT(); got != string(wantDOT) {
			t.Errorf("%s: JSON->DOT export drifted from golden", name)
		}
		wantJSON, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fromDOT.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Errorf("%s: DOT->JSON export drifted from golden", name)
		}
	}
}

// TestGoldenModelsShape pins what the goldens are: google is the clean
// 12-state model; lossy-retransmit is NOT equivalent to it (the doubled
// flights learned under loss) despite sharing the clean-link ground truth.
func TestGoldenModelsShape(t *testing.T) {
	google, err := LoadModel(filepath.Join("testdata", "google.json"))
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := google.Equivalent(NewModel("truth", quicsim.GroundTruth(quicsim.ProfileGoogle))); !eq {
		t.Fatalf("golden google differs from ground truth on %v", ce)
	}
	lossy, err := LoadModel(filepath.Join("testdata", "lossy-retransmit.json"))
	if err != nil {
		t.Fatal(err)
	}
	r := Diff(google, lossy, 3)
	if r.Equivalent {
		t.Fatal("degraded lossy-retransmit model must differ from clean google")
	}
	if len(r.Witnesses[0].Word) != 1 {
		t.Fatalf("shortest witness %v, want the single doubled handshake flight", r.Witnesses[0].Word)
	}
}

func TestModelSaveLoad(t *testing.T) {
	dir := t.TempDir()
	m := NewModel("truth", quicsim.GroundTruth(quicsim.ProfileQuiche))
	for _, file := range []string{"m.json", "m.dot"} {
		path := filepath.Join(dir, file)
		if err := m.Save(path); err != nil {
			t.Fatal(err)
		}
		back, err := LoadModel(path)
		if err != nil {
			t.Fatal(err)
		}
		if eq, ce := m.Equivalent(back); !eq {
			t.Fatalf("%s round trip diverged on %v", file, ce)
		}
		if back.Name != "m" {
			t.Fatalf("loaded name %q, want %q", back.Name, "m")
		}
	}
	if _, err := LoadModel(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestMinimizePropertyEquivalence is the acceptance property: minimized
// models are language-equivalent to their originals, minimal (no two
// distinct states equivalent), and never larger.
func TestMinimizePropertyEquivalence(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%12) + 1
		m := NewModel("random", randomTotalMealy(r, n))
		min := m.Minimize()
		if eq, _ := m.Equivalent(min); !eq {
			return false
		}
		if min.States() > m.States() {
			return false
		}
		// Minimality: all state pairs of the quotient are distinguishable.
		mm := min.Mealy()
		for a := 0; a < mm.NumStates(); a++ {
			for b := a + 1; b < mm.NumStates(); b++ {
				if !distinguishable(mm, automata.State(a), automata.State(b)) {
					return false
				}
			}
		}
		// Idempotence.
		again := min.Minimize()
		return again.States() == min.States()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// distinguishable reports whether some word separates a and b (bounded by
// the product construction, so exact for total machines).
func distinguishable(m *automata.Mealy, a, b automata.State) bool {
	type pair struct{ x, y automata.State }
	seen := map[pair]bool{{a, b}: true}
	queue := []pair{{a, b}}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, in := range m.Inputs() {
			tx, ox, okx := m.Step(p.x, in)
			ty, oy, oky := m.Step(p.y, in)
			if okx != oky || (okx && ox != oy) {
				return true
			}
			if !okx {
				continue
			}
			np := pair{tx, ty}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, np)
			}
		}
	}
	return false
}

func randomTotalMealy(r *rand.Rand, states int) *automata.Mealy {
	inputs := []string{"a", "b", "c"}
	outputs := []string{"0", "1"}
	m := automata.NewMealy(inputs)
	for m.NumStates() < states {
		m.AddState()
	}
	for s := 0; s < states; s++ {
		for _, in := range inputs {
			m.SetTransition(automata.State(s), in, automata.State(r.Intn(states)), outputs[r.Intn(len(outputs))])
		}
	}
	return m
}

func TestMinimizeGoldenGoogleAlreadyMinimal(t *testing.T) {
	google, err := LoadModel(filepath.Join("testdata", "google.json"))
	if err != nil {
		t.Fatal(err)
	}
	min := google.Minimize()
	if min.States() != google.States() {
		t.Fatalf("learned google minimized %d -> %d states; learning should already be minimal",
			google.States(), min.States())
	}
	if eq, ce := min.Equivalent(google); !eq {
		t.Fatalf("minimize changed behaviour on %v", ce)
	}
}
