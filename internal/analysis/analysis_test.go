package analysis

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/automata"
	"repro/internal/learn"
	"repro/internal/quicsim"
)

func TestDiffGoogleQuiche(t *testing.T) {
	g := NewModel("google", quicsim.GroundTruth(quicsim.ProfileGoogle))
	q := NewModel("quiche", quicsim.GroundTruth(quicsim.ProfileQuiche))
	r := Diff(g, q, 5)
	if r.Equivalent {
		t.Fatal("google and quiche must differ")
	}
	if r.StatesA != 12 || r.StatesB != 8 {
		t.Fatalf("state counts %d/%d, want 12/8", r.StatesA, r.StatesB)
	}
	if len(r.Witnesses) == 0 {
		t.Fatal("no witnesses collected")
	}
	for _, w := range r.Witnesses {
		if w.FirstDivergence < 0 || w.FirstDivergence >= len(w.Word) {
			t.Fatalf("bad divergence index %d for %v", w.FirstDivergence, w.Word)
		}
		if w.OutputsA[w.FirstDivergence] == w.OutputsB[w.FirstDivergence] {
			t.Fatalf("witness %v does not diverge at claimed step", w.Word)
		}
	}
	// The first witness is a shortest one: no later witness may be shorter.
	for _, w := range r.Witnesses[1:] {
		if len(w.Word) < len(r.Witnesses[0].Word) {
			t.Fatalf("witness %v shorter than first %v", w.Word, r.Witnesses[0].Word)
		}
	}
	if len(r.Divergent) == 0 {
		t.Fatal("no per-state divergence summaries")
	}
	for _, d := range r.Divergent {
		if len(d.Inputs) == 0 {
			t.Fatalf("joint state (%d,%d) summarised with no diverging inputs", d.StateA, d.StateB)
		}
		// The access word must actually reach the named joint state.
		sa, okA := g.Mealy().StateAfter(d.Access)
		sb, okB := q.Mealy().StateAfter(d.Access)
		if !okA || !okB || sa != d.StateA || sb != d.StateB {
			t.Fatalf("access %v does not reach (%d,%d)", d.Access, d.StateA, d.StateB)
		}
	}
	text := r.String()
	for _, want := range []string{"NOT equivalent", "witness 1", "diverging joint states"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report rendering missing %q:\n%s", want, text)
		}
	}
}

// TestDiffEquivalentModels: a model and its copy agree, and so do google
// and google-fixed, which differ only in the STREAM_DATA_BLOCKED limit
// field that the abstract alphabet does not expose.
func TestDiffEquivalentModels(t *testing.T) {
	g := quicsim.GroundTruth(quicsim.ProfileGoogle)
	for _, other := range []*automata.Mealy{g.Clone(), quicsim.GroundTruth(quicsim.ProfileGoogleFixed)} {
		r := Diff(NewModel("a", g), NewModel("b", other), 3)
		if !r.Equivalent || len(r.Witnesses) != 0 || len(r.Divergent) != 0 {
			t.Fatalf("equivalent models reported different: %+v", r)
		}
		if !strings.Contains(r.String(), "equivalent") {
			t.Fatal("report rendering broken")
		}
	}
}

func TestLTLOperators(t *testing.T) {
	tr := IOTrace{
		Inputs:  []string{"a", "b", "c"},
		Outputs: []string{"x", "y", "z"},
	}
	cases := []struct {
		f    Formula
		want bool
	}{
		{In("a"), true},
		{In("b"), false},
		{Out("x"), true},
		{OutHas("y"), false},
		{Next(In("b")), true},
		{Next(Next(Next(In("d")))), false}, // strong next beyond trace end
		{Globally(Not(Out("w"))), true},
		{Eventually(Out("z")), true},
		{Eventually(Out("w")), false},
		{And(In("a"), Out("x")), true},
		{Or(In("b"), Out("x")), true},
		{Implies(In("b"), Out("w")), true}, // vacuous
		{Until(Not(Out("z")), In("c")), true},
		{Until(In("a"), In("c")), false}, // l fails at step 1 before r holds
		{Globally(Implies(In("b"), Next(In("c")))), true},
	}
	for _, c := range cases {
		if got := c.f.Holds(tr, 0); got != c.want {
			t.Errorf("%s = %v, want %v", c.f, got, c.want)
		}
	}
}

// TestCheckLTLOnQUIC: "a connection close is permanent": once an output
// contains CONNECTION_CLOSE, the server never completes a handshake again.
func TestCheckLTLOnQUIC(t *testing.T) {
	g := quicsim.GroundTruth(quicsim.ProfileGoogle)
	closed := OutHas("CONNECTION_CLOSE")
	handshakeDone := OutHas("HANDSHAKE_DONE]") // the HD flight after close would violate
	f := Globally(Implies(closed, Globally(Not(handshakeDone))))
	if bad := CheckLTL(g, f, 4); bad != nil {
		t.Fatalf("close is not permanent: %v / %v", bad.Inputs, bad.Outputs)
	}
	// A deliberately false property yields a concrete witness.
	never := Globally(Not(OutHas("CONNECTION_CLOSE")))
	bad := CheckLTL(g, never, 3)
	if bad == nil {
		t.Fatal("expected a witness for the false property")
	}
	found := false
	for _, o := range bad.Outputs {
		if strings.Contains(o, "CONNECTION_CLOSE") {
			found = true
		}
	}
	if !found {
		t.Fatalf("witness does not violate: %v", bad.Outputs)
	}
}

func TestWMethodSuiteDetectsMutation(t *testing.T) {
	q := quicsim.GroundTruth(quicsim.ProfileQuiche)
	suite := WMethodSuite(q, 1)
	// The suite subsumes transition coverage: its words exercise every
	// transition, and every expected output agrees with the model.
	type edge struct {
		from automata.State
		in   string
	}
	covered := map[edge]bool{}
	for i, w := range suite.Words {
		exp, ok := q.Run(w)
		if !ok || strings.Join(exp, ",") != strings.Join(suite.Expected[i], ",") {
			t.Fatalf("case %d inconsistent with model", i)
		}
		s := q.Initial()
		for _, in := range w {
			covered[edge{s, in}] = true
			s, _, _ = q.Step(s, in)
		}
	}
	if len(covered) != q.NumTransitions() {
		t.Fatalf("suite covers %d of %d transitions", len(covered), q.NumTransitions())
	}
	// Run against the correct system: no failures.
	fails, err := RunSuite(context.Background(), suite, learn.MealyOracle(q), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Fatalf("false positives: %v", fails)
	}
	// Mutate one transition's output: the suite must catch it.
	mut := q.Clone()
	mut.SetTransition(2, quicsim.SymShortStream, 5, "{MUTANT}")
	fails, err = RunSuite(context.Background(), suite, learn.MealyOracle(mut), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) == 0 {
		t.Fatal("W-method suite missed an output mutation")
	}
	if !strings.Contains(fails[0].String(), "expected") {
		t.Fatal("failure rendering broken")
	}
}

func TestRunSuiteReportsActualOutputs(t *testing.T) {
	m := automata.NewMealy([]string{"a"})
	m.SetTransition(0, "a", 0, "ok")
	suite := WMethodSuite(m, 0)
	bad := learn.OracleFunc(func(ctx context.Context, w []string) ([]string, error) {
		out := make([]string, len(w))
		for i := range out {
			out[i] = "wrong"
		}
		return out, nil
	})
	fails, err := RunSuite(context.Background(), suite, bad, 0)
	if err != nil || len(fails) != 1 {
		t.Fatalf("fails=%v err=%v", fails, err)
	}
	if fails[0].Actual[0] != "wrong" {
		t.Fatalf("actual = %v", fails[0].Actual)
	}
}

// Property: on random machines, the Wp-method oracle and the W-method
// suite agree on whether a mutant is detectable (both complete at the
// same depth bound).
func TestPropertyWpAgreesWithW(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		truth := randomTotalMealy(r, 4).Minimize()
		mut := truth.Clone()
		reach := mut.Reachable()
		s := reach[r.Intn(len(reach))]
		in := mut.Inputs()[r.Intn(len(mut.Inputs()))]
		to, _, _ := mut.Step(s, in)
		mut.SetTransition(s, in, to, "MUT")
		wp := &learn.WpMethodOracle{Oracle: learn.MealyOracle(mut), Inputs: truth.Inputs(), Depth: 1}
		ceWp, err1 := wp.FindCounterexample(context.Background(), truth)
		fails, err2 := RunSuite(context.Background(), WMethodSuite(truth, 1), learn.MealyOracle(mut), 1)
		if err1 != nil || err2 != nil {
			return false
		}
		return (ceWp == nil) == (len(fails) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
