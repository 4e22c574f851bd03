package lab

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/quicsim"
)

// TestBuiltinPropertiesAcrossTargets checks every builtin analysis.Property
// against all six registry targets. The five well-behaved targets (their
// models learned live, or — for mvfst, whose live behaviour halts learning
// on nondeterminism — the specification skeleton) satisfy the whole set;
// the lossy-retransmit target learned through a lossy link violates the
// close discipline and the duplicate-HANDSHAKE_DONE check, and both
// witnesses replay against the live degraded target.
func TestBuiltinPropertiesAcrossTargets(t *testing.T) {
	clean := map[string][]Option{
		TargetTCP:         {WithSeed(13)},
		TargetGoogle:      {WithSeed(13), WithPerfectEquivalence()},
		TargetGoogleFixed: {WithSeed(13), WithPerfectEquivalence()},
		TargetQuiche:      {WithSeed(13), WithPerfectEquivalence()},
	}
	for target, opts := range clean {
		res := learnT(t, target, opts...)
		for _, r := range analysis.CheckAll(res.Model()) {
			if !r.OK() {
				t.Errorf("%s: %s violated: %v", target, r.Property.Name(), r.Violation)
			}
		}
	}
	// mvfst: the live target is nondeterministic (that detection is the §5
	// analysis), so its deterministic specification skeleton is checked.
	mvfst := analysis.NewModel(TargetMvfst, quicsim.GroundTruth(quicsim.ProfileMvfst))
	for _, r := range analysis.CheckAll(mvfst) {
		if !r.OK() {
			t.Errorf("mvfst skeleton: %s violated: %v", r.Property.Name(), r.Violation)
		}
	}

	// lossy-retransmit through a 2%-loss link: the degradation is learned
	// into the model and flagged from the model alone.
	exp, err := NewExperiment(TargetLossyRetransmit,
		WithSeed(13),
		WithImpairment(netem.Config{LossClient: 0.02, LossServer: 0.02, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	res, err := exp.Learn(bg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nondet != nil {
		t.Fatalf("lossy learn halted: %v", res.Nondet)
	}
	violations := analysis.Violations(analysis.CheckAll(res.Model()))
	if len(violations) != 2 {
		t.Fatalf("lossy-retransmit: %d violations, want 2 (close discipline + duplicate HANDSHAKE_DONE)", len(violations))
	}
	names := []string{violations[0].Property, violations[1].Property}
	if !strings.Contains(strings.Join(names, " "), "close-is-terminal") {
		t.Fatalf("close violation missing from %v", names)
	}
	// Confirm each model-level witness on the wire: the live (degraded)
	// replicas must reproduce the violating outputs.
	for _, v := range violations {
		live, err := exp.Oracle().Query(bg, v.Witness.Word)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(live, ",") != strings.Join(v.Witness.Outputs, ",") {
			t.Errorf("%s: live replay %v != model witness %v", v.Property, live, v.Witness.Outputs)
		}
	}
}

// TestResultModel: the lab-to-analysis bridge.
func TestResultModel(t *testing.T) {
	res := learnT(t, TargetQuiche, WithSeed(13), WithPerfectEquivalence())
	m := res.Model()
	if m == nil || m.Name != TargetQuiche || m.States() != 8 {
		t.Fatalf("Result.Model broken: %+v", m)
	}
	if m.Mealy() != res.Machine {
		t.Fatal("Model must wrap the learned machine, not a copy")
	}
	nores := &Result{Target: "x"}
	if nores.Model() != nil {
		t.Fatal("nondet result must have a nil model")
	}
}

// TestExperimentReplay: a live replay through the experiment's own §5
// guard agrees with the learned model on a clean link, and a replayed word
// whose executions split evenly (replayCoin) ends in nondeterminism
// instead of a tie-break.
func TestExperimentReplay(t *testing.T) {
	exp, err := NewExperiment(TargetQuiche, WithSeed(13), WithPerfectEquivalence())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	res, err := exp.Learn(bg)
	if err != nil {
		t.Fatal(err)
	}
	word := []string{quicsim.SymInitialCrypto, quicsim.SymHandshakeC, quicsim.SymShortStream}
	want, _ := res.Machine.Run(word)
	got, err := exp.Oracle().Query(bg, word)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("replay %v, model %v", got, want)
	}

	coin, err := NewExperiment(replayCoin)
	if err != nil {
		t.Fatal(err)
	}
	defer coin.Close()
	out, err := coin.Oracle().Query(bg, []string{"x"})
	if _, ok := core.IsNondeterminism(err); !ok {
		t.Fatalf("replay of a 2-2 RESET/{} split = %v, %v; want nondeterminism", out, err)
	}
}

// replayCoin is a one-symbol target whose executions answer RESET, {},
// {}, RESET in turn: the shape of mvfst's stateless-RESET coin.
const replayCoin = "replay-coin"

func init() {
	Register(replayCoin, func(spec BuildSpec) (*System, error) {
		sys := &System{Alphabet: []string{"x"}}
		for range spec.Replicas {
			sys.SULs = append(sys.SULs, &coinSUL{})
		}
		return sys, nil
	})
}

type coinSUL struct{ execs int }

func (c *coinSUL) Reset() error { c.execs++; return nil }

func (c *coinSUL) Step(string) (string, error) {
	if c.execs%4 < 2 {
		return "RESET", nil
	}
	return "{}", nil
}

// TestWithConformance: the Wp-method pass recovers the full model without
// a ground-truth oracle — the guarantee `prognosis diff` builds on. The
// plain random-words search alone misses google's deep flow-control
// states.
func TestWithConformance(t *testing.T) {
	res := learnT(t, TargetGoogle, WithSeed(13), WithConformance(2))
	truth := quicsim.GroundTruth(quicsim.ProfileGoogle)
	if eq, ce := truth.Equivalent(res.Machine); !eq {
		t.Fatalf("conformance learn missed behaviour, witness %v", ce)
	}
}
