package lab

import (
	"context"
	"testing"

	"repro/internal/quicsim"
	"repro/internal/synth"
)

// bg is the default context for tests that never cancel.
var bg = context.Background()

// learnT builds, runs, and closes one experiment, failing the test on any
// error (nondeterminism is not an error; it lands in Result.Nondet).
func learnT(t *testing.T, target string, opts ...Option) *Result {
	t.Helper()
	res, err := Run(bg, target, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLearnAllDeterministicTargets(t *testing.T) {
	want := map[string]int{
		TargetTCP:         6,
		TargetGoogle:      12,
		TargetGoogleFixed: 12,
		TargetQuiche:      8,
	}
	for target, states := range want {
		opts := []Option{WithSeed(13)}
		if target != TargetTCP {
			opts = append(opts, WithPerfectEquivalence())
		}
		res := learnT(t, target, opts...)
		if res.Nondet != nil {
			t.Fatalf("%s: unexpected nondeterminism: %v", target, res.Nondet)
		}
		if res.Machine.NumStates() != states {
			t.Fatalf("%s: %d states, want %d", target, res.Machine.NumStates(), states)
		}
		if res.Stats.Queries == 0 {
			t.Fatalf("%s: no live queries recorded", target)
		}
	}
}

func TestLearnMvfstReportsNondeterminism(t *testing.T) {
	res := learnT(t, TargetMvfst, WithSeed(13))
	if res.Nondet == nil {
		t.Fatal("mvfst should be flagged nondeterministic")
	}
	if res.Machine != nil {
		t.Fatal("no model should be produced")
	}
}

// TestLearnRepeatablePerRunStats: Learn is documented as repeatable, and
// every call's Result.Stats must count only that run's traffic.
func TestLearnRepeatablePerRunStats(t *testing.T) {
	exp, err := NewExperiment(TargetQuiche, WithSeed(13), WithPerfectEquivalence())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	r1, err := exp.Learn(bg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := exp.Learn(bg)
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := r1.Machine.Equivalent(r2.Machine); !eq {
		t.Fatalf("repeated Learn diverged on %v", ce)
	}
	if r1.Stats.Queries != r2.Stats.Queries {
		t.Fatalf("per-run stats accumulate: first %d queries, second %d", r1.Stats.Queries, r2.Stats.Queries)
	}
}

func TestNewExperimentUnknownTarget(t *testing.T) {
	if _, err := NewExperiment("nope"); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestNewExperimentPerfectNeedsTruth(t *testing.T) {
	if _, err := NewExperiment(TargetTCP, WithPerfectEquivalence()); err == nil {
		t.Fatal("perfect equivalence accepted for a target without ground truth")
	}
}

// TestIssue4SynthesisEndToEnd is the full §6.2.6 pipeline: learn the
// model, collect Oracle-Table traces, synthesize the extended machine, and
// observe that Google's Maximum Stream Data is the constant 0 while the
// fixed profile's tracks the granted limit.
func TestIssue4SynthesisEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		target    string
		wantConst bool
	}{
		{TargetGoogle, true},
		{TargetGoogleFixed, false},
	} {
		res := learnT(t, tc.target, WithSeed(29), WithPerfectEquivalence())
		profile, _ := QUICProfile(tc.target)
		p, err := SDBProblem(res.Machine, NewQUIC(profile, QUICOptions{Seed: 29}))
		if err != nil {
			t.Fatal(err)
		}
		em, err := synth.Synthesize(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.target, err)
		}
		// Probe the synthesized machine: raise the limit to 5000, then
		// trigger a blocked response. Constant-zero machines predict 0.
		probe := synth.Trace{
			{Input: quicsim.SymInitialCrypto, InVals: []int64{0}},
			{Input: quicsim.SymHandshakeC, InVals: []int64{0}},
			{Input: quicsim.SymShortStream, InVals: []int64{0}},
			{Input: quicsim.SymShortFC, InVals: []int64{5000}},
			{Input: quicsim.SymShortStream, InVals: []int64{0}},
		}
		pred, _ := em.Run(probe)
		final := pred[len(pred)-1]
		if len(final) != 1 {
			// The probe's last step must hit the blocked output... if the
			// model path diverges the experiment setup is wrong.
			t.Fatalf("%s: probe did not reach a blocked output: %v", tc.target, pred)
		}
		if tc.wantConst && final[0] != 0 {
			t.Fatalf("%s: expected constant-zero field, predicted %d", tc.target, final[0])
		}
		if !tc.wantConst && final[0] == 0 {
			t.Fatalf("%s: field should track the limit, predicted 0", tc.target)
		}
	}
}

// TestTCPSynthEndToEnd recovers Fig. 3(c)'s register relationship from live
// traces: the SYN-ACK acks the client's sequence number plus one.
func TestTCPSynthEndToEnd(t *testing.T) {
	setup := NewTCP(31)
	res := learnT(t, TargetTCP, WithSeed(31))
	p, err := TCPProblem(res.Machine, setup)
	if err != nil {
		t.Fatal(err)
	}
	em, err := synth.Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	// Held-out check: SYN with seq 900 must be acked with 901.
	probe, err := CollectTCPTrace(setup, []string{"SYN(?,?,0)"})
	if err != nil {
		t.Fatal(err)
	}
	if mm := synth.Verify(em, []synth.Trace{probe}); mm != nil {
		t.Fatalf("synthesized TCP machine wrong: %+v\n%s", mm, em)
	}
}

func TestSDBTraceExtraction(t *testing.T) {
	setup := NewQUIC(quicsim.ProfileGoogle, QUICOptions{Seed: 3})
	tr, err := CollectSDBTrace(setup, []string{
		quicsim.SymInitialCrypto, quicsim.SymHandshakeC,
		quicsim.SymShortStream, quicsim.SymShortFC, quicsim.SymShortStream,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 5 {
		t.Fatalf("trace length %d", len(tr))
	}
	if tr[3].InVals[0] != 2*quicsim.Chunk {
		t.Fatalf("FC input param = %d, want %d", tr[3].InVals[0], 2*quicsim.Chunk)
	}
	// Step 4 (second data while blocked at the new limit) carries the SDB
	// output value 0 (the bug).
	if len(tr[4].OutVals) != 1 || tr[4].OutVals[0] != 0 {
		t.Fatalf("blocked output vals = %v, want [0]", tr[4].OutVals)
	}
}
