package core_test

// The end-to-end tests of the guard inside a full oracle chain, which
// lab.Experiment assembles (lab imports core, so these live in the
// external test package).

import (
	"context"
	"testing"

	"repro/internal/lab"
	"repro/internal/learn"
	"repro/internal/quicsim"
)

// learnTarget builds, learns and closes one experiment, failing the test
// on any error other than a §5 nondeterminism halt.
func learnTarget(t *testing.T, target string, opts ...lab.Option) *lab.Result {
	t.Helper()
	res, err := lab.Run(context.Background(), target, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// learned is learnTarget for runs that must produce a model.
func learned(t *testing.T, target string, opts ...lab.Option) *lab.Result {
	t.Helper()
	res := learnTarget(t, target, opts...)
	if res.Nondet != nil {
		t.Fatalf("%s halted on nondeterminism: %v", target, res.Nondet)
	}
	return res
}

// TestLearnGoogleQUIC is the flagship integration test: active learning
// over the real packet path recovers exactly the 12-state, 84-transition
// model the paper reports for Google QUIC.
func TestLearnGoogleQUIC(t *testing.T) {
	res := learned(t, lab.TargetGoogle, lab.WithLearner(lab.LearnerTTT), lab.WithPerfectEquivalence())
	m := res.Machine
	if m.NumStates() != 12 || m.NumTransitions() != 84 {
		t.Fatalf("learned %d states / %d transitions, want 12/84", m.NumStates(), m.NumTransitions())
	}
	if eq, ce := quicsim.GroundTruth(quicsim.ProfileGoogle).Equivalent(m); !eq {
		t.Fatalf("learned model differs from spec on %v", ce)
	}
	t.Logf("google: %d live queries, %d symbols, %d cache hits",
		res.Stats.Queries, res.Stats.Symbols, res.Stats.Hits)
}

// TestLearnQuiche recovers the 8-state, 56-transition Quiche model.
func TestLearnQuiche(t *testing.T) {
	res := learned(t, lab.TargetQuiche, lab.WithLearner(lab.LearnerTTT), lab.WithPerfectEquivalence())
	if m := res.Machine; m.NumStates() != 8 || m.NumTransitions() != 56 {
		t.Fatalf("learned %d states / %d transitions, want 8/56", m.NumStates(), m.NumTransitions())
	}
	t.Logf("quiche: %d live queries, %d symbols", res.Stats.Queries, res.Stats.Symbols)
}

// TestLearnQuicheWithRandomEquivalence drops the omniscient oracle and uses
// the heuristic random-words oracle the paper actually runs with.
func TestLearnQuicheWithRandomEquivalence(t *testing.T) {
	res := learned(t, lab.TargetQuiche, lab.WithLearner(lab.LearnerTTT), lab.WithSeed(3))
	if eq, ce := quicsim.GroundTruth(quicsim.ProfileQuiche).Equivalent(res.Machine); !eq {
		t.Fatalf("learned model differs from spec on %v", ce)
	}
}

// TestLearnMvfstDetectsNondeterminism reproduces §6.2.4: learning mvfst
// halts with a nondeterminism report on a post-close probe ("Prognosis
// could learn models for two of the three implementations").
func TestLearnMvfstDetectsNondeterminism(t *testing.T) {
	nd := learnTarget(t, lab.TargetMvfst, lab.WithSeed(5)).Nondet
	if nd == nil {
		t.Fatal("expected nondeterminism to abort learning")
	}
	if len(nd.Observed) < 2 {
		t.Fatalf("nondeterminism report lists %d alternatives", len(nd.Observed))
	}
	// The witness word must include the Issue 2 trigger sequence.
	var sawTrigger bool
	for _, sym := range nd.Word {
		if sym == quicsim.SymHandshakeHD || sym == quicsim.SymShortHD ||
			sym == quicsim.SymInitialHD || sym == quicsim.SymInitialCrypto {
			sawTrigger = true
		}
	}
	if !sawTrigger {
		t.Fatalf("nondeterminism witness %v does not exercise the close path", nd.Word)
	}
	t.Logf("nondeterminism witness: %v", nd)
}

// TestLearnTCPFull reproduces §6.1: the TCP stack's model over the
// seven-symbol alphabet has 6 states and 42 transitions, and L* agrees.
func TestLearnTCPFull(t *testing.T) {
	res := learned(t, lab.TargetTCP, lab.WithLearner(lab.LearnerTTT), lab.WithSeed(9))
	m := res.Machine
	if m.NumStates() != 6 || m.NumTransitions() != 42 {
		t.Fatalf("learned %d states / %d transitions, want 6/42\n%s", m.NumStates(), m.NumTransitions(), m)
	}
	t.Logf("tcp: %d live queries, %d symbols (paper: 4,726 queries)", res.Stats.Queries, res.Stats.Symbols)

	m2 := learned(t, lab.TargetTCP, lab.WithLearner(lab.LearnerLStar), lab.WithSeed(9)).Machine
	if eq, ce := m.Equivalent(m2); !eq {
		t.Fatalf("lstar and ttt disagree on %v", ce)
	}
}

// TestExperimentValidation: an unknown target fails to build, and an
// unknown learner fails the run.
func TestExperimentValidation(t *testing.T) {
	if _, err := lab.NewExperiment("no-such-target"); err == nil {
		t.Fatal("unknown target accepted")
	}
	if _, err := lab.Run(context.Background(), lab.TargetTCP, lab.WithLearner("bogus")); err == nil {
		t.Fatal("bogus learner accepted")
	}
}

// TestExperimentObserverEvents: the experiment-level observer sees the
// learner's round events plus per-round cache snapshots, and a
// nondeterministic run ends with NondeterminismDetected.
func TestExperimentObserverEvents(t *testing.T) {
	var events []learn.Event
	record := lab.WithObserver(learn.ObserverFunc(func(e learn.Event) { events = append(events, e) }))
	learned(t, lab.TargetQuiche, lab.WithPerfectEquivalence(), record)
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind()]++
	}
	if kinds["round_started"] == 0 || kinds["hypothesis_ready"] == 0 {
		t.Fatalf("missing round events: %v", kinds)
	}
	if kinds["cache_snapshot"] != kinds["hypothesis_ready"] {
		t.Fatalf("want one cache snapshot per hypothesis, got %v", kinds)
	}

	// A nondeterministic target ends with NondeterminismDetected.
	events = nil
	if learnTarget(t, lab.TargetMvfst, lab.WithSeed(5), record).Nondet == nil {
		t.Fatal("expected mvfst nondeterminism")
	}
	last := events[len(events)-1]
	det, ok := last.(learn.NondeterminismDetected)
	if !ok {
		t.Fatalf("final event is %T, want NondeterminismDetected", last)
	}
	if det.Alternatives < 2 || det.Votes == 0 || len(det.Word) == 0 {
		t.Fatalf("empty nondeterminism report: %+v", det)
	}
}

// TestCacheAblation verifies the cache reduces live queries on a real
// learning run.
func TestCacheAblation(t *testing.T) {
	with := learned(t, lab.TargetTCP, lab.WithSeed(9)).Stats.Queries
	without := learned(t, lab.TargetTCP, lab.WithSeed(9), lab.WithoutCache()).Stats.Queries
	if with >= without {
		t.Fatalf("cache did not help: %d (with) vs %d (without)", with, without)
	}
	t.Logf("live queries: with cache %d, without %d", with, without)
}

// TestLearningIsReproducible: learning Google twice with the heuristic
// equivalence search yields identical models (full determinism of the
// chain).
func TestLearningIsReproducible(t *testing.T) {
	a := learned(t, lab.TargetGoogle, lab.WithSeed(21)).Machine
	b := learned(t, lab.TargetGoogle, lab.WithSeed(21)).Machine
	if eq, ce := a.Equivalent(b); !eq || a.NumStates() != b.NumStates() {
		t.Fatalf("non-reproducible: %d vs %d states, diverging on %v", a.NumStates(), b.NumStates(), ce)
	}
	if a.NumStates() != 12 {
		t.Logf("note: random equivalence oracle found %d of 12 states", a.NumStates())
	}
}
