// Package repro_test holds the micro-benchmarks and the per-figure
// benchmarks that perfbench does not time: the wire path's cost and
// allocations, the guard's vote overhead, conformance suites, synthesis,
// model diff and equivalence, and the adaptive window's wall-time claim.
// End-to-end learning is measured by perfbench (perfbench/README.md).
// Run with:
//
//	go test -run '^$' -bench . -benchmem .
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/learn"
	"repro/internal/netem"
	"repro/internal/quicsim"
	"repro/internal/synth"
)

// BenchmarkTraceReduction — §6.2.2: counting the 7-symbol trace space and
// the learned models' checking statistics.
func BenchmarkTraceReduction(b *testing.B) {
	google := quicsim.GroundTruth(quicsim.ProfileGoogle)
	quiche := quicsim.GroundTruth(quicsim.ProfileQuiche)
	productive := func(o string) bool { return o != "{}" }
	var total, g, q uint64
	for i := 0; i < b.N; i++ {
		total = google.CountTraces(10) // total machine: the full word count
		g = google.CountTracesFiltered(10, productive)
		q = quiche.CountTracesFiltered(10, productive)
	}
	b.ReportMetric(float64(total), "words")
	b.ReportMetric(float64(g), "google-traces")
	b.ReportMetric(float64(q), "quiche-traces")
}

// BenchmarkNondeterminismCheck — §6.2.4 / Issue 2: cost of detecting the
// mvfst post-close nondeterminism with the voting guard.
func BenchmarkNondeterminismCheck(b *testing.B) {
	// A long post-close probe plus eight initial votes makes detection
	// statistically certain per iteration: the chance of eight votes
	// agreeing on all eight coin flips is about 3e-6, and on a clean link
	// any disagreement is nondeterminism.
	word := []string{quicsim.SymInitialCrypto, quicsim.SymHandshakeHD}
	for j := 0; j < 8; j++ {
		word = append(word, quicsim.SymShortHD)
	}
	guard := core.GuardConfig{MinVotes: 8, MaxVotes: 30}
	for i := 0; i < b.N; i++ {
		setup := lab.NewQUIC(quicsim.ProfileMvfst, lab.QUICOptions{Seed: int64(i) + 1})
		oracle := core.Guard(core.Oracle(setup), guard)
		_, err := oracle.Query(context.Background(), word)
		if _, ok := core.IsNondeterminism(err); !ok {
			b.Fatalf("nondeterminism not detected: %v", err)
		}
	}
}

// BenchmarkGuardVotes — ablation: determinism-check cost as the minimum
// vote count grows (deterministic target, so votes are pure overhead).
func BenchmarkGuardVotes(b *testing.B) {
	for _, votes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("votes=%d", votes), func(b *testing.B) {
			setup := lab.NewQUIC(quicsim.ProfileQuiche, lab.QUICOptions{Seed: 3})
			oracle := core.Guard(core.Oracle(setup), core.GuardConfig{MinVotes: votes, MaxVotes: votes * 4})
			word := []string{quicsim.SymInitialCrypto, quicsim.SymHandshakeC, quicsim.SymShortStream}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := oracle.Query(context.Background(), word); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRetryPortBug — §6.2.5 / Issue 3: the retry exchange with the
// correct and the buggy client.
func BenchmarkRetryPortBug(b *testing.B) {
	word := []string{quicsim.SymInitialCrypto, quicsim.SymInitialCrypto, quicsim.SymHandshakeC}
	for _, buggy := range []bool{false, true} {
		name := "correct-client"
		if buggy {
			name = "buggy-client"
		}
		b.Run(name, func(b *testing.B) {
			setup := lab.NewQUIC(quicsim.ProfileGoogle, lab.QUICOptions{
				Seed: 7, RetryRequired: true, BuggyRetry: buggy,
			})
			for i := 0; i < b.N; i++ {
				if err := setup.Reset(); err != nil {
					b.Fatal(err)
				}
				var last string
				for _, sym := range word {
					out, err := setup.Client.Step(sym)
					if err != nil {
						b.Fatal(err)
					}
					last = out
				}
				if buggy && last != "{}" {
					b.Fatalf("buggy client completed handshake: %q", last)
				}
				if !buggy && last == "{}" {
					b.Fatal("correct client failed handshake")
				}
			}
		})
	}
}

// BenchmarkSynthesizeTCPRegisters — Fig. 3(c)/Fig. 4: register synthesis
// for the TCP handshake numbers.
func BenchmarkSynthesizeTCPRegisters(b *testing.B) {
	res, err := lab.Run(context.Background(), lab.TargetTCP, lab.WithSeed(31))
	if err != nil {
		b.Fatal(err)
	}
	p, err := lab.TCPProblem(res.Machine, lab.NewTCP(31))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeStreamDataBlocked — §6.2.6 / Appendix B.1: the Issue 4
// synthesis over the Maximum Stream Data field.
func BenchmarkSynthesizeStreamDataBlocked(b *testing.B) {
	res, err := lab.Run(context.Background(), lab.TargetGoogle, lab.WithSeed(29), lab.WithPerfectEquivalence())
	if err != nil {
		b.Fatal(err)
	}
	p, err := lab.SDBProblem(res.Machine, lab.NewQUIC(quicsim.ProfileGoogle, lab.QUICOptions{Seed: 29}))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelDiff — §6.2.3 / Issue 1: comparing the two learned models.
func BenchmarkModelDiff(b *testing.B) {
	google := analysis.NewModel("google", quicsim.GroundTruth(quicsim.ProfileGoogle))
	quiche := analysis.NewModel("quiche", quicsim.GroundTruth(quicsim.ProfileQuiche))
	for i := 0; i < b.N; i++ {
		r := analysis.Diff(google, quiche, 5)
		if r.Equivalent {
			b.Fatal("models must differ")
		}
	}
}

// BenchmarkEquivalence — §5: the Mealy equivalence decision procedure,
// swept over machine size.
func BenchmarkEquivalence(b *testing.B) {
	inputs := []string{"a", "b", "c"}
	outputs := []string{"0", "1"}
	for _, n := range []int{8, 32, 128, 512} {
		b.Run(fmt.Sprintf("states=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			m := randomMealy(rng, n, inputs, outputs)
			other := m.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if eq, _ := m.Equivalent(other); !eq {
					b.Fatal("clone not equivalent")
				}
			}
		})
	}
}

// BenchmarkWirePath — substrate cost: one full QUIC handshake over the real
// packet path (encode, HKDF, AES-GCM, header protection, decode).
func BenchmarkWirePath(b *testing.B) {
	setup := lab.NewQUIC(quicsim.ProfileGoogle, lab.QUICOptions{Seed: 7})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := setup.Reset(); err != nil {
			b.Fatal(err)
		}
		if _, err := setup.Client.Step(quicsim.SymInitialCrypto); err != nil {
			b.Fatal(err)
		}
		out, err := setup.Client.Step(quicsim.SymHandshakeC)
		if err != nil {
			b.Fatal(err)
		}
		if out == "{}" {
			b.Fatal("handshake failed")
		}
	}
}

// BenchmarkTCPWirePath — substrate cost: one TCP handshake through binary
// segments with checksums.
func BenchmarkTCPWirePath(b *testing.B) {
	setup := lab.NewTCP(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := setup.Reset(); err != nil {
			b.Fatal(err)
		}
		out, err := setup.Client.Step("SYN(?,?,0)")
		if err != nil || out != "SYN+ACK(?,?,0)" {
			b.Fatalf("handshake failed: %q %v", out, err)
		}
	}
}

// BenchmarkModelBasedTestGen — §5: generating and running the W-method
// conformance suite against a live implementation.
func BenchmarkModelBasedTestGen(b *testing.B) {
	quiche := quicsim.GroundTruth(quicsim.ProfileQuiche)
	suite := analysis.WMethodSuite(quiche, 1)
	oracle := learn.MealyOracle(quiche)
	b.ReportMetric(float64(suite.Len()), "tests")
	for i := 0; i < b.N; i++ {
		fails, err := analysis.RunSuite(context.Background(), suite, oracle, 0)
		if err != nil || len(fails) != 0 {
			b.Fatalf("suite run failed: %v %v", fails, err)
		}
	}
}

func randomMealy(r *rand.Rand, states int, inputs, outputs []string) *automata.Mealy {
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

// BenchmarkConformance — ablation: the W-method suite vs the Wp-method
// equivalence search over a correct hypothesis (the full-suite cost; Wp's
// savings come from the per-state identification sets).
func BenchmarkConformance(b *testing.B) {
	truth := quicsim.GroundTruth(quicsim.ProfileQuiche)
	b.Run("w-method", func(b *testing.B) {
		var st learn.Stats
		oracle := learn.Counting(learn.MealyOracle(truth), &st)
		for i := 0; i < b.N; i++ {
			st = learn.Stats{}
			suite := analysis.WMethodSuite(truth, 1)
			if fails, err := analysis.RunSuite(context.Background(), suite, oracle, 1); err != nil || len(fails) != 0 {
				b.Fatalf("fails=%v err=%v", fails, err)
			}
		}
		b.ReportMetric(float64(st.Queries), "queries")
	})
	b.Run("wp-method", func(b *testing.B) {
		var st learn.Stats
		oracle := learn.Counting(learn.MealyOracle(truth), &st)
		eqo := &learn.WpMethodOracle{Oracle: oracle, Inputs: truth.Inputs(), Depth: 1}
		for i := 0; i < b.N; i++ {
			st = learn.Stats{}
			if ce, err := eqo.FindCounterexample(context.Background(), truth); err != nil || ce != nil {
				b.Fatalf("ce=%v err=%v", ce, err)
			}
		}
		b.ReportMetric(float64(st.Queries), "queries")
	})
}

// BenchmarkUDPQueriesPerSec — the adaptive in-flight window over real
// loopback sockets: a full Quiche learn at 5% loss with 8 workers, the
// window adapting between 2 and 8 against an in-flight limit fixed at its
// floor. The adaptive window must beat the fixed floor on wall time, the
// one claim of the window that holds only on wall time and so has no
// deterministic test.
func BenchmarkUDPQueriesPerSec(b *testing.B) {
	// The comparison the adaptive window exists for: a fixed in-flight limit
	// must be provisioned at its safe floor, while AIMD discovers the
	// capacity above it and backs off only on guard escalations.
	windows := []struct {
		name string
		cfg  learn.WindowConfig
	}{
		{"window=adaptive", learn.WindowConfig{Min: 2, Max: 8, Initial: 2}},
		{"window=fixed-min", learn.WindowConfig{Min: 2, Max: 2}},
	}
	wall := make(map[string]time.Duration)
	for _, arm := range windows {
		b.Run(arm.name, func(b *testing.B) {
			var res *lab.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = lab.Run(context.Background(), lab.TargetQuiche,
					lab.WithSeed(13), lab.WithPerfectEquivalence(), lab.WithWorkers(8),
					lab.WithTransport(lab.TransportUDP),
					lab.WithImpairment(netem.Config{LossClient: 0.05, LossServer: 0.05, Seed: 99}),
					lab.WithWindow(arm.cfg))
				if err != nil {
					b.Fatal(err)
				}
				if res.Nondet != nil {
					b.Fatalf("guard gave up: %v", res.Nondet)
				}
				if res.Machine.NumStates() != 8 {
					b.Fatalf("states = %d, want 8", res.Machine.NumStates())
				}
			}
			rm := res.Metrics()
			wall[arm.name] = rm.Duration
			b.ReportMetric(float64(rm.Learner.Queries), "queries")
			b.ReportMetric(rm.Duration.Seconds()*1000, "wall-ms")
			if rm.Window != nil {
				b.ReportMetric(float64(rm.Window.Size), "window-size")
			}
		})
	}
	if a, f := wall["window=adaptive"], wall["window=fixed-min"]; a > 0 && f > 0 && a >= f {
		b.Fatalf("adaptive window (%v) must beat the in-flight limit fixed at its floor (%v) on wall time under 5%% loss", a, f)
	}
}
