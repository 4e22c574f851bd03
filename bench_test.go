// Package repro_test is the benchmark harness: one benchmark per table and
// figure of the paper's evaluation (see the experiment index in DESIGN.md
// and the recorded outcomes in EXPERIMENTS.md). Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/learn"
	"repro/internal/netem"
	"repro/internal/quicsim"
	"repro/internal/reference"
	"repro/internal/synth"
	"repro/internal/transport"
)

// BenchmarkLearnTCPFull — §6.1: the full seven-symbol TCP alphabet
// (paper: 6 states, 42 transitions, 4,726 membership queries).
func BenchmarkLearnTCPFull(b *testing.B) {
	var queries int64
	for i := 0; i < b.N; i++ {
		res, err := lab.Run(context.Background(), lab.TargetTCP, lab.WithSeed(13))
		if err != nil {
			b.Fatal(err)
		}
		if res.Machine.NumStates() != 6 {
			b.Fatalf("states = %d, want 6", res.Machine.NumStates())
		}
		queries = res.Stats.Queries
	}
	b.ReportMetric(float64(queries), "queries")
}

// BenchmarkLearnTCPFull_NoCache — ablation: the same run without the
// membership-query cache.
func BenchmarkLearnTCPFull_NoCache(b *testing.B) {
	var queries int64
	for i := 0; i < b.N; i++ {
		res, err := lab.Run(context.Background(), lab.TargetTCP, lab.WithSeed(13), lab.WithoutCache())
		if err != nil {
			b.Fatal(err)
		}
		queries = res.Stats.Queries
	}
	b.ReportMetric(float64(queries), "queries")
}

// BenchmarkLearnGoogleQUIC — §6.2.2: learn the Google QUIC profile
// (paper: 12 states, 84 transitions, 24,301 queries).
func BenchmarkLearnGoogleQUIC(b *testing.B) {
	var queries int64
	for i := 0; i < b.N; i++ {
		res, err := lab.Run(context.Background(), lab.TargetGoogle, lab.WithSeed(13), lab.WithPerfectEquivalence())
		if err != nil {
			b.Fatal(err)
		}
		if res.Machine.NumStates() != 12 {
			b.Fatalf("states = %d, want 12", res.Machine.NumStates())
		}
		queries = res.Stats.Queries
	}
	b.ReportMetric(float64(queries), "queries")
}

// BenchmarkLearnQuiche — §6.2.2: learn the Quiche profile
// (paper: 8 states, 56 transitions, 12,301 queries).
func BenchmarkLearnQuiche(b *testing.B) {
	var queries int64
	for i := 0; i < b.N; i++ {
		res, err := lab.Run(context.Background(), lab.TargetQuiche, lab.WithSeed(13), lab.WithPerfectEquivalence())
		if err != nil {
			b.Fatal(err)
		}
		if res.Machine.NumStates() != 8 {
			b.Fatalf("states = %d, want 8", res.Machine.NumStates())
		}
		queries = res.Stats.Queries
	}
	b.ReportMetric(float64(queries), "queries")
}

// BenchmarkLearnerComparison — ablation: L* vs the discrimination-tree
// learner on the same target (live query counts with the cache enabled).
func BenchmarkLearnerComparison(b *testing.B) {
	for _, kind := range []lab.LearnerKind{lab.LearnerLStar, lab.LearnerTTT} {
		b.Run(string(kind), func(b *testing.B) {
			var queries int64
			for i := 0; i < b.N; i++ {
				res, err := lab.Run(context.Background(), lab.TargetQuiche, lab.WithSeed(13), lab.WithPerfectEquivalence(), lab.WithLearner(kind))
				if err != nil {
					b.Fatal(err)
				}
				queries = res.Stats.Queries
			}
			b.ReportMetric(float64(queries), "queries")
		})
	}
}

// BenchmarkPooledLearning — the concurrent query engine: a full
// QUIC-profile learn against a latency-bearing target (one emulated
// network round-trip per exchange, as in the paper's containerised
// deployment), sequential vs fanned across a sharded SUL pool. Learning is
// dominated by membership-query latency, so keeping `workers` queries in
// flight cuts wall-clock near-linearly; the learned model and live query
// counts are identical across all settings.
func BenchmarkPooledLearning(b *testing.B) {
	const rtt = 200 * time.Microsecond
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var queries int64
			for i := 0; i < b.N; i++ {
				res, err := lab.Run(context.Background(), lab.TargetGoogle,
					lab.WithSeed(13), lab.WithPerfectEquivalence(),
					lab.WithWorkers(workers), lab.WithRTT(rtt))
				if err != nil {
					b.Fatal(err)
				}
				if res.Machine.NumStates() != 12 {
					b.Fatalf("states = %d, want 12", res.Machine.NumStates())
				}
				queries = res.Stats.Queries
			}
			b.ReportMetric(float64(queries), "queries")
		})
	}
}

// BenchmarkPooledLearningInProcess — the same sweep against the in-process
// simulator (no emulated latency): how much the pool buys when queries are
// pure CPU. On a single-core host this is a wash; on multicore hosts the
// crypto-heavy wire path parallelises.
func BenchmarkPooledLearningInProcess(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := lab.Run(context.Background(), lab.TargetGoogle,
					lab.WithSeed(13), lab.WithPerfectEquivalence(), lab.WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				if res.Machine.NumStates() != 12 {
					b.Fatalf("states = %d, want 12", res.Machine.NumStates())
				}
			}
		})
	}
}

// BenchmarkLearnUnderLoss — learning through an impaired link: a full
// Google-profile learn across a loss grid and worker counts, reporting
// live queries (SUL executions including guard votes), guard votes beyond
// the clean floor, and escalations per cell. The learned model must stay
// identical to the clean ground truth at every cell: the adaptive guard's
// job is to outvote the link, not to model it. The two guard=* cells pin
// the adaptive-vs-provisioned comparison at 5% loss: adaptive voting must
// beat a guard fixed at its worst-case vote floor on total queries.
func BenchmarkLearnUnderLoss(b *testing.B) {
	learn := func(b *testing.B, workers int, loss float64, extra ...lab.Option) *lab.Result {
		b.Helper()
		opts := append([]lab.Option{
			lab.WithSeed(13), lab.WithPerfectEquivalence(), lab.WithWorkers(workers),
		}, extra...)
		if loss > 0 {
			opts = append(opts, lab.WithImpairment(netem.Config{
				LossClient: loss, LossServer: loss, Seed: 99,
			}))
		}
		res, err := lab.Run(context.Background(), lab.TargetGoogle, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if res.Nondet != nil {
			b.Fatalf("guard gave up: %v", res.Nondet)
		}
		if res.Machine.NumStates() != 12 {
			b.Fatalf("states = %d, want 12", res.Machine.NumStates())
		}
		return res
	}
	for _, loss := range []float64{0, 0.01, 0.05} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("loss=%g%%/workers=%d", loss*100, workers), func(b *testing.B) {
				var res *lab.Result
				for i := 0; i < b.N; i++ {
					res = learn(b, workers, loss)
				}
				rm := res.Metrics()
				b.ReportMetric(float64(rm.Learner.Queries), "queries")
				b.ReportMetric(float64(rm.Guard.Votes), "votes")
				b.ReportMetric(float64(rm.Guard.WastedVotes), "wasted-votes")
				b.ReportMetric(float64(rm.Guard.Escalations), "escalations")
			})
		}
	}
	// The comparison the adaptive guard exists for: at 5% loss, scaling
	// votes to observed flakiness must cost fewer total queries than
	// provisioning every query at a fixed worst-case floor.
	guards := []struct {
		name string
		cfg  core.GuardConfig
	}{
		{"guard=adaptive", core.DefaultAdaptiveGuard()},
		{"guard=fixed-max", func() core.GuardConfig {
			cfg := core.DefaultAdaptiveGuard()
			cfg.MinVotes = 2 * cfg.ModeVotes // worst-case floor on every query
			return cfg
		}()},
	}
	queries := make(map[string]int64, len(guards))
	for _, g := range guards {
		b.Run(g.name, func(b *testing.B) {
			var res *lab.Result
			for i := 0; i < b.N; i++ {
				res = learn(b, 4, 0.05, lab.WithGuard(g.cfg))
			}
			rm := res.Metrics()
			queries[g.name] = rm.Learner.Queries
			b.ReportMetric(float64(rm.Learner.Queries), "queries")
			b.ReportMetric(float64(rm.Guard.WastedVotes), "wasted-votes")
		})
	}
	if a, f := queries["guard=adaptive"], queries["guard=fixed-max"]; a > 0 && f > 0 && a >= f {
		b.Fatalf("adaptive guard (%d queries) must beat the fixed worst-case guard (%d) at 5%% loss", a, f)
	}
}

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
	// A long post-close probe plus a strict guard makes detection
	// statistically certain per iteration: the chance of eight initial
	// votes agreeing on all eight coin flips is about 3e-6.
	word := []string{quicsim.SymInitialCrypto, quicsim.SymHandshakeHD}
	for j := 0; j < 8; j++ {
		word = append(word, quicsim.SymShortHD)
	}
	guard := core.GuardConfig{MinVotes: 8, MaxVotes: 30, Certainty: 0.95}
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
			oracle := core.Guard(core.Oracle(setup), core.GuardConfig{
				MinVotes: votes, MaxVotes: votes * 4, Certainty: 0.9,
			})
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

// BenchmarkWarmRelearn — incremental learning: a cold learn of the Google
// profile (random-words + Wp-method conformance equivalence, no ground
// truth — the `prognosis regress` configuration) versus relearning the
// unchanged target warm from the persistent store. The warm run rebuilds
// the whole hypothesis from the persisted query log and pays live queries
// only for the equivalence pass, so it must issue at least 5× fewer live
// queries — asserted here, and exercised end-to-end by the CI
// model-regression job.
func BenchmarkWarmRelearn(b *testing.B) {
	run := func(b *testing.B, dir string) *lab.Result {
		b.Helper()
		res, err := lab.Run(context.Background(), lab.TargetGoogle,
			lab.WithSeed(13), lab.WithConformance(2), lab.WithStore(dir))
		if err != nil {
			b.Fatal(err)
		}
		if res.Machine.NumStates() != 12 {
			b.Fatalf("states = %d, want 12", res.Machine.NumStates())
		}
		return res
	}
	var coldQ, warmQ int64
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coldQ = run(b, b.TempDir()).Stats.Queries // fresh store: fully cold
		}
		b.ReportMetric(float64(coldQ), "live-queries")
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		cold := run(b, dir) // populate and seal the store
		b.ResetTimer()
		var res *lab.Result
		for i := 0; i < b.N; i++ {
			res = run(b, dir)
		}
		warmQ = res.Stats.Queries
		b.ReportMetric(float64(warmQ), "live-queries")
		if eq, ce := cold.Machine.Equivalent(res.Machine); !eq {
			b.Fatalf("warm relearn diverged on %v", ce)
		}
	})
	if coldQ > 0 && warmQ*5 > coldQ {
		b.Fatalf("warm relearn must issue >=5x fewer live queries than cold: cold %d, warm %d (%.1fx)",
			coldQ, warmQ, float64(coldQ)/float64(warmQ))
	}
}

// BenchmarkUDPQueriesPerSec — the batched UDP hot path: fixed-count query
// throughput over real loopback sockets across worker counts, on a clean
// link and at 5% loss. Every arm drives the same 128 handshake queries
// (reported as the deterministic `queries` metric the CI gate compares;
// `queries/s` is informational), so ns/op is wall time for a fixed
// workload that CI compares against the previous main run. The two
// window=* arms then run a full learn over the impaired link: the adaptive
// in-flight window (AIMD between 2 and 8) must beat an in-flight limit
// fixed at its conservative floor on total wall time.
func BenchmarkUDPQueriesPerSec(b *testing.B) {
	word := []string{quicsim.SymInitialCrypto, quicsim.SymHandshakeC, quicsim.SymShortStream}
	const totalQueries = 128

	run := func(b *testing.B, workers int, loss float64) {
		b.Helper()
		setups := make([]*lab.QUICSetup, workers)
		var closers []func() error
		for i := range setups {
			srv := quicsim.NewServer(quicsim.Config{Profile: quicsim.ProfileQuiche, Seed: 7})
			hosted, err := transport.ListenQUIC(transport.Loopback(), srv)
			if err != nil {
				b.Fatal(err)
			}
			sock := transport.NewQUICClientTransport(hosted.Addr())
			closers = append(closers, sock.Close, hosted.Close)
			var tr reference.Transport = sock
			if loss > 0 {
				tr = netem.New(tr, netem.Config{LossClient: loss, LossServer: loss, Seed: int64(100 + i)})
			}
			cli := reference.NewQUICClient(reference.QUICClientConfig{Seed: 11}, tr)
			setups[i] = &lab.QUICSetup{Server: srv, Client: cli}
		}
		defer func() {
			for _, c := range closers {
				c()
			}
		}()
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			var issued int64
			var wg sync.WaitGroup
			for w := range setups {
				wg.Add(1)
				go func(s *lab.QUICSetup) {
					defer wg.Done()
					for atomic.AddInt64(&issued, 1) <= totalQueries {
						if err := s.Reset(); err != nil {
							b.Error(err)
							return
						}
						for _, sym := range word {
							if _, err := s.Step(sym); err != nil {
								b.Error(err)
								return
							}
						}
					}
				}(setups[w])
			}
			wg.Wait()
		}
		b.StopTimer()
		b.ReportMetric(float64(totalQueries), "queries")
		b.ReportMetric(float64(totalQueries*b.N)/b.Elapsed().Seconds(), "queries/s")
	}

	arms := []struct {
		name    string
		workers int
		loss    float64
	}{
		{"path=batched/workers=1/loss=0%", 1, 0},
		{"path=batched/workers=4/loss=0%", 4, 0},
		{"path=batched/workers=8/loss=0%", 8, 0},
		{"path=batched/workers=1/loss=5%", 1, 0.05},
		{"path=batched/workers=4/loss=5%", 4, 0.05},
		{"path=batched/workers=8/loss=5%", 8, 0.05},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) { run(b, arm.workers, arm.loss) })
	}

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
