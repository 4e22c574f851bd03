package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/learn"
	"repro/internal/quicsim"
	"repro/internal/reference"
	"repro/internal/tcpsim"
	"repro/internal/tcpwire"
)

// bg is the default context for tests that never cancel.
var bg = context.Background()

// quicSUL builds the standard QUIC learning setup against an in-process
// server.
func quicSUL(profile quicsim.Profile) SUL {
	srv := quicsim.NewServer(quicsim.Config{Profile: profile, Seed: 7})
	cli := reference.NewQUICClient(reference.QUICClientConfig{Seed: 11}, reference.ServerTransport(srv))
	return &resetBoth{cli: cli, srv: srv}
}

// resetBoth resets the reference client and the implementation together
// (Adapter property 3 spans both sides).
type resetBoth struct {
	cli *reference.QUICClient
	srv *quicsim.Server
}

func (r *resetBoth) Reset() error {
	r.srv.Reset()
	return r.cli.Reset()
}

func (r *resetBoth) Step(in string) (string, error) { return r.cli.Step(in) }

// TestLearnGoogleQUIC is the flagship integration test: active learning
// over the real packet path recovers exactly the 12-state, 84-transition
// model the paper reports for Google QUIC.
func TestLearnGoogleQUIC(t *testing.T) {
	exp := &Experiment{
		Alphabet:    quicsim.InputAlphabet(),
		SUL:         quicSUL(quicsim.ProfileGoogle),
		Learner:     LearnerTTT,
		Equivalence: &learn.ModelOracle{Model: quicsim.GroundTruth(quicsim.ProfileGoogle)},
	}
	m, err := exp.Learn(bg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 12 || m.NumTransitions() != 84 {
		t.Fatalf("learned %d states / %d transitions, want 12/84", m.NumStates(), m.NumTransitions())
	}
	if eq, ce := quicsim.GroundTruth(quicsim.ProfileGoogle).Equivalent(m); !eq {
		t.Fatalf("learned model differs from spec on %v", ce)
	}
	t.Logf("google: %d live queries, %d symbols, %d cache hits",
		exp.Stats.Queries, exp.Stats.Symbols, exp.Stats.Hits)
}

// TestLearnQuiche recovers the 8-state, 56-transition Quiche model.
func TestLearnQuiche(t *testing.T) {
	exp := &Experiment{
		Alphabet:    quicsim.InputAlphabet(),
		SUL:         quicSUL(quicsim.ProfileQuiche),
		Learner:     LearnerTTT,
		Equivalence: &learn.ModelOracle{Model: quicsim.GroundTruth(quicsim.ProfileQuiche)},
	}
	m, err := exp.Learn(bg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 8 || m.NumTransitions() != 56 {
		t.Fatalf("learned %d states / %d transitions, want 8/56", m.NumStates(), m.NumTransitions())
	}
	t.Logf("quiche: %d live queries, %d symbols", exp.Stats.Queries, exp.Stats.Symbols)
}

// TestLearnQuicheWithRandomEquivalence drops the omniscient oracle and uses
// the heuristic random-words oracle the paper actually runs with.
func TestLearnQuicheWithRandomEquivalence(t *testing.T) {
	exp := &Experiment{
		Alphabet: quicsim.InputAlphabet(),
		SUL:      quicSUL(quicsim.ProfileQuiche),
		Learner:  LearnerTTT,
		Seed:     3,
	}
	m, err := exp.Learn(bg)
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := quicsim.GroundTruth(quicsim.ProfileQuiche).Equivalent(m); !eq {
		t.Fatalf("learned model differs from spec on %v", ce)
	}
}

// TestLearnMvfstDetectsNondeterminism reproduces §6.2.4: learning mvfst
// fails with a nondeterminism report on a post-close probe ("Prognosis
// could learn models for two of the three implementations").
func TestLearnMvfstDetectsNondeterminism(t *testing.T) {
	exp := &Experiment{
		Alphabet: quicsim.InputAlphabet(),
		SUL:      quicSUL(quicsim.ProfileMvfst),
		Learner:  LearnerTTT,
		Seed:     5,
	}
	_, err := exp.Learn(bg)
	if err == nil {
		t.Fatal("expected nondeterminism to abort learning")
	}
	nd, ok := IsNondeterminism(err)
	if !ok {
		t.Fatalf("unexpected error kind: %v", err)
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

// tcpSUL builds the standard TCP learning setup.
func tcpSUL() SUL {
	srv := tcpsim.NewServer(tcpsim.Config{Port: 44344, Seed: 5, StrictAckCheck: true})
	src := [4]byte{10, 0, 0, 2}
	dst := [4]byte{10, 0, 0, 1}
	tr := reference.TransportFunc(func(_ string, raw []byte) [][]byte {
		seg, err := tcpwire.Decode(raw, src, dst)
		if err != nil {
			return nil
		}
		var out [][]byte
		for _, resp := range srv.Handle(seg) {
			out = append(out, resp.Encode(dst, src))
		}
		return out
	})
	cli := reference.NewTCPClient(reference.TCPClientConfig{Seed: 3, DstPort: 44344, SrcAddr: src, DstAddr: dst}, tr)
	return &tcpBoth{cli: cli, srv: srv}
}

type tcpBoth struct {
	cli *reference.TCPClient
	srv *tcpsim.Server
}

func (r *tcpBoth) Reset() error {
	r.srv.Reset()
	return r.cli.Reset()
}

func (r *tcpBoth) Step(in string) (string, error) { return r.cli.Step(in) }

// TestLearnTCPFull reproduces §6.1: the TCP stack's model over the
// seven-symbol alphabet has 6 states and 42 transitions.
func TestLearnTCPFull(t *testing.T) {
	exp := &Experiment{
		Alphabet: reference.TCPAlphabet(),
		SUL:      tcpSUL(),
		Learner:  LearnerTTT,
		Seed:     9,
	}
	m, err := exp.Learn(bg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 6 || m.NumTransitions() != 42 {
		t.Fatalf("learned %d states / %d transitions, want 6/42\n%s", m.NumStates(), m.NumTransitions(), m)
	}
	t.Logf("tcp: %d live queries, %d symbols (paper: 4,726 queries)", exp.Stats.Queries, exp.Stats.Symbols)

	// Cross-check with L* on the same system.
	exp2 := &Experiment{Alphabet: reference.TCPAlphabet(), SUL: tcpSUL(), Learner: LearnerLStar, Seed: 9}
	m2, err := exp2.Learn(bg)
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := m.Equivalent(m2); !eq {
		t.Fatalf("lstar and ttt disagree on %v", ce)
	}
}

// TestGuardAcceptsDeterministic: a deterministic oracle passes through the
// guard with minimal overhead.
func TestGuardAcceptsDeterministic(t *testing.T) {
	var st learn.Stats
	base := learn.Counting(learn.OracleFunc(func(ctx context.Context, w []string) ([]string, error) {
		out := make([]string, len(w))
		for i := range out {
			out[i] = "ok"
		}
		return out, nil
	}), &st)
	g := Guard(base, GuardConfig{MinVotes: 2, MaxVotes: 10, Certainty: 0.9})
	out, err := g.Query(bg, []string{"a", "b"})
	if err != nil || len(out) != 2 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	if st.Queries != 2 {
		t.Fatalf("deterministic query used %d votes, want 2", st.Queries)
	}
}

// TestGuardFlagsCoinFlip: a 50/50 answer can never reach 90% certainty.
func TestGuardFlagsCoinFlip(t *testing.T) {
	i := 0
	base := learn.OracleFunc(func(ctx context.Context, w []string) ([]string, error) {
		i++
		if i%2 == 0 {
			return []string{"heads"}, nil
		}
		return []string{"tails"}, nil
	})
	g := Guard(base, GuardConfig{MinVotes: 2, MaxVotes: 12, Certainty: 0.9})
	_, err := g.Query(bg, []string{"flip"})
	nd, ok := IsNondeterminism(err)
	if !ok {
		t.Fatalf("expected nondeterminism, got %v", err)
	}
	if nd.Votes != 12 {
		t.Fatalf("votes = %d, want 12 (MaxVotes)", nd.Votes)
	}
}

// TestGuardAcceptsRareGlitch: a transient 1-in-N environmental glitch (the
// packet-loss scenario §5 describes) is outvoted and the majority answer
// is returned.
func TestGuardAcceptsRareGlitch(t *testing.T) {
	i := 0
	base := learn.OracleFunc(func(ctx context.Context, w []string) ([]string, error) {
		i++
		if i == 2 {
			return []string{"glitch"}, nil
		}
		return []string{"steady"}, nil
	})
	g := Guard(base, GuardConfig{MinVotes: 2, MaxVotes: 40, Certainty: 0.9})
	out, err := g.Query(bg, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != "steady" {
		t.Fatalf("majority answer = %q", out[0])
	}
}

// TestGuardVotesConsistentWithObserved pins the §5 bookkeeping invariant:
// the reported vote total is derived from the observed-output counts, so
// the two can never disagree — however the retry loop ends.
func TestGuardVotesConsistentWithObserved(t *testing.T) {
	i := 0
	base := learn.OracleFunc(func(ctx context.Context, w []string) ([]string, error) {
		i++
		return []string{fmt.Sprintf("answer-%d", i%3)}, nil // 3-way disagreement
	})
	g := Guard(base, GuardConfig{MinVotes: 2, MaxVotes: 9, Certainty: 0.9})
	_, err := g.Query(bg, []string{"w"})
	nd, ok := IsNondeterminism(err)
	if !ok {
		t.Fatalf("expected nondeterminism, got %v", err)
	}
	sum := 0
	for _, n := range nd.Observed {
		sum += n
	}
	if sum != nd.Votes {
		t.Fatalf("votes (%d) inconsistent with observed counts (sum %d)", nd.Votes, sum)
	}
}

// TestGuardWrapsRetryError: a vote that errors after partial retries must
// surface the underlying error (errors.Is still sees it) wrapped with the
// query word, and must not be misreported as nondeterminism.
func TestGuardWrapsRetryError(t *testing.T) {
	boom := errors.New("connection torn down")
	i := 0
	base := learn.OracleFunc(func(ctx context.Context, w []string) ([]string, error) {
		i++
		switch {
		case i <= 2:
			// Disagree on the first two votes to force the retry loop.
			return []string{fmt.Sprintf("v%d", i)}, nil
		default:
			return nil, boom
		}
	})
	g := Guard(base, GuardConfig{MinVotes: 2, MaxVotes: 20, Certainty: 0.9})
	_, err := g.Query(bg, []string{"SYN", "ACK"})
	if err == nil {
		t.Fatal("retry error swallowed")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("underlying error not preserved: %v", err)
	}
	if _, ok := IsNondeterminism(err); ok {
		t.Fatalf("query failure misreported as nondeterminism: %v", err)
	}
	if !strings.Contains(err.Error(), "SYN") || !strings.Contains(err.Error(), "ACK") {
		t.Fatalf("error does not name the query word: %v", err)
	}
}

// TestGuardHonorsCancel: cancelling the context stops the vote loop with
// ctx.Err().
func TestGuardHonorsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	i := 0
	base := learn.OracleFunc(func(ctx context.Context, w []string) ([]string, error) {
		i++
		if i == 3 {
			cancel()
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return []string{fmt.Sprintf("v%d", i%2)}, nil // keep disagreeing
	})
	g := Guard(base, GuardConfig{MinVotes: 2, MaxVotes: 100, Certainty: 0.99})
	_, err := g.Query(ctx, []string{"x"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("guard error = %v, want context.Canceled", err)
	}
	if i > 4 {
		t.Fatalf("guard kept voting after cancellation: %d executions", i)
	}
}

// TestOracleResetsPerQuery: each membership query must observe a fresh
// system.
func TestOracleResetsPerQuery(t *testing.T) {
	resets := 0
	s := &fakeSUL{
		reset: func() error { resets++; return nil },
		step:  func(in string) (string, error) { return "out", nil },
	}
	o := Oracle(s)
	for i := 0; i < 3; i++ {
		if _, err := o.Query(bg, []string{"a"}); err != nil {
			t.Fatal(err)
		}
	}
	if resets != 3 {
		t.Fatalf("resets = %d, want 3", resets)
	}
}

func TestOracleStepErrorPropagates(t *testing.T) {
	s := &fakeSUL{
		reset: func() error { return nil },
		step:  func(in string) (string, error) { return "", errors.New("boom") },
	}
	if _, err := Oracle(s).Query(bg, []string{"a"}); err == nil {
		t.Fatal("step error swallowed")
	}
}

func TestExperimentValidation(t *testing.T) {
	if _, err := (&Experiment{}).Learn(bg); err == nil {
		t.Fatal("empty experiment accepted")
	}
	exp := &Experiment{Alphabet: []string{"a"}, SUL: &fakeSUL{
		reset: func() error { return nil },
		step:  func(string) (string, error) { return "o", nil },
	}, Learner: "bogus"}
	if _, err := exp.Learn(bg); err == nil {
		t.Fatal("bogus learner accepted")
	}
}

// TestExperimentObserverEvents: the experiment-level observer sees the
// learner's round events plus per-round cache snapshots, and a
// nondeterministic run ends with NondeterminismDetected.
func TestExperimentObserverEvents(t *testing.T) {
	var events []learn.Event
	exp := &Experiment{
		Alphabet: quicsim.InputAlphabet(),
		SUL:      quicSUL(quicsim.ProfileQuiche),
		Equivalence: &learn.ModelOracle{
			Model: quicsim.GroundTruth(quicsim.ProfileQuiche),
		},
		Observer: learn.ObserverFunc(func(e learn.Event) { events = append(events, e) }),
	}
	if _, err := exp.Learn(bg); err != nil {
		t.Fatal(err)
	}
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
	nd := &Experiment{
		Alphabet: quicsim.InputAlphabet(),
		SUL:      quicSUL(quicsim.ProfileMvfst),
		Seed:     5,
		Observer: learn.ObserverFunc(func(e learn.Event) { events = append(events, e) }),
	}
	if _, err := nd.Learn(bg); err == nil {
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
// learning run (the ablation DESIGN.md calls out).
func TestCacheAblation(t *testing.T) {
	with := &Experiment{Alphabet: reference.TCPAlphabet(), SUL: tcpSUL(), Seed: 9}
	if _, err := with.Learn(bg); err != nil {
		t.Fatal(err)
	}
	without := &Experiment{Alphabet: reference.TCPAlphabet(), SUL: tcpSUL(), Seed: 9, DisableCache: true}
	if _, err := without.Learn(bg); err != nil {
		t.Fatal(err)
	}
	if with.Stats.Queries >= without.Stats.Queries {
		t.Fatalf("cache did not help: %d (with) vs %d (without)", with.Stats.Queries, without.Stats.Queries)
	}
	t.Logf("live queries: with cache %d, without %d", with.Stats.Queries, without.Stats.Queries)
}

type fakeSUL struct {
	reset func() error
	step  func(string) (string, error)
}

func (f *fakeSUL) Reset() error                   { return f.reset() }
func (f *fakeSUL) Step(in string) (string, error) { return f.step(in) }

// Benchmark-ish sanity: learning Google twice yields identical models
// (full determinism of the pipeline).
func TestLearningIsReproducible(t *testing.T) {
	learnOnce := func() (states, transitions int, err error) {
		exp := &Experiment{
			Alphabet: quicsim.InputAlphabet(),
			SUL:      quicSUL(quicsim.ProfileGoogle),
			Seed:     21,
		}
		m, err := exp.Learn(bg)
		if err != nil {
			return 0, 0, err
		}
		return m.NumStates(), m.NumTransitions(), nil
	}
	s1, t1, err := learnOnce()
	if err != nil {
		t.Fatal(err)
	}
	s2, t2, err := learnOnce()
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 || t1 != t2 {
		t.Fatalf("non-reproducible: %d/%d vs %d/%d", s1, t1, s2, t2)
	}
	if s1 != 12 {
		t.Logf("note: random equivalence oracle found %d of 12 states", s1)
	}
}
