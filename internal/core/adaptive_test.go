package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/automata"
	"repro/internal/learn"
)

// scriptedOracle answers each query by calling script with the running
// execution count for that word.
type scriptedOracle struct {
	mu     sync.Mutex
	calls  map[string]int
	script func(word []string, nth int) []string
}

func newScripted(script func(word []string, nth int) []string) *scriptedOracle {
	return &scriptedOracle{calls: map[string]int{}, script: script}
}

func (s *scriptedOracle) Query(ctx context.Context, word []string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	k := strings.Join(word, " ")
	n := s.calls[k]
	s.calls[k]++
	s.mu.Unlock()
	return s.script(word, n), nil
}

// echo answers every symbol with itself — a deterministic target.
func echo(word []string, _ int) []string {
	return append([]string(nil), word...)
}

// predicting returns a one-state hypothesis over inputs that answers each
// input with out[input], or with the input itself (as echo does) when out
// names none.
func predicting(inputs []string, out map[string]string) *automata.Mealy {
	m := automata.NewMealy(inputs)
	for _, in := range inputs {
		o, ok := out[in]
		if !ok {
			o = in
		}
		m.SetTransition(m.Initial(), in, m.Initial(), o)
	}
	return m
}

func TestAdaptiveGuardCheapWhenClean(t *testing.T) {
	cfg := DefaultAdaptiveGuard()
	cfg.PriorDisagreement = 0 // a link known clean
	var stats GuardStats
	g := NewGuardian(cfg, &stats, nil)
	oracle := g.Wrap(newScripted(echo))
	word := []string{"a", "b", "c"}
	out, err := oracle.Query(context.Background(), word)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(out, " ") != "a b c" {
		t.Fatalf("out = %v", out)
	}
	if got := stats.Snapshot(); got.Votes != int64(cfg.MinVotes) || got.WastedVotes != 0 || got.Escalations != 0 {
		t.Fatalf("clean query cost more than the floor: %+v", got)
	}
}

// TestAdaptiveGuardEscalatesOnDisagreement: injected flakiness must raise
// the vote budget, emit GuardEscalated events, and still resolve to the
// majority answer.
func TestAdaptiveGuardEscalatesOnDisagreement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// 30% of executions corrupt the final output symbol, each with a
	// different fault pattern — aggressive but outvotable link noise.
	// (A single 30%-likely alternative would rightly read as genuine
	// nondeterminism: it never falls ModeLead behind the clean answer.)
	flaky := newScripted(func(word []string, _ int) []string {
		out := echo(word, 0)
		if rng.Float64() < 0.3 {
			out[len(out)-1] = fmt.Sprintf("corrupt-%d", rng.Intn(6))
		}
		return out
	})
	cfg := DefaultAdaptiveGuard()
	cfg.PriorDisagreement = 0
	var stats GuardStats
	var events []learn.GuardEscalated
	g := NewGuardian(cfg, &stats, learn.ObserverFunc(func(e learn.Event) {
		if ge, ok := e.(learn.GuardEscalated); ok {
			events = append(events, ge)
		}
	}))
	oracle := g.Wrap(flaky)
	word := []string{"a", "b"}
	for i := 0; i < 40; i++ {
		out, err := oracle.Query(context.Background(), word)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if out[1] != "b" {
			t.Fatalf("query %d: corruption won the vote: %v", i, out)
		}
	}
	st := stats.Snapshot()
	if st.RetriedQueries == 0 || st.WastedVotes == 0 {
		t.Fatalf("no flakiness recorded: %+v", st)
	}
	if len(events) == 0 || st.Escalations != int64(len(events)) {
		t.Fatalf("escalations %d inconsistent with %d events", st.Escalations, len(events))
	}
	for _, ev := range events {
		if ev.Budget > cfg.MaxVotes || ev.Budget <= ev.Votes {
			t.Fatalf("bad escalation event: %+v", ev)
		}
	}
	if g.Disagreement() == 0 {
		t.Fatal("disagreement EWMA never moved")
	}
}

// TestAdaptiveGuardDecaysOnCleanStreak: after the link heals, the EWMA —
// and with it the per-query sampling — must fall back to the MinVotes
// floor.
func TestAdaptiveGuardDecaysOnCleanStreak(t *testing.T) {
	cfg := DefaultAdaptiveGuard()
	var stats GuardStats
	g := NewGuardian(cfg, &stats, nil)
	if g.InitialVotes() <= cfg.MinVotes {
		t.Fatalf("pessimistic prior ignored: initial votes %d", g.InitialVotes())
	}
	oracle := g.Wrap(newScripted(echo))
	for i := 0; i < 60; i++ {
		if _, err := oracle.Query(context.Background(), []string{"a"}); err != nil {
			t.Fatal(err)
		}
	}
	if g.Disagreement() > 0.01 {
		t.Fatalf("EWMA did not decay on a clean streak: %f", g.Disagreement())
	}
	if g.InitialVotes() != cfg.MinVotes {
		t.Fatalf("initial votes %d did not return to the floor %d", g.InitialVotes(), cfg.MinVotes)
	}
}

// TestAdaptiveGuardNeverExceedsMaxVotes: a genuine coin flip must end in
// NondeterminismError within the MaxVotes ceiling, never beyond it.
func TestAdaptiveGuardNeverExceedsMaxVotes(t *testing.T) {
	coin := newScripted(func(word []string, nth int) []string {
		out := echo(word, 0)
		if nth%2 == 1 { // strict alternation: no answer can ever lead 3x
			out[0] = "heads"
		}
		return out
	})
	cfg := DefaultAdaptiveGuard()
	cfg.MaxVotes = 24
	var stats GuardStats
	g := NewGuardian(cfg, &stats, nil)
	_, err := g.Wrap(coin).Query(context.Background(), []string{"a"})
	nd, ok := IsNondeterminism(err)
	if !ok {
		t.Fatalf("want nondeterminism, got %v", err)
	}
	if nd.Votes > cfg.MaxVotes {
		t.Fatalf("guard cast %d votes, ceiling %d", nd.Votes, cfg.MaxVotes)
	}
	if st := stats.Snapshot(); st.Votes != int64(nd.Votes) {
		t.Fatalf("stats votes %d != error votes %d", st.Votes, nd.Votes)
	}
}

// TestAdaptiveGuardPositionalConsensus: corrupting a *middle* symbol must
// not poison later positions — executions disagreeing with the accepted
// prefix lose their vote, and the reconstructed answer is the clean one.
func TestAdaptiveGuardPositionalConsensus(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	flaky := newScripted(func(word []string, _ int) []string {
		out := echo(word, 0)
		if rng.Float64() < 0.35 {
			i := rng.Intn(len(out))
			// A mid-word fault corrupts the rest of the execution, the way
			// a lost datagram desynchronises a real connection suffix.
			for ; i < len(out); i++ {
				out[i] = "noise"
			}
		}
		return out
	})
	cfg := DefaultAdaptiveGuard()
	g := NewGuardian(cfg, nil, nil)
	oracle := g.Wrap(flaky)
	word := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < 25; i++ {
		out, err := oracle.Query(context.Background(), word)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if strings.Join(out, " ") != "a b c d e f" {
			t.Fatalf("query %d: consensus corrupted: %v", i, out)
		}
	}
}

// TestGuardianSharedAcrossShards: one Guardian wrapping several shard
// oracles shares its EWMA — disagreements seen by one shard raise the
// sampling of all.
func TestGuardianSharedAcrossShards(t *testing.T) {
	cfg := DefaultAdaptiveGuard()
	cfg.PriorDisagreement = 0
	g := NewGuardian(cfg, nil, nil)
	nth := 0
	flakyOnce := g.Wrap(newScripted(func(word []string, n int) []string {
		out := echo(word, 0)
		nth++
		if nth == 2 {
			out[0] = "corrupt"
		}
		return out
	}))
	clean := g.Wrap(newScripted(echo))
	if _, err := flakyOnce.Query(context.Background(), []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if g.Disagreement() == 0 {
		t.Fatal("shard 0's disagreement not recorded")
	}
	if g.InitialVotes() <= cfg.MinVotes {
		t.Fatal("shard 1 does not see the raised sampling")
	}
	if _, err := clean.Query(context.Background(), []string{"b"}); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveGuardPredictedAtFloor: a query whose executions reproduce
// its prediction is settled at the MinVotes floor even while the
// pessimistic prior asks every other query for more.
func TestAdaptiveGuardPredictedAtFloor(t *testing.T) {
	cfg := DefaultAdaptiveGuard()
	var stats GuardStats
	g := NewGuardian(cfg, &stats, nil)
	if g.InitialVotes() <= cfg.MinVotes {
		t.Fatalf("pessimistic prior ignored: initial votes %d", g.InitialVotes())
	}
	word := []string{"a", "b", "c"}
	ctx := learn.WithPrediction(context.Background(), predicting(word, nil))
	out, err := g.Wrap(newScripted(echo)).Query(ctx, word)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(out, " ") != "a b c" {
		t.Fatalf("out = %v", out)
	}
	if got := stats.Snapshot(); got.Votes != int64(cfg.MinVotes) || got.Predicted != 1 || got.WastedVotes != 0 {
		t.Fatalf("predicted query cost more than the floor: %+v", got)
	}
}

// TestAdaptiveGuardWrongPredictionLoses: a prediction wrong at one
// position must not win it, even when the link noise sometimes forges
// exactly the predicted output there; the positions it predicts right
// are still answered correctly.
func TestAdaptiveGuardWrongPredictionLoses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	word := []string{"a", "b", "c", "d"}
	pred := predicting(word, map[string]string{"b": "x"}) // wrong at position 1
	// 30% of executions corrupt one position; "x" is one of the six
	// corruptions, so the noise forges the wrong prediction now and then.
	// Consensus must outvote those forgeries. Two executions that both
	// forge it (1/80 each, so 1/6400 per query) are accepted at the floor:
	// that is the rule's error rate, not a failure of it.
	flaky := newScripted(func(word []string, _ int) []string {
		out := echo(word, 0)
		if rng.Float64() < 0.3 {
			if k := rng.Intn(6); k == 0 {
				out[rng.Intn(len(out))] = "x"
			} else {
				out[rng.Intn(len(out))] = fmt.Sprintf("corrupt-%d", k)
			}
		}
		return out
	})
	var stats GuardStats
	oracle := NewGuardian(DefaultAdaptiveGuard(), &stats, nil).Wrap(flaky)
	ctx := learn.WithPrediction(context.Background(), pred)
	for i := 0; i < 40; i++ {
		out, err := oracle.Query(ctx, word)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if strings.Join(out, " ") != "a b c d" {
			t.Fatalf("query %d: the wrong prediction or the noise won: %v", i, out)
		}
	}
	if st := stats.Snapshot(); st.Predicted != 0 {
		t.Fatalf("%d queries settled on a prediction no execution could reproduce cleanly", st.Predicted)
	}
}

// TestAdaptiveGuardPredictionDoesNotHideCoinFlip: a genuine coin flip
// ends in NondeterminismError within MaxVotes whichever side the
// prediction takes.
func TestAdaptiveGuardPredictionDoesNotHideCoinFlip(t *testing.T) {
	for _, side := range []string{"a", "heads"} {
		coin := newScripted(func(word []string, nth int) []string {
			out := echo(word, 0)
			if nth%2 == 1 { // strict alternation: no answer can ever lead 3x
				out[0] = "heads"
			}
			return out
		})
		cfg := DefaultAdaptiveGuard()
		cfg.MaxVotes = 24
		var stats GuardStats
		ctx := learn.WithPrediction(context.Background(), predicting([]string{"a"}, map[string]string{"a": side}))
		_, err := NewGuardian(cfg, &stats, nil).Wrap(coin).Query(ctx, []string{"a"})
		nd, ok := IsNondeterminism(err)
		if !ok {
			t.Fatalf("prediction %q: want nondeterminism, got %v", side, err)
		}
		if nd.Votes > cfg.MaxVotes {
			t.Fatalf("prediction %q: guard cast %d votes, ceiling %d", side, nd.Votes, cfg.MaxVotes)
		}
	}
}

// TestFixedGuardIgnoresPrediction: the fixed guard's answers and vote
// counts do not depend on whether a query carries a prediction.
func TestFixedGuardIgnoresPrediction(t *testing.T) {
	run := func(predict bool) (answers []string, stats GuardStats) {
		rng := rand.New(rand.NewSource(3))
		flaky := newScripted(func(word []string, _ int) []string {
			out := echo(word, 0)
			if rng.Float64() < 0.2 {
				out[rng.Intn(len(out))] = "noise"
			}
			return out
		})
		oracle := NewGuardian(DefaultGuard(), &stats, nil).Wrap(flaky)
		for i := 0; i < 40; i++ {
			word := []string{"a", fmt.Sprint(i % 5), "c"}
			ctx := context.Background()
			if predict {
				ctx = learn.WithPrediction(ctx, predicting([]string{"a", "0", "1", "2", "3", "4", "c"}, nil))
			}
			out, err := oracle.Query(ctx, word)
			answers = append(answers, fmt.Sprint(out, err))
		}
		return answers, stats.Snapshot()
	}
	plain, plainStats := run(false)
	predicted, predictedStats := run(true)
	if strings.Join(plain, "\n") != strings.Join(predicted, "\n") {
		t.Fatalf("answers differ:\nplain:\n%s\npredicted:\n%s", strings.Join(plain, "\n"), strings.Join(predicted, "\n"))
	}
	if plainStats != predictedStats || plainStats.RetriedQueries == 0 {
		t.Fatalf("stats differ or no query retried: plain %+v, predicted %+v", plainStats, predictedStats)
	}
}
