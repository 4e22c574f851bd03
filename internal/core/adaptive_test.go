package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
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

// lossy is the fault rate of a link known to drop 5% of datagrams each
// way, the floor a guard over such a link never goes below
// (netem.Config.FaultRate).
const lossy = 1 - 0.95*0.95

func TestAdaptiveGuardCheapWhenClean(t *testing.T) {
	cfg := DefaultGuard()
	var stats GuardStats
	g := NewGuardian(cfg, 0, &stats, nil)
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
// the vote budget, emit GuardEscalated events, raise the measured fault
// rate, and still resolve to the majority answer.
func TestAdaptiveGuardEscalatesOnDisagreement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// 30% of executions corrupt the final output symbol, each with one of
	// six fault patterns — aggressive but outvotable link noise.
	flaky := newScripted(func(word []string, _ int) []string {
		out := echo(word, 0)
		if rng.Float64() < 0.3 {
			out[len(out)-1] = fmt.Sprintf("corrupt-%d", rng.Intn(6))
		}
		return out
	})
	cfg := DefaultGuard()
	var stats GuardStats
	var events []learn.GuardEscalated
	g := NewGuardian(cfg, lossy, &stats, learn.ObserverFunc(func(e learn.Event) {
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
		if ev.Budget > cfg.MaxVotes || ev.Budget <= ev.Votes || ev.FaultRate < lossy {
			t.Fatalf("bad escalation event: %+v", ev)
		}
	}
	if g.FaultRate() <= lossy {
		t.Fatalf("measured fault rate %f never rose above the floor", g.FaultRate())
	}
}

// twoFaults echoes the word, except that the second and fourth executions
// of each word are corrupted.
func twoFaults(word []string, nth int) []string {
	out := echo(word, 0)
	if nth == 1 || nth == 3 {
		out[0] = "corrupt"
	}
	return out
}

// TestAdaptiveGuardDecaysOnCleanStreak: after the link heals, the measured
// fault rate — and with it the votes a query costs — must fall back to the
// link's floor.
func TestAdaptiveGuardDecaysOnCleanStreak(t *testing.T) {
	var stats GuardStats
	g := NewGuardian(DefaultGuard(), lossy, &stats, nil)
	flaky := g.Wrap(newScripted(twoFaults))
	if _, err := flaky.Query(context.Background(), []string{"x"}); err != nil {
		t.Fatal(err)
	}
	if g.FaultRate() <= lossy {
		t.Fatalf("a fault in %d votes left the fault rate at %f", stats.Snapshot().Votes, g.FaultRate())
	}
	clean := g.Wrap(newScripted(echo))
	cost := func() int64 {
		before := stats.Snapshot().Votes
		if _, err := clean.Query(context.Background(), []string{"a"}); err != nil {
			t.Fatal(err)
		}
		return stats.Snapshot().Votes - before
	}
	first := cost()
	for i := 0; i < 60; i++ {
		cost()
	}
	if g.FaultRate() != lossy {
		t.Fatalf("fault rate %f did not return to the floor %f on a clean streak", g.FaultRate(), lossy)
	}
	floor := NewGuardian(DefaultGuard(), lossy, nil, nil)
	s := floor.test()
	if last := cost(); last >= first || last != int64(s.votes(DefaultGuard().MinVotes)) {
		t.Fatalf("clean query cost %d votes after the streak, %d before it; want the floor's %d", last, first, s.votes(2))
	}
}

// TestAdaptiveGuardNeverExceedsMaxVotes: a genuine coin flip must end in
// NondeterminismError within the MaxVotes ceiling, never beyond it, even
// on a link known to drop datagrams.
func TestAdaptiveGuardNeverExceedsMaxVotes(t *testing.T) {
	coin := newScripted(func(word []string, nth int) []string {
		out := echo(word, 0)
		if nth%2 == 1 { // strict alternation: no answer ever leads
			out[0] = "heads"
		}
		return out
	})
	cfg := DefaultGuard()
	cfg.MaxVotes = 24
	var stats GuardStats
	g := NewGuardian(cfg, lossy, &stats, nil)
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
	g := NewGuardian(DefaultGuard(), lossy, nil, nil)
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
// oracles shares its measure of the link — disagreements seen by one shard
// raise the votes every shard casts.
func TestGuardianSharedAcrossShards(t *testing.T) {
	var stats GuardStats
	g := NewGuardian(DefaultGuard(), lossy, &stats, nil)
	flaky := g.Wrap(newScripted(twoFaults))
	clean := g.Wrap(newScripted(echo))
	if _, err := flaky.Query(context.Background(), []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if g.FaultRate() <= lossy {
		t.Fatal("shard 0's disagreement not recorded")
	}
	before := stats.Snapshot().Votes
	if _, err := clean.Query(context.Background(), []string{"b"}); err != nil {
		t.Fatal(err)
	}
	floor := NewGuardian(DefaultGuard(), lossy, nil, nil).test()
	if votes := stats.Snapshot().Votes - before; votes <= int64(floor.votes(DefaultGuard().MinVotes)) {
		t.Fatalf("shard 1 cast %d votes, no more than a fresh guard on the same link", votes)
	}
}

// TestAdaptiveGuardPredictedAtFloor: once the run has seen predictions
// hold, a query whose executions reproduce its prediction is settled at
// the MinVotes floor, while the same query without a prediction costs
// more on the same link.
func TestAdaptiveGuardPredictedAtFloor(t *testing.T) {
	cfg := DefaultGuard()
	var stats GuardStats
	oracle := NewGuardian(cfg, lossy, &stats, nil).Wrap(newScripted(echo))
	word := []string{"a", "b", "c"}
	cost := func(ctx context.Context) int64 {
		before := stats.Snapshot().Votes
		out, err := oracle.Query(ctx, word)
		if err != nil || strings.Join(out, " ") != "a b c" {
			t.Fatalf("out=%v err=%v", out, err)
		}
		return stats.Snapshot().Votes - before
	}
	ctx := learn.WithPrediction(context.Background(), predicting(word, nil))
	var costs []int64
	for len(costs) < 10 && (len(costs) == 0 || costs[len(costs)-1] > int64(cfg.MinVotes)) {
		costs = append(costs, cost(ctx))
	}
	if costs[0] == int64(cfg.MinVotes) || costs[len(costs)-1] != int64(cfg.MinVotes) {
		t.Fatalf("predicted queries cost %v votes: want the floor only once predictions have held", costs)
	}
	if st := stats.Snapshot(); st.Predicted != 1 {
		t.Fatalf("%d queries counted as settled by their prediction, want 1", st.Predicted)
	}
	if c := cost(context.Background()); c <= int64(cfg.MinVotes) {
		t.Fatalf("the query without its prediction cost %d votes, the floor", c)
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
	oracle := NewGuardian(DefaultGuard(), lossy, &stats, nil).Wrap(flaky)
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

// TestGuardPredictionNeverBreaksTie: after a thousand predicted
// positions have held, the prediction's prior odds alone exceed 1/α. A
// fault that forges exactly the predicted output in one of the first two
// executions must still not win on the 1–1 tie: the guard votes on until
// the true output leads, and returns it.
func TestGuardPredictionNeverBreaksTie(t *testing.T) {
	inputs := []string{"i0", "i1", "i2", "i3", "i4", "i5", "i6", "i7", "i8", "i9"}
	ctx := learn.WithPrediction(context.Background(), predicting(append(inputs, "t"), map[string]string{"t": "x"}))
	oracle := NewGuardian(DefaultGuard(), lossy, nil, nil).Wrap(newScripted(func(word []string, nth int) []string {
		if word[0] == "t" && nth == 0 {
			return []string{"x"} // a fault that forged the prediction
		}
		return echo(word, nth)
	}))
	for range 100 {
		if _, err := oracle.Query(ctx, inputs); err != nil {
			t.Fatal(err)
		}
	}
	out, err := oracle.Query(ctx, []string{"t"})
	if err != nil || !slices.Equal(out, []string{"t"}) {
		t.Fatalf("out=%v err=%v; want [t]: the prediction broke a 1-1 tie", out, err)
	}
}

// TestAdaptiveGuardPredictionDoesNotHideCoinFlip: a genuine coin flip
// ends in NondeterminismError within MaxVotes whichever side the
// prediction takes.
func TestAdaptiveGuardPredictionDoesNotHideCoinFlip(t *testing.T) {
	for _, side := range []string{"a", "heads"} {
		coin := newScripted(func(word []string, nth int) []string {
			out := echo(word, 0)
			if nth%2 == 1 { // strict alternation: no answer ever leads
				out[0] = "heads"
			}
			return out
		})
		cfg := DefaultGuard()
		cfg.MaxVotes = 24
		ctx := learn.WithPrediction(context.Background(), predicting([]string{"a"}, map[string]string{"a": side}))
		_, err := NewGuardian(cfg, lossy, nil, nil).Wrap(coin).Query(ctx, []string{"a"})
		nd, ok := IsNondeterminism(err)
		if !ok {
			t.Fatalf("prediction %q: want nondeterminism, got %v", side, err)
		}
		if nd.Votes > cfg.MaxVotes {
			t.Fatalf("prediction %q: guard cast %d votes, ceiling %d", side, nd.Votes, cfg.MaxVotes)
		}
	}
}

// TestCleanGuardIgnoresPrediction: on a clean link the guard's answers
// and vote counts do not depend on whether a query carries a prediction.
func TestCleanGuardIgnoresPrediction(t *testing.T) {
	run := func(predict bool) (answers []string, stats GuardStats) {
		rng := rand.New(rand.NewSource(3))
		flaky := newScripted(func(word []string, _ int) []string {
			out := echo(word, 0)
			if rng.Float64() < 0.05 {
				out[rng.Intn(len(out))] = "noise"
			}
			return out
		})
		oracle := NewGuardian(DefaultGuard(), 0, &stats, nil).Wrap(flaky)
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

// TestGuardRetestsAcceptedPrefix: a burst of identical faults early in a
// query can make a wrong output modal at a position: here 7 of the first
// 9 executions are silent at position 1, and their suffixes split between
// two outputs. Later executions are dominated by the true answer. The
// guard judges every position again at every vote, so it gives the silent
// prefix up and returns the true answer instead of halting on the split.
func TestGuardRetestsAcceptedPrefix(t *testing.T) {
	truth := []string{"H", "A", "B", "C"}
	silent := func(nth int) []string {
		return []string{"H", "", fmt.Sprintf("X%d", nth%2), fmt.Sprintf("Y%d", nth%2)}
	}
	burst := map[int]bool{0: true, 1: true, 2: true, 3: true, 5: true, 6: true, 7: true}
	oracle := newScripted(func(word []string, nth int) []string {
		switch {
		case nth < 9 && burst[nth], nth >= 9 && nth%5 == 0:
			return silent(nth)
		default:
			return append([]string(nil), truth...)
		}
	})
	var stats GuardStats
	out, err := NewGuardian(DefaultGuard(), lossy, &stats, nil).Wrap(oracle).Query(context.Background(), []string{"i0", "i1", "i2", "i3"})
	if err != nil || !slices.Equal(out, truth) {
		t.Fatalf("out=%v err=%v after %d votes; want %v", out, err, stats.Snapshot().Votes, truth)
	}
}

// TestGuardHaltsCoinOnCleanLink: the witness pattern of the mvfst
// stateless-RESET coin (learn-mvfst.txt), 16 RESETs and 4 silences at one
// position over 20 executions. On a link measured clean no fault explains
// a disagreement, so the split ends in a NondeterminismError within 20
// votes.
func TestGuardHaltsCoinOnCleanLink(t *testing.T) {
	silence := map[int]bool{1: true, 6: true, 11: true, 16: true}
	coin := newScripted(func(word []string, nth int) []string {
		out := []string{"HS", "CLOSE", "RESET", "RESET"}
		if silence[nth%20] {
			out[2] = ""
		}
		return out
	})
	var stats GuardStats
	_, err := NewGuardian(DefaultGuard(), 0, &stats, nil).Wrap(coin).Query(context.Background(), []string{"i", "i", "i", "i"})
	nd, ok := IsNondeterminism(err)
	if !ok {
		t.Fatalf("want nondeterminism, got %v", err)
	}
	if nd.Votes > 20 || stats.Snapshot().Votes > 20 {
		t.Fatalf("coin halted after %d votes, want at most 20", nd.Votes)
	}
}
