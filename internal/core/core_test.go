package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/learn"
)

// bg is the default context for tests that never cancel.
var bg = context.Background()

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
	g := Guard(base, GuardConfig{MinVotes: 2, MaxVotes: 10})
	out, err := g.Query(bg, []string{"a", "b"})
	if err != nil || len(out) != 2 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	if st.Queries != 2 {
		t.Fatalf("deterministic query used %d votes, want 2", st.Queries)
	}
}

// TestGuardFlagsCoinFlip: on a clean link no fault explains a
// disagreement, so a 50/50 answer is nondeterministic at its first one.
func TestGuardFlagsCoinFlip(t *testing.T) {
	i := 0
	base := learn.OracleFunc(func(ctx context.Context, w []string) ([]string, error) {
		i++
		if i%2 == 0 {
			return []string{"heads"}, nil
		}
		return []string{"tails"}, nil
	})
	g := Guard(base, GuardConfig{MinVotes: 2, MaxVotes: 12})
	_, err := g.Query(bg, []string{"flip"})
	nd, ok := IsNondeterminism(err)
	if !ok {
		t.Fatalf("expected nondeterminism, got %v", err)
	}
	if nd.Votes != 2 {
		t.Fatalf("votes = %d, want 2 (MinVotes)", nd.Votes)
	}
}

// TestGuardAcceptsRareGlitch: a transient 1-in-N environmental glitch (the
// packet-loss scenario §5 describes) on a link known to drop datagrams is
// outvoted and the majority answer is returned. On a link with no known
// faults the same glitch halts (TestGuardHaltsGlitchOnCleanLink).
func TestGuardAcceptsRareGlitch(t *testing.T) {
	i := 0
	base := learn.OracleFunc(func(ctx context.Context, w []string) ([]string, error) {
		i++
		if i == 2 {
			return []string{"glitch"}, nil
		}
		return []string{"steady"}, nil
	})
	g := NewGuardian(GuardConfig{MinVotes: 2, MaxVotes: 40}, 0.05, nil, nil).Wrap(base)
	out, err := g.Query(bg, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != "steady" {
		t.Fatalf("majority answer = %q", out[0])
	}
}

// TestGuardHaltsGlitchOnCleanLink pins the default guard's reading of a
// link with no known faults (no netem impairment): no fault rate explains
// a disagreement there, so the first one, even a one-off glitch, is
// nondeterminism at MinVotes.
func TestGuardHaltsGlitchOnCleanLink(t *testing.T) {
	i := 0
	base := learn.OracleFunc(func(ctx context.Context, w []string) ([]string, error) {
		i++
		if i == 2 {
			return []string{"glitch"}, nil
		}
		return []string{"steady"}, nil
	})
	_, err := Guard(base, DefaultGuard()).Query(bg, []string{"x"})
	nd, ok := IsNondeterminism(err)
	if !ok || nd.Votes != DefaultGuard().MinVotes {
		t.Fatalf("want nondeterminism at %d votes, got %v", DefaultGuard().MinVotes, err)
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
	g := Guard(base, GuardConfig{MinVotes: 2, MaxVotes: 9})
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

// TestGuardWrapsRetryError: on a link known to drop datagrams, a vote that
// errors after partial retries must surface the underlying error
// (errors.Is still sees it) wrapped with the query word, and must not be
// misreported as nondeterminism.
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
	g := NewGuardian(GuardConfig{MinVotes: 2, MaxVotes: 20}, 0.05, nil, nil).Wrap(base)
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
// ctx.Err() (on a link known to drop datagrams, where a disagreement calls
// for more votes).
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
	g := NewGuardian(GuardConfig{MinVotes: 2, MaxVotes: 100}, 0.05, nil, nil).Wrap(base)
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

type fakeSUL struct {
	reset func() error
	step  func(string) (string, error)
}

func (f *fakeSUL) Reset() error                   { return f.reset() }
func (f *fakeSUL) Step(in string) (string, error) { return f.step(in) }

// TestGuardRecastsVoidedExecutions: an execution the SUL voids with
// learn.ErrLateResponse is cast again, not counted as a vote, and recorded
// in GuardStats.Recasts; past MaxVotes re-casts the error surfaces.
func TestGuardRecastsVoidedExecutions(t *testing.T) {
	voids := 3
	base := learn.OracleFunc(func(ctx context.Context, w []string) ([]string, error) {
		if voids > 0 {
			voids--
			return nil, fmt.Errorf("replica: %w", learn.ErrLateResponse)
		}
		return []string{"ok"}, nil
	})
	var st GuardStats
	out, err := NewGuardian(DefaultGuard(), 0, &st, nil).Wrap(base).Query(bg, []string{"a"})
	if err != nil || len(out) != 1 || out[0] != "ok" {
		t.Fatalf("out=%v err=%v", out, err)
	}
	if st.Recasts != 3 || st.Votes != 2 || st.RetriedQueries != 0 {
		t.Fatalf("stats %+v, want 3 recasts, 2 votes, no retries", st)
	}

	always := learn.OracleFunc(func(ctx context.Context, w []string) ([]string, error) {
		return nil, learn.ErrLateResponse
	})
	st = GuardStats{}
	cfg := GuardConfig{MinVotes: 2, MaxVotes: 5}
	if _, err := NewGuardian(cfg, 0, &st, nil).Wrap(always).Query(bg, []string{"a"}); !errors.Is(err, learn.ErrLateResponse) {
		t.Fatalf("err = %v, want ErrLateResponse after MaxVotes re-casts", err)
	}
	if st.Recasts != 5 {
		t.Fatalf("recasts = %d, want MaxVotes (5)", st.Recasts)
	}
}

// scriptedTimed replays a fixed script of executions, repeating its last
// one: each one's outputs and which of its steps ended on a wait short of
// its ceiling. An output truncates another that extends it with "+".
type scriptedTimed struct {
	outs     [][]string
	short    [][]bool
	n        int
	backoffs int
}

func (s *scriptedTimed) Query(ctx context.Context, w []string) ([]string, error) {
	s.n = min(s.n+1, len(s.outs))
	return s.outs[s.n-1], nil
}

func (s *scriptedTimed) Short() []bool   { return s.short[s.n-1] }
func (s *scriptedTimed) Backoff()        { s.backoffs++ }
func (s *scriptedTimed) Expect([]string) {}
func (s *scriptedTimed) Truncates(a, b string) bool {
	return a == "" && b != "" || strings.HasPrefix(b, a+"+")
}

// TestGuardStrikesCutShortExecutions: where two executions first differ,
// one that heard, on a wait short of its ceiling, only the start of what
// the other heard (silence, or a burst without its tail) is struck, cast
// again and counted as a re-cast; the waits back off. The same outputs
// heard at the ceiling, or outputs that differ otherwise, are voted on (on
// a link known to drop datagrams, where a disagreement calls for more
// votes).
func TestGuardStrikesCutShortExecutions(t *testing.T) {
	answer := []string{"A", "B+b", "C"}
	short, ceiling := []bool{true, true, true}, []bool{false, false, false}
	for _, tc := range []struct {
		name   string
		first  []string
		short  []bool
		struck bool
	}{
		{"silence on a short wait", []string{"A", "", "B+b"}, short, true},
		{"burst without its tail", []string{"A", "B", "b+C"}, short, true},
		{"silence at the ceiling", []string{"A", "", "B+b"}, ceiling, false},
		{"a different answer", []string{"A", "D", "C"}, short, false},
	} {
		s := &scriptedTimed{outs: [][]string{tc.first, answer}, short: [][]bool{tc.short, short}}
		var st GuardStats
		out, err := NewGuardian(DefaultGuard(), 0.05, &st, nil).WrapTimed(s, s).Query(bg, []string{"x", "y", "z"})
		if err != nil || !slices.Equal(out, answer) {
			t.Fatalf("%s: out=%v err=%v", tc.name, out, err)
		}
		struck := st.Recasts == 1 && st.RetriedQueries == 0 && s.backoffs == 1
		voted := st.Recasts == 0 && st.RetriedQueries == 1 && s.backoffs == 0
		if tc.struck && !struck || !tc.struck && !voted {
			t.Fatalf("%s: stats %+v, backoffs %d; want struck=%v", tc.name, st, s.backoffs, tc.struck)
		}
	}
}

// expectScript replays a script of executions, each an output word or,
// where it is nil, a void (learn.ErrLateResponse), repeating its last
// one, and records the expectation each execution was handed. It is a
// Timed SUL whose steps never end short.
type expectScript struct {
	outs   [][]string
	n      int
	next   []string
	expect [][]string
}

func (s *expectScript) Expect(want []string) { s.next = want }

func (s *expectScript) Query(ctx context.Context, w []string) ([]string, error) {
	s.expect, s.next = append(s.expect, s.next), nil
	s.n = min(s.n+1, len(s.outs))
	if s.outs[s.n-1] == nil {
		return nil, learn.ErrLateResponse
	}
	return s.outs[s.n-1], nil
}

func (s *expectScript) Short() []bool              { return nil }
func (s *expectScript) Backoff()                   {}
func (s *expectScript) Truncates(a, b string) bool { return false }

// TestGuardHandsExecutionsTheirExpectation: on a Timed SUL the first
// execution expects the prediction and each re-vote the output most
// standing executions heard at each position; once an execution is
// voided the query's executions expect nothing; and a guard over an SUL
// that is not Timed hands out no expectation at all.
func TestGuardHandsExecutionsTheirExpectation(t *testing.T) {
	word := []string{"x", "y", "z"}
	ctx := learn.WithPrediction(bg, predicting(word, map[string]string{"x": "P", "y": "P", "z": "P"}))
	abc, adc := []string{"A", "B", "C"}, []string{"A", "D", "C"}

	s := &expectScript{outs: [][]string{abc, adc, adc}}
	if out, err := NewGuardian(DefaultGuard(), 0.05, nil, nil).WrapTimed(s, s).Query(ctx, word); err != nil || !slices.Equal(out, adc) {
		t.Fatalf("out=%v err=%v, want %v", out, err, adc)
	}
	// The third expects the first-heard of a tie; from the fourth on, D
	// leads at the middle position.
	want := [][]string{{"P", "P", "P"}, abc, abc, adc}
	if len(s.expect) < len(want) {
		t.Fatalf("%d executions, want at least %d", len(s.expect), len(want))
	}
	for i, w := range want {
		if !slices.Equal(s.expect[i], w) {
			t.Fatalf("execution %d expected %v, want %v", i+1, s.expect[i], w)
		}
	}

	s = &expectScript{outs: [][]string{abc, nil, abc}}
	if _, err := NewGuardian(DefaultGuard(), 0, nil, nil).WrapTimed(s, s).Query(ctx, word); err != nil {
		t.Fatal(err)
	}
	if len(s.expect) != 3 || s.expect[1] == nil || s.expect[2] != nil {
		t.Fatalf("expectations %v: want one for the voided execution and none after it", s.expect)
	}

	s = &expectScript{outs: [][]string{abc}}
	if _, err := NewGuardian(DefaultGuard(), 0, nil, nil).Wrap(s).Query(ctx, word); err != nil {
		t.Fatal(err)
	}
	for i, e := range s.expect {
		if e != nil {
			t.Fatalf("execution %d on an SUL that is not Timed expected %v", i+1, e)
		}
	}
}
