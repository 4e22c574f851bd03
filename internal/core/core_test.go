package core

import (
	"context"
	"errors"
	"fmt"
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

type fakeSUL struct {
	reset func() error
	step  func(string) (string, error)
}

func (f *fakeSUL) Reset() error                   { return f.reset() }
func (f *fakeSUL) Step(in string) (string, error) { return f.step(in) }
