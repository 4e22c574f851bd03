package analysis

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/automata"
	"repro/internal/learn"
)

// TestSuite is a set of input words derived from a learned model, used for
// model-based testing (§5: "improving testing via model-based test
// generation"). Each word carries the model's expected outputs.
type TestSuite struct {
	Words    [][]string
	Expected [][]string
}

// Len returns the number of test cases.
func (s *TestSuite) Len() int { return len(s.Words) }

// WMethodSuite returns Chow's W-method test suite with the given extra
// depth: the distinct words of learn.ConformanceSuite of kind SuiteW that
// m defines, each with m's expected outputs. That is state cover ·
// Σ^≤depth · W, or Chow's P · Σ^≤(depth−1) · W with P the transition
// cover: it subsumes transition coverage and detects any fault that does
// not add more than depth−1 extra states.
func WMethodSuite(m *automata.Mealy, depth int) *TestSuite {
	s := &TestSuite{}
	seen := map[string]bool{}
	for _, word := range learn.ConformanceSuite(m, m.Inputs(), depth, learn.SuiteW) {
		key := strings.Join(word, "\x1f")
		if seen[key] {
			continue
		}
		seen[key] = true
		if exp, ok := m.Run(word); ok {
			s.Words = append(s.Words, word)
			s.Expected = append(s.Expected, exp)
		}
	}
	return s
}

// Failure is one test-case failure against a live system.
type Failure struct {
	Word     []string
	Expected []string
	Actual   []string
}

// String renders the failure.
func (f Failure) String() string {
	return fmt.Sprintf("word %v:\n  expected %v\n  actual   %v", f.Word, f.Expected, f.Actual)
}

// RunSuite executes the suite against a live oracle and collects failures —
// the model-based testing loop the paper uses to confirm model-level bugs
// in the implementation (§2: Prognosis creates concrete traces to check
// whether the bug is real or a false positive to refine the model with).
// Cancelling ctx aborts the run with the failures collected so far.
func RunSuite(ctx context.Context, s *TestSuite, o learn.Oracle, maxFailures int) ([]Failure, error) {
	var fails []Failure
	for i, word := range s.Words {
		if err := ctx.Err(); err != nil {
			return fails, err
		}
		got, err := o.Query(ctx, word)
		if err != nil {
			return fails, err
		}
		match := len(got) >= len(s.Expected[i])
		if match {
			for j := range s.Expected[i] {
				if got[j] != s.Expected[i][j] {
					match = false
					break
				}
			}
		}
		if !match {
			fails = append(fails, Failure{Word: word, Expected: s.Expected[i], Actual: got})
			if maxFailures > 0 && len(fails) >= maxFailures {
				return fails, nil
			}
		}
	}
	return fails, nil
}
