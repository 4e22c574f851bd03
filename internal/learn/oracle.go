// Package learn implements active automata learning in the Minimally
// Adequate Teacher framework: membership/equivalence oracles, a prefix-tree
// query cache, the classic L* observation-table learner, a discrimination-
// tree learner with Rivest–Schapire counterexample analysis (the TTT-style
// algorithm the paper uses via LearnLib), and heuristic equivalence oracles
// (random words and the Wp-method).
//
// The whole query plane is context-first: every membership query and every
// equivalence search takes a context.Context, and cancelling it aborts the
// run mid-round — pool workers, in-flight cache waiters, and partitioned
// equivalence searches all observe the same cancellation signal and exit
// without leaking goroutines.
package learn

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/automata"
)

// Oracle answers membership queries: given an input word it returns the
// output word the system under learning produces from its reset state.
// Implementations must reset the system before each query and should return
// promptly (with ctx.Err()) once ctx is cancelled.
type Oracle interface {
	Query(ctx context.Context, word []string) ([]string, error)
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(ctx context.Context, word []string) ([]string, error)

// Query implements Oracle.
func (f OracleFunc) Query(ctx context.Context, word []string) ([]string, error) {
	return f(ctx, word)
}

// predictionKey is the context key of a query's predicted outputs.
type predictionKey struct{}

// WithPrediction returns a context whose queries carry the outputs hyp
// predicts for them. The equivalence oracles query their words under one
// (findFirstCE); the cache and the pool pass it through unchanged, and
// the §5 voting guard takes the prediction as prior odds for the outputs
// it predicts. Learner queries carry none.
func WithPrediction(ctx context.Context, hyp *automata.Mealy) context.Context {
	return context.WithValue(ctx, predictionKey{}, hyp)
}

// Prediction returns the outputs that the hypothesis ctx carries predicts
// for word: nil when ctx carries none or it is undefined on word. Only a
// query that reaches the guard pays for the run.
func Prediction(ctx context.Context, word []string) []string {
	hyp, _ := ctx.Value(predictionKey{}).(*automata.Mealy)
	if hyp == nil {
		return nil
	}
	out, ok := hyp.Run(word)
	if !ok {
		return nil
	}
	return out
}

// EquivalenceOracle searches for an input word on which the hypothesis and
// the system under learning disagree. A nil counterexample with nil error
// means no disagreement was found (the heuristic guarantee of §4.1: absence
// of a counterexample does not prove equivalence). Cancelling ctx aborts
// the search with ctx.Err().
type EquivalenceOracle interface {
	FindCounterexample(ctx context.Context, hyp *automata.Mealy) ([]string, error)
}

// ErrIncompleteOutput is returned when an oracle produces fewer output
// symbols than input symbols, which violates the Mealy query contract.
var ErrIncompleteOutput = errors.New("learn: oracle returned short output word")

// ErrVoided marks an execution that was no complete observation: an SUL
// fails it with an error wrapping ErrVoided, and the voting guard casts
// the execution again rather than count it as a vote.
var ErrVoided = errors.New("learn: execution voided")

// ErrLateResponse voids one execution: a response datagram reached it
// after the wait for it had closed.
var ErrLateResponse = fmt.Errorf("%w by a late response", ErrVoided)

// Stats counts oracle traffic. All fields are safe for concurrent update.
type Stats struct {
	Queries int64 // membership queries issued to the underlying oracle
	Symbols int64 // total input symbols across those queries
	Hits    int64 // queries answered from cache without touching the oracle
}

// Counting wraps an oracle and counts queries and symbols in st (and in
// the process-wide metrics plane).
func Counting(o Oracle, st *Stats) Oracle {
	return OracleFunc(func(ctx context.Context, word []string) ([]string, error) {
		atomic.AddInt64(&st.Queries, 1)
		atomic.AddInt64(&st.Symbols, int64(len(word)))
		metricQueries.Inc()
		metricSymbols.Add(int64(len(word)))
		return o.Query(ctx, word)
	})
}

// MealyOracle returns an oracle backed by a Mealy machine, used to test
// learners without a live protocol endpoint and by the analysis module for
// model-based test generation. Querying a word with an undefined transition
// returns an error.
func MealyOracle(m *automata.Mealy) Oracle {
	return OracleFunc(func(ctx context.Context, word []string) ([]string, error) {
		out, ok := m.Run(word)
		if !ok {
			return nil, fmt.Errorf("learn: model has no run for %v", word)
		}
		return out, nil
	})
}

// query is a helper that checks for cancellation and enforces the
// output-length contract.
func query(ctx context.Context, o Oracle, word []string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out, err := o.Query(ctx, word)
	if err != nil {
		return nil, err
	}
	return conform(word, out)
}

// conform checks the Mealy output-length contract for one answer: at least
// one output symbol per input symbol, truncated to exactly one per input.
func conform(word, out []string) ([]string, error) {
	if len(out) < len(word) {
		return nil, fmt.Errorf("%w: %d inputs, %d outputs", ErrIncompleteOutput, len(word), len(out))
	}
	return out[:len(word)], nil
}
