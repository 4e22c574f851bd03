package analysis

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/learn"
)

// replay executes word once against a live oracle — the on-the-wire
// confirmation step of the paper's workflow: a model-level finding (a
// diff witness, a property violation) is replayed against the
// implementation to check it is real. A live oracle that re-executes
// words, such as lab.Experiment.Oracle behind its §5 guard, settles
// what the replay answers.
func replay(ctx context.Context, o learn.Oracle, word []string) ([]string, error) {
	out, err := o.Query(ctx, word)
	if err != nil {
		return nil, fmt.Errorf("analysis: replay %v: %w", word, err)
	}
	if len(out) < len(word) {
		return nil, fmt.Errorf("analysis: replay %v: short output (%d of %d)", word, len(out), len(word))
	}
	return out[:len(word)], nil
}

// ReplayedWitness is the outcome of confirming one diff witness against
// two live targets.
type ReplayedWitness struct {
	Witness DiffWitness
	LiveA   []string
	LiveB   []string
	// Diverged reports whether the live targets produced different outputs
	// on the witness word — the model-level divergence reproduced on the
	// wire.
	Diverged bool
	// At is the first diverging position (-1 when the live runs agree).
	At int
	// MatchesModels reports whether each live run also agreed with its own
	// model's prediction.
	MatchesModels bool
}

// ConfirmWitness replays a diff witness once against each live target and
// reports whether the divergence the models predict shows up on the wire.
// A replay error, such as the *core.NondeterminismError of a guarded
// oracle whose executions disagree, is returned as is.
func ConfirmWitness(ctx context.Context, w DiffWitness, oracleA, oracleB learn.Oracle) (*ReplayedWitness, error) {
	liveA, err := replay(ctx, oracleA, w.Word)
	if err != nil {
		return nil, err
	}
	liveB, err := replay(ctx, oracleB, w.Word)
	if err != nil {
		return nil, err
	}
	at := firstDivergence(liveA, liveB)
	return &ReplayedWitness{
		Witness: w, LiveA: liveA, LiveB: liveB,
		Diverged: at >= 0, At: at,
		MatchesModels: join(liveA) == join(w.OutputsA) && join(liveB) == join(w.OutputsB),
	}, nil
}

func join(w []string) string { return strings.Join(w, "\x1e") }
