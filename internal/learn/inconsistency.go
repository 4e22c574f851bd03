package learn

import (
	"fmt"
	"strings"
)

// InconsistencyError reports that counterexample analysis observed answers
// that no single deterministic machine could have produced. Against a
// deterministic target behind a voting guard, the overwhelmingly likely
// cause is a wrongly accepted — and therefore cached — answer: the guard
// makes per-query mistakes extremely rare, but a cache makes any mistake
// permanent. Words lists the queries involved in the contradiction (the
// counterexample included), so CachedOracle.LearnRepairing can re-vote
// exactly those, overwrite the poisoned entries, and restart the learner
// instead of failing the run.
type InconsistencyError struct {
	CE     []string
	Words  [][]string
	Reason string
}

// Error implements error.
func (e *InconsistencyError) Error() string {
	return fmt.Sprintf("learn: inconsistent observations on counterexample [%s]: %s",
		strings.Join(e.CE, " "), e.Reason)
}
