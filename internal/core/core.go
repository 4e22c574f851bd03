// Package core is the boundary between Prognosis (§2) and a System Under
// Learning: the SUL interface a protocol implementation is reached
// through (behind an instrumented reference-implementation adapter),
// Oracle, which turns an SUL into the learning module's membership
// oracle, and the §5 voting guard against nondeterminism (Guardian).
// lab.Experiment assembles these pieces, with the learn package's pool,
// cache and equivalence oracles, into one oracle chain per experiment.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/learn"
)

// SUL is the System Under Learning: a protocol implementation reachable
// through an Adapter that talks abstract symbols. Step sends one abstract
// input and returns the abstract output; Reset returns both the adapter
// and the implementation to their initial states (Adapter property 3).
type SUL interface {
	Reset() error
	Step(input string) (output string, err error)
}

// Finisher is an SUL that can judge an execution once its last step has
// returned. An error fails the execution: Oracle returns it in place of
// the outputs. A UDP replica voids an execution that a late response
// datagram reached (learn.ErrLateResponse).
type Finisher interface {
	Finish() error
}

// Finish ends an execution on s: it calls s.Finish when s is a Finisher
// and returns nil otherwise. SUL wrappers forward through it.
func Finish(s SUL) error {
	if f, ok := s.(Finisher); ok {
		return f.Finish()
	}
	return nil
}

// Oracle adapts an SUL to the learning module's membership-query interface:
// each query resets the system and replays the word symbol by symbol,
// checking for cancellation between symbols so that aborting a run never
// waits for a long word to finish. An execution ends with Finish, so an
// SUL that voids it fails the query.
func Oracle(s SUL) learn.Oracle {
	return learn.OracleFunc(func(ctx context.Context, word []string) ([]string, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.Reset(); err != nil {
			return nil, fmt.Errorf("core: reset: %w", err)
		}
		out := make([]string, 0, len(word))
		for _, in := range word {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			o, err := s.Step(in)
			if err != nil {
				return nil, fmt.Errorf("core: step %q: %w", in, err)
			}
			out = append(out, o)
		}
		if err := Finish(s); err != nil {
			return nil, fmt.Errorf("core: finish: %w", err)
		}
		return out, nil
	})
}

// NondeterminismError reports that repeated executions of the same query
// produced conflicting outputs that the guard's test found nondeterministic,
// or that MaxVotes executions left unsettled.
// Per §5 this is itself a powerful analysis: Issue 2 (the mvfst stateless
// RESET bug) was discovered exactly this way.
type NondeterminismError struct {
	Word     []string
	Observed map[string]int // distinct output words -> occurrence count
	Votes    int
}

// Error implements error.
func (e *NondeterminismError) Error() string {
	var alts []string
	for out, n := range e.Observed {
		alts = append(alts, fmt.Sprintf("%q x%d", out, n))
	}
	sort.Strings(alts)
	return fmt.Sprintf("core: nondeterministic response to %v after %d votes: %s",
		e.Word, e.Votes, strings.Join(alts, ", "))
}

// IsNondeterminism reports whether err wraps a NondeterminismError and
// returns it.
func IsNondeterminism(err error) (*NondeterminismError, bool) {
	var nd *NondeterminismError
	if errors.As(err, &nd) {
		return nd, true
	}
	return nil, false
}

// GuardConfig tunes the nondeterminism check of §5.
type GuardConfig struct {
	// MinVotes executions are always performed.
	MinVotes int
	// MaxVotes bounds the executions of one query, and separately the
	// executions of one query voided and cast again.
	MaxVotes int
}

// The guard's error targets, per output position: alpha is the chance
// that it accepts an output the target did not give (one that link faults
// forged), beta the chance that it calls a deterministic target
// nondeterministic.
const (
	alpha = 1e-3
	beta  = 1e-4
)

// DefaultGuard mirrors the paper's setup: cheap when the system is
// deterministic, insistent when it is not. MaxVotes is sized so that long
// words keep enough prefix-consistent executions to be settled at several
// percent datagram loss.
func DefaultGuard() GuardConfig {
	return GuardConfig{MinVotes: 2, MaxVotes: 160}
}

// GuardStats are cumulative voting-cost counters, updated atomically by
// every oracle a Guardian wraps. Read them with Snapshot.
type GuardStats struct {
	// Votes counts every SUL execution the guard performed.
	Votes int64
	// Escalations counts vote-budget raises (each also emitted as a
	// learn.GuardEscalated event).
	Escalations int64
	// RetriedQueries counts queries that saw at least one disagreement.
	RetriedQueries int64
	// WastedVotes counts votes beyond the MinVotes floor — the price of
	// the link's flakiness (a clean link wastes none).
	WastedVotes int64
	// Recasts counts executions voided and cast again: those the SUL
	// voided (learn.ErrVoided: a late response, an adapter crash) and
	// those another execution of the same query showed to be cut short
	// (see WrapTimed). A voided execution is not a vote.
	Recasts int64
	// Predicted counts queries settled at the MinVotes floor only because
	// their executions reproduced the hypothesis's prediction (see
	// learn.WithPrediction).
	Predicted int64
}

// Snapshot returns a consistent copy safe to read while queries are in
// flight.
func (s *GuardStats) Snapshot() GuardStats {
	return GuardStats{
		Votes:          atomic.LoadInt64(&s.Votes),
		Escalations:    atomic.LoadInt64(&s.Escalations),
		RetriedQueries: atomic.LoadInt64(&s.RetriedQueries),
		WastedVotes:    atomic.LoadInt64(&s.WastedVotes),
		Recasts:        atomic.LoadInt64(&s.Recasts),
		Predicted:      atomic.LoadInt64(&s.Predicted),
	}
}

// Guardian applies the §5 nondeterminism check to any number of oracle
// shards, sharing one measure of the link (its fault rate, and how often
// predictions hold) across all of them: a pooled experiment has one link
// quality, not one per worker. Wrap as many shard oracles as needed; all
// methods are safe for concurrent use.
type Guardian struct {
	cfg   GuardConfig
	floor float64 // the fault rate the link is known to have
	stats *GuardStats
	obs   learn.Observer

	mu sync.Mutex
	// Over the decided queries: the output positions voted on, those of
	// them that missed the answer, and the predicted positions the answer
	// confirmed and refuted.
	trials, faults, hits, misses int
}

// NewGuardian validates cfg and returns a Guardian for a link known to
// corrupt a share floor of its request-response exchanges (0 for a clean
// link; see netem.Config.FaultRate). stats may be nil (counters are then
// kept internally); obs may be nil (escalation events are then dropped).
func NewGuardian(cfg GuardConfig, floor float64, stats *GuardStats, obs learn.Observer) *Guardian {
	if cfg.MinVotes < 1 {
		cfg.MinVotes = 1
	}
	if cfg.MaxVotes < cfg.MinVotes {
		cfg.MaxVotes = cfg.MinVotes
	}
	if stats == nil {
		stats = &GuardStats{}
	}
	return &Guardian{cfg: cfg, floor: floor, stats: stats, obs: obs}
}

// FaultRate returns the fault rate the guard tests against: the share of
// the output positions voted on in decided queries that missed their
// query's answer, and never less than the link's known floor. A clean link
// measures 0 until its first fault.
func (g *Guardian) FaultRate() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.faultRate()
}

func (g *Guardian) faultRate() float64 {
	if g.trials == 0 {
		return g.floor
	}
	return max(g.floor, float64(g.faults)/float64(g.trials))
}

// Wrap returns an oracle applying the guard to o: each query is executed
// at least MinVotes times and settled by a sequential test (see sprt)
// within a vote budget that starts where the test expects to settle and
// escalates, emitting learn.GuardEscalated, up to MaxVotes. A query the
// test finds nondeterministic, or that MaxVotes leaves unsettled, fails
// with a *NondeterminismError.
//
// The vote tally is derived from the observed executions, so a vote that
// errors mid-retry can never leave the tally inconsistent: failed
// executions simply are not votes, and a voided one is cast again (see
// ballot). Underlying query errors are wrapped with the query word (and
// errors.Is/As still see through the wrapping), so a failure deep in a
// retry loop stays diagnosable.
func (g *Guardian) Wrap(o learn.Oracle) learn.Oracle { return g.WrapTimed(o, nil) }

// WrapTimed is Wrap for a shard whose SUL t is Timed (nil for none): an
// execution that another execution of the same query shows to have been
// cut short is voided too (see ballot.strike).
func (g *Guardian) WrapTimed(o learn.Oracle, t Timed) learn.Oracle {
	return learn.OracleFunc(func(ctx context.Context, word []string) ([]string, error) {
		return g.query(ctx, &ballot{g: g, o: o, t: t, word: word, pred: learn.Prediction(ctx, word)})
	})
}

// Timed is an SUL whose outputs rest on waits that can close too early,
// such as a replica reached over UDP.
type Timed interface {
	// Short reports, for the execution that finished last, which steps
	// ended on a wait short of its ceiling. What such a step heard is the
	// target's whole answer, or an answer the wait cut short.
	Short() []bool
	// Truncates reports whether output a is output b with its last
	// datagrams missing; silence truncates any answer.
	Truncates(a, b string) bool
	// Backoff lengthens the waits after one was shown to close too early.
	Backoff()
	// Expect hands the next execution, the one the next reset starts, the
	// outputs it is expected to give, nil for none (see ballot.expected).
	// The SUL may end a step as soon as it heard the expected output,
	// instead of waiting out its waits; a step so ended counts as short.
	// The expectation never becomes an output.
	Expect(want []string)
}

// ballot holds one query's standing executions. A voided execution is no
// vote and no failure: the guard casts it again, at most MaxVotes times
// per query, counting each in GuardStats.Recasts.
type ballot struct {
	g       *Guardian
	o       learn.Oracle
	t       Timed
	word    []string
	execs   [][]string
	short   [][]bool // per execution, from t.Short
	recasts int
	pred    []string // learn.Prediction of word, nil for none
}

// expected returns the outputs the next execution is expected to give:
// for the first the prediction, when there is one, and for a re-vote the
// output most standing executions heard at each position. A step the SUL
// ended on its expected output counts as short, so strike voids it where
// another execution heard more, and a datagram of its answer that
// arrives later voids its execution. Once an execution of the query is
// voided, its executions expect nothing, so a wrong expectation cannot
// void them again and again.
func (b *ballot) expected() []string {
	if b.recasts > 0 {
		return nil
	}
	switch len(b.execs) {
	case 0:
		return b.pred
	case 1:
		return b.execs[0]
	default:
		want := make([]string, len(b.word))
		counts := make(map[string]int)
		for p := range want {
			clear(counts)
			best := 0
			for _, e := range b.execs {
				if counts[e[p]]++; counts[e[p]] > best {
					best, want[p] = counts[e[p]], e[p]
				}
			}
		}
		return want
	}
}

// cast runs executions until one stands, re-casting those the SUL voids
// (learn.ErrVoided) or strike finds cut short.
func (b *ballot) cast(ctx context.Context) error {
	for {
		if b.t != nil {
			b.t.Expect(b.expected())
		}
		out, err := b.o.Query(ctx, b.word)
		if err != nil {
			if !errors.Is(err, learn.ErrVoided) || b.recasts >= b.g.cfg.MaxVotes {
				return fmt.Errorf("core: guard query %v after %d votes: %w", b.word, len(b.execs), err)
			}
			b.void()
		} else {
			b.g.stats.addVotes(1)
			b.execs = append(b.execs, out)
			if b.t == nil {
				return nil
			}
			b.short = append(b.short, b.t.Short())
			if !b.strike() {
				return nil
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

func (b *ballot) void() {
	b.recasts++
	b.g.stats.addRecasts(1)
}

// strike compares the newest execution with every standing one. Where
// two differ first, one that heard only the start of what the other heard
// (nothing at all, or a burst without its last datagrams), on a wait short
// of its ceiling, is void: its wait closed too early, as if a late
// datagram had reached it. Each struck execution backs the shard's waits
// off and is cast again. strike reports whether the newest was struck.
func (b *ballot) strike() (newest bool) {
	last := len(b.execs) - 1
	keep := 0
	for i := 0; i < last; i++ {
		if b.recasts < b.g.cfg.MaxVotes {
			if !newest && b.premature(last, i) {
				newest = true
				b.void()
				b.t.Backoff()
			}
			if b.premature(i, last) {
				b.void()
				b.t.Backoff()
				continue
			}
		}
		b.execs[keep], b.short[keep] = b.execs[i], b.short[i]
		keep++
	}
	if !newest {
		b.execs[keep], b.short[keep] = b.execs[last], b.short[last]
		keep++
	}
	b.execs, b.short = b.execs[:keep], b.short[:keep]
	return newest
}

// premature reports whether, at the first step where executions i and j
// differ, i heard on a wait short of its ceiling the start of what j
// heard.
func (b *ballot) premature(i, j int) bool {
	a, c := b.execs[i], b.execs[j]
	for p := range min(len(a), len(c)) {
		if a[p] != c[p] {
			return p < len(b.short[i]) && b.short[i][p] && b.t.Truncates(a[p], c[p])
		}
	}
	return false
}

// sprt is one query's sequential probability ratio test (Wald,
// "Sequential Tests of Statistical Hypotheses", 1945), set up from the
// link as the query began. At each output position it weighs the votes of
// the executions that agree with the answer's earlier positions, the mode
// against the runner-up:
//
//   - Under a deterministic target, an output other than the true one is a
//     link fault. The test weighs it as a fault at the link's measured fault
//     rate eps, or at the share it holds against the mode, whichever is
//     larger, so an output that keeps recurring is not discounted at the
//     link's mean rate. Each vote more for the mode than for an output then
//     multiplies the mode's odds over it by (1-e)/e, and the mode is
//     accepted once its odds over the runner-up reach 1/α.
//   - The position is nondeterministic once the odds that the runner-up
//     holds a share of unknown size (a uniform mixture) over the runner-up
//     being a fault at rate eps reach 1/β.
//   - A prediction the answer follows so far enters as prior odds for its
//     output, but only where the mode already holds at least three times
//     the runner-up's votes. A prediction says what a deterministic target
//     answers; it is no evidence that the target is deterministic, so it
//     never breaks a tie nor carries a close split such as a coin's.
//
// The odds are likelihood ratios, martingales under the hypothesis they
// test against, so neither bound depends on how long the query votes. On a
// clean link (eps 0) any unanimous MinVotes executions are accepted and
// any disagreement is nondeterministic.
type sprt struct {
	eps   float64
	prior float64 // log odds that a prediction followed so far holds
}

// The test's thresholds, as log odds.
var accept, halt = -math.Log(alpha), -math.Log(beta)

// test sets up the next query's test.
func (g *Guardian) test() sprt {
	g.mu.Lock()
	defer g.mu.Unlock()
	return sprt{eps: g.faultRate(), prior: math.Log(float64(g.hits+1) / float64(g.misses+1))}
}

// odds returns the log odds that k votes for one output and c <= k for
// another give the first.
func (s *sprt) odds(k, c int) float64 {
	if k == c {
		return 0
	}
	e := max(s.eps, float64(c)/float64(k+c))
	return float64(k-c) * math.Log((1-e)/e)
}

// coin reports whether r votes for the runner-up against k for the mode
// make the position nondeterministic, where o more votes went to other
// outputs.
func (s *sprt) coin(k, r, o int) bool {
	if r == 0 {
		return false
	}
	eps := max(s.eps, float64(o)/float64(k+r+o))
	if eps == 0 {
		return true
	}
	a, _ := math.Lgamma(float64(r + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(k + r + 2))
	return a+b-c-float64(r)*math.Log(eps)-float64(k)*math.Log1p(-eps) >= halt
}

// votes returns how many unanimous executions settle a query without a
// prediction, never fewer than floor.
func (s *sprt) votes(floor int) int {
	return max(floor, int(math.Ceil(accept/math.Log((1-s.eps)/s.eps))))
}

// verdict is the outcome of one sprt.judge.
type verdict int

const (
	undecided verdict = iota
	accepted
	nondeterministic
)

// judge runs the test over the standing executions of a word of n inputs
// predicted as pred (nil for no prediction), position by position. It
// returns the answer once every position is accepted, and whether an
// acceptance leaned on the prediction. Every position is judged again at
// every vote, so an output that a burst of early faults made modal is
// given up once the true output leads.
func (s *sprt) judge(n int, execs [][]string, pred []string) (answer []string, v verdict, leaned bool) {
	alive := make([]bool, len(execs))
	for j := range alive {
		alive[j] = true
	}
	counts := make(map[string]int)
	answer = make([]string, 0, n)
	vouched := pred != nil
	for p := range n {
		clear(counts)
		votes := 0
		for j, e := range execs {
			if alive[j] {
				counts[e[p]]++
				votes++
			}
		}
		// The modal output, in execution order (the predicted output
		// breaks a tie), and the runner-up's count.
		mode, k, r := "", 0, 0
		for j, e := range execs {
			if !alive[j] || k > 0 && e[p] == mode {
				continue
			}
			switch c := counts[e[p]]; {
			case c > k || c == k && vouched && e[p] == pred[p]:
				mode, k, r = e[p], c, max(r, k)
			case c > r:
				r = c
			}
		}
		if s.coin(k, r, votes-k-r) {
			return nil, nondeterministic, false
		}
		odds := s.odds(k, r)
		switch {
		case !vouched:
		case mode != pred[p]:
			odds = min(odds, s.odds(k, counts[pred[p]])-s.prior)
			vouched = false
		case k >= 3*r:
			leaned = leaned || odds < accept
			odds += s.prior
		}
		if odds < accept {
			return nil, undecided, false
		}
		answer = append(answer, mode)
		for j, e := range execs {
			alive[j] = alive[j] && e[p] == mode
		}
	}
	return answer, accepted, leaned
}

// query settles one query: it casts MinVotes executions, then one at a
// time until the test decides or MaxVotes is reached.
func (g *Guardian) query(ctx context.Context, b *ballot) ([]string, error) {
	cfg := g.cfg
	s := g.test()
	budget := 2 * s.votes(cfg.MinVotes)
	for {
		if votes := len(b.execs); votes >= cfg.MinVotes {
			answer, v, leaned := s.judge(len(b.word), b.execs, b.pred)
			if v == accepted {
				g.settle(b, answer, leaned)
				return answer, nil
			}
			if v == nondeterministic || votes >= cfg.MaxVotes {
				g.stats.addRetried(1)
				g.stats.addWasted(int64(votes - cfg.MinVotes))
				return nil, &NondeterminismError{Word: b.word, Observed: tally(b.execs), Votes: votes}
			}
			if votes >= budget {
				// Escalate: double the budget up to the hard ceiling, and
				// tell observers the link is biting.
				budget = min(2*budget, cfg.MaxVotes)
				g.stats.addEscalations(1)
				if g.obs != nil {
					g.obs.OnEvent(learn.GuardEscalated{Word: b.word, Votes: votes, Budget: budget, FaultRate: s.eps})
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := b.cast(ctx); err != nil {
			return nil, err
		}
	}
}

// settle books an accepted query: its cost, and what its executions
// measured of the link: how many of the positions they voted on missed
// the answer, and how far the prediction held.
func (g *Guardian) settle(b *ballot, answer []string, leaned bool) {
	votes := len(b.execs)
	g.stats.addWasted(int64(votes - g.cfg.MinVotes))
	if leaned && votes == g.cfg.MinVotes {
		g.stats.addPredicted(1)
	}
	trials, faults := 0, 0
	for _, e := range b.execs {
		for p, out := range e {
			trials++
			if out != answer[p] {
				faults++
				break
			}
		}
	}
	if faults > 0 {
		g.stats.addRetried(1)
	}
	hits, misses := 0, 0
	for p := range b.pred {
		if b.pred[p] != answer[p] {
			misses++
			break
		}
		hits++
	}
	g.mu.Lock()
	g.trials += trials
	g.faults += faults
	g.hits += hits
	g.misses += misses
	g.mu.Unlock()
}

// tally counts the distinct output words among execs.
func tally(execs [][]string) map[string]int {
	whole := make(map[string]int, len(execs))
	for _, e := range execs {
		whole[strings.Join(e, "\x1e")]++
	}
	return whole
}
