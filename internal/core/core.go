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
	"slices"
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
// returned. An error voids the execution: Oracle returns it in place of
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
// produced conflicting outputs that never reached the certainty threshold.
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
	// MinVotes executions are always performed. If they all agree the
	// answer is accepted immediately.
	MinVotes int
	// MaxVotes bounds the retries after a disagreement.
	MaxVotes int
	// Certainty is the fraction of agreeing executions required to accept
	// a majority answer after a disagreement (e.g. 0.9).
	Certainty float64

	// Adaptive enables learning under adverse networks: the per-query vote
	// budget starts at MinVotes and escalates with the observed
	// disagreement rate (an EWMA over past queries), and disagreeing
	// executions are resolved by positional consensus — each output
	// position is accepted once enough executions that agree with the
	// already-accepted prefix also agree on it. No answer can reach a
	// whole-word Certainty threshold on a link whose per-datagram faults
	// corrupt a large fraction of executions, but per-position the clean
	// outcome stays strongly modal however long the word is. See
	// docs/IMPAIRMENT.md for the algorithm and its trade-offs.
	Adaptive bool
	// EWMAAlpha smooths the disagreement-rate estimate (adaptive mode
	// only; default 0.15). Larger values react faster to a link going bad
	// and recover faster on a clean streak.
	EWMAAlpha float64
	// ModeVotes and ModeLead parameterize the positional acceptance rule:
	// a position is accepted once its modal output holds at least
	// ModeVotes votes (default 7) and at least ModeLead times the
	// runner-up's count (default 3) among prefix-consistent executions.
	// Link noise gives the wrong outcomes at any one position only a
	// small probability each, so the true output builds this lead
	// quickly, while a genuine coin flip (e.g. a 50/50 RESET) never does.
	ModeVotes int
	ModeLead  int
	// PriorDisagreement seeds the EWMA before the first query. A run that
	// expects an impaired link starts pessimistic (0.5) so the earliest
	// queries — which seed the cache everything later builds on — are
	// already sampled generously; on a clean link the prior decays to
	// MinVotes-cheap behaviour within a couple dozen queries.
	PriorDisagreement float64
}

// DefaultGuard mirrors the paper's setup: cheap when the system is
// deterministic, insistent when it is not.
func DefaultGuard() GuardConfig {
	return GuardConfig{MinVotes: 2, MaxVotes: 20, Certainty: 0.9}
}

// DefaultAdaptiveGuard is the guard for learning through an impaired link:
// it starts as cheap as DefaultGuard and pays votes only where the link
// actually bites. MaxVotes is sized so that long words keep enough
// prefix-consistent executions to reach positional consensus at several
// percent datagram loss.
func DefaultAdaptiveGuard() GuardConfig {
	return GuardConfig{
		MinVotes: 2, MaxVotes: 160, Certainty: 0.9,
		Adaptive: true, EWMAAlpha: 0.15, ModeVotes: 7, ModeLead: 3,
		PriorDisagreement: 0.5,
	}
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
	// voided (learn.ErrLateResponse) and those another execution of the
	// same query showed to be cut short (see WrapTimed). A voided
	// execution is not a vote.
	Recasts int64
	// Predicted counts queries settled at the MinVotes floor because
	// their executions reproduced the hypothesis's prediction (adaptive
	// guard only; see learn.WithPrediction).
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
// shards, sharing one adaptive state (disagreement EWMA, stats) across all
// of them: a pooled experiment has one link quality, not one per worker.
// Wrap as many shard oracles as needed; all methods are safe for
// concurrent use.
type Guardian struct {
	cfg   GuardConfig
	stats *GuardStats
	obs   learn.Observer

	mu   sync.Mutex
	ewma float64 // observed disagreement rate across recent queries
}

// NewGuardian validates cfg (filling adaptive defaults) and returns a
// Guardian. stats may be nil (counters are then kept internally); obs may
// be nil (escalation events are then dropped).
func NewGuardian(cfg GuardConfig, stats *GuardStats, obs learn.Observer) *Guardian {
	if cfg.MinVotes < 1 {
		cfg.MinVotes = 1
	}
	if cfg.MaxVotes < cfg.MinVotes {
		cfg.MaxVotes = cfg.MinVotes
	}
	if cfg.Adaptive {
		if cfg.EWMAAlpha <= 0 || cfg.EWMAAlpha > 1 {
			cfg.EWMAAlpha = 0.15
		}
		if cfg.ModeVotes <= 0 {
			cfg.ModeVotes = 7
		}
		if cfg.ModeLead <= 0 {
			cfg.ModeLead = 3
		}
	}
	if stats == nil {
		stats = &GuardStats{}
	}
	ewma := 0.0
	if cfg.Adaptive {
		ewma = cfg.PriorDisagreement
	}
	return &Guardian{cfg: cfg, stats: stats, obs: obs, ewma: ewma}
}

// Disagreement returns the current EWMA of the per-query disagreement
// rate.
func (g *Guardian) Disagreement() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ewma
}

// StartBudget returns the vote budget a disagreeing query begins with:
// enough for positional consensus on a typical word (ModeVotes-scaled,
// growing with the disagreement rate), while queries the link hits harder
// — long words keep fewer prefix-consistent executions — escalate past it
// step by step toward MaxVotes, emitting a learn.GuardEscalated event at
// every raise. Non-adaptive guards always budget MaxVotes (the fixed
// retry bound of §5).
func (g *Guardian) StartBudget() int {
	if !g.cfg.Adaptive {
		return g.cfg.MaxVotes
	}
	budget := g.cfg.ModeVotes + int(g.Disagreement()*2*float64(g.cfg.ModeVotes)+0.5)
	if min := g.InitialVotes() + 2; budget < min {
		budget = min
	}
	if budget > g.cfg.MaxVotes {
		budget = g.cfg.MaxVotes
	}
	return budget
}

// InitialVotes returns how many executions the next query samples before a
// unanimous answer is accepted: MinVotes on a clean link, growing toward
// ModeVotes as the disagreement EWMA climbs. This is the other half of
// adaptivity — on a badly impaired link, two executions can agree by
// suffering the *same* fault (two lost copies of the same response look
// identical), so unanimity among MinVotes is only trustworthy when
// disagreements are rare.
func (g *Guardian) InitialVotes() int {
	if !g.cfg.Adaptive {
		return g.cfg.MinVotes
	}
	n := g.cfg.MinVotes
	if span := float64(g.cfg.ModeVotes - g.cfg.MinVotes); span > 0 {
		n += int(g.Disagreement()*span + 0.5)
		if n > g.cfg.ModeVotes {
			n = g.cfg.ModeVotes
		}
	}
	return n
}

// observe folds one finished query into the shared disagreement EWMA.
func (g *Guardian) observe(flaky bool) {
	x := 0.0
	if flaky {
		x = 1.0
	}
	g.mu.Lock()
	g.ewma += g.cfg.EWMAAlpha * (x - g.ewma)
	g.mu.Unlock()
}

// Wrap returns an oracle applying the guard to o. Each query is executed
// MinVotes times; unanimity is accepted immediately. On disagreement the
// fixed guard keeps re-executing up to MaxVotes and accepts a whole-word
// answer only at Certainty; the adaptive guard resolves the word by
// positional consensus within an escalating vote budget. Either way an
// unresolved query fails with a *NondeterminismError.
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
		b := &ballot{g: g, o: o, t: t, word: word}
		if g.cfg.Adaptive {
			return g.adaptiveQuery(ctx, b)
		}
		return g.fixedQuery(ctx, b)
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

	pred      []string // learn.Prediction of word, once predicted is set
	predicted bool
}

// prediction returns the outputs ctx's hypothesis predicts for the word
// (learn.Prediction), running it at most once per query.
func (b *ballot) prediction(ctx context.Context) []string {
	if !b.predicted {
		b.pred, b.predicted = learn.Prediction(ctx, b.word), true
	}
	return b.pred
}

// expected returns the outputs the next execution is expected to give:
// for the first the prediction, when there is one, and for a re-vote the
// output most standing executions heard at each position. A step the SUL
// ended on its expected output counts as short, so strike voids it where
// another execution heard more, and a datagram of its answer that
// arrives later voids its execution. Once an execution of the query is
// voided, its executions expect nothing, so a wrong expectation cannot
// void them again and again.
func (b *ballot) expected(ctx context.Context) []string {
	if b.recasts > 0 {
		return nil
	}
	switch len(b.execs) {
	case 0:
		return b.prediction(ctx)
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
// (learn.ErrLateResponse). It reports whether an earlier execution was
// struck on the way.
func (b *ballot) cast(ctx context.Context) (struck bool, err error) {
	for {
		if b.t != nil {
			b.t.Expect(b.expected(ctx))
		}
		out, err := b.o.Query(ctx, b.word)
		if err != nil {
			if !errors.Is(err, learn.ErrLateResponse) || b.recasts >= b.g.cfg.MaxVotes {
				return struck, fmt.Errorf("core: guard query %v after %d votes: %w", b.word, len(b.execs), err)
			}
			b.void()
		} else {
			b.g.stats.addVotes(1)
			b.execs = append(b.execs, out)
			if b.t == nil {
				return struck, nil
			}
			b.short = append(b.short, b.t.Short())
			newest, older := b.strike()
			struck = struck || older
			if !newest {
				return struck, nil
			}
		}
		if err := ctx.Err(); err != nil {
			return struck, err
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
// off and is cast again.
func (b *ballot) strike() (newest, older bool) {
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
				older = true
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
	return newest, older
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

// unanimous reports whether every standing execution agrees.
func (b *ballot) unanimous() bool {
	for _, e := range b.execs[1:] {
		if !slices.Equal(e, b.execs[0]) {
			return false
		}
	}
	return true
}

// fixedQuery is the paper's §5 check: whole-word majority at Certainty.
func (g *Guardian) fixedQuery(ctx context.Context, b *ballot) ([]string, error) {
	cfg := g.cfg
	accept := func(out []string) []string {
		g.stats.addWasted(int64(len(b.execs) - cfg.MinVotes))
		return out
	}
	for len(b.execs) < cfg.MinVotes {
		if _, err := b.cast(ctx); err != nil {
			return nil, err
		}
	}
	if b.unanimous() {
		g.observe(false)
		return accept(b.execs[0]), nil
	}
	g.stats.addRetried(1)
	g.observe(true)
	counts := make(map[string]int)
	for len(b.execs) < cfg.MaxVotes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := b.cast(ctx); err != nil {
			return nil, err
		}
		clear(counts)
		for _, e := range b.execs {
			counts[strings.Join(e, "\x1e")]++
		}
		votes := len(b.execs)
		for _, e := range b.execs {
			if n := counts[strings.Join(e, "\x1e")]; float64(n) >= cfg.Certainty*float64(votes) && votes >= cfg.MinVotes+2 {
				return accept(e), nil
			}
		}
	}
	g.stats.addWasted(int64(len(b.execs) - cfg.MinVotes))
	return nil, &NondeterminismError{Word: b.word, Observed: tally(b.execs), Votes: len(b.execs)}
}

// tally counts the distinct output words among execs.
func tally(execs [][]string) map[string]int {
	whole := make(map[string]int, len(execs))
	for _, e := range execs {
		whole[strings.Join(e, "\x1e")]++
	}
	return whole
}

// adaptiveQuery resolves a disagreeing query by positional consensus: the
// answer is built one output position at a time, and a position is
// accepted once its modal output holds ModeVotes votes with a ModeLead
// lead among the executions that agree with the already-accepted prefix.
// Per position the clean outcome stays strongly modal regardless of word
// length — the property whole-word majorities lose on long words, where
// the fully-clean execution can be a minority even though every
// alternative is rarer still. The vote budget starts from the
// disagreement EWMA and escalates (emitting learn.GuardEscalated) while
// the query stays unresolved.
//
// A query that carries the hypothesis's prediction (learn.WithPrediction)
// is accepted once MinVotes executions agree with each other and with it.
// Otherwise it takes the path above, where a position whose modal output
// is the predicted one, after an accepted prefix that is predicted too,
// needs only MinVotes votes (still with the ModeLead lead): a link fault
// must forge the predicted output in every vote it counts, while a wrong
// prediction keeps the full ModeVotes bar for the true output.
func (g *Guardian) adaptiveQuery(ctx context.Context, b *ballot) ([]string, error) {
	cfg := g.cfg
	word := b.word
	pred := b.prediction(ctx)
	if pred != nil {
		for len(b.execs) < cfg.MinVotes {
			if _, err := b.cast(ctx); err != nil {
				return nil, err
			}
		}
		if b.unanimous() && slices.Equal(b.execs[0], pred) {
			g.observe(false)
			g.stats.addPredicted(1)
			return b.execs[0], nil
		}
	}
	initial := g.InitialVotes()
	for len(b.execs) < initial {
		if _, err := b.cast(ctx); err != nil {
			return nil, err
		}
	}
	if b.unanimous() {
		g.observe(false)
		g.stats.addWasted(int64(len(b.execs) - cfg.MinVotes))
		return b.execs[0], nil
	}
	g.stats.addRetried(1)
	g.observe(true)
	budget := g.StartBudget()
	accepted := make([]string, 0, len(word))
	// vouched: the accepted prefix is the predicted one.
	vouched := pred != nil
	// alive[j]: execs[j] agrees with every accepted position so far, and
	// therefore gets a vote on the next one.
	alive := make([]bool, len(b.execs))
	refresh := func() {
		alive = alive[:0]
		for _, e := range b.execs {
			alive = append(alive, slices.Equal(e[:len(accepted)], accepted))
		}
	}
	refresh()
	for pos := range word {
		for {
			counts := make(map[string]int)
			for j, e := range b.execs {
				if alive[j] {
					counts[e[pos]]++
				}
			}
			mode, haveMode, runner := "", false, 0
			for out, n := range counts {
				if !haveMode || n > counts[mode] {
					if haveMode && counts[mode] > runner {
						runner = counts[mode]
					}
					mode, haveMode = out, true
					continue
				}
				if n > runner {
					runner = n
				}
			}
			need := cfg.ModeVotes
			if vouched && mode == pred[pos] {
				need = cfg.MinVotes
			}
			if counts[mode] >= need && counts[mode] >= cfg.ModeLead*runner {
				accepted = append(accepted, mode)
				vouched = vouched && mode == pred[pos]
				for j, e := range b.execs {
					alive[j] = alive[j] && e[pos] == mode
				}
				break
			}
			votes := len(b.execs)
			if votes >= budget {
				if budget >= cfg.MaxVotes {
					g.stats.addWasted(int64(votes - cfg.MinVotes))
					return nil, &NondeterminismError{Word: word, Observed: tally(b.execs), Votes: votes}
				}
				// Escalate: double the budget (at least 4 more votes) up to
				// the hard ceiling, and tell observers the link is biting.
				budget *= 2
				if budget < votes+4 {
					budget = votes + 4
				}
				if budget > cfg.MaxVotes {
					budget = cfg.MaxVotes
				}
				g.stats.addEscalations(1)
				if g.obs != nil {
					g.obs.OnEvent(learn.GuardEscalated{
						Word: word, Votes: votes, Budget: budget, EWMA: g.Disagreement(),
					})
				}
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			struck, err := b.cast(ctx)
			if err != nil {
				return nil, err
			}
			if struck {
				refresh()
				continue
			}
			// The fresh execution votes only where it agrees with the
			// consensus built so far.
			alive = append(alive, slices.Equal(b.execs[len(b.execs)-1][:pos], accepted[:pos]))
		}
	}
	g.stats.addWasted(int64(len(b.execs) - cfg.MinVotes))
	return accepted, nil
}

// Guard wraps a single oracle with the nondeterminism check — the one-shot
// form of NewGuardian(cfg, nil, nil).Wrap(o) for callers that need no
// shared stats or escalation events.
func Guard(o learn.Oracle, cfg GuardConfig) learn.Oracle {
	return NewGuardian(cfg, nil, nil).Wrap(o)
}
