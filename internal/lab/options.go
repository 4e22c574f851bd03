package lab

import (
	"time"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/netem"
	"repro/internal/reference"
)

// LinkMiddleware decorates one replica's client transport before the
// reference client attaches — fault injectors, tracers, rate limiters.
// worker is the replica index; middlewares run in registration order,
// innermost first.
type LinkMiddleware func(worker int, tr reference.Transport) reference.Transport

// config is the resolved option set of one experiment.
type config struct {
	seed         int64
	learner      LearnerKind
	workers      int
	rtt          time.Duration
	transport    TransportKind
	perfect      bool
	conformance  int
	warmup       int
	disableCache bool
	storeDir     string
	guard        core.GuardConfig
	guardSet     bool
	impair       netem.Config
	middleware   []LinkMiddleware
	equivalence  learn.EquivalenceOracle
	observer     learn.Observer
	window       *learn.WindowConfig
	adapterCmd   string
}

func defaultConfig() config {
	return config{workers: 1, transport: TransportInMemory}
}

// Option is one declarative experiment setting, applied by NewExperiment.
type Option func(*config)

// WithSeed fixes the seed for all pseudo-randomness in the run (SUL
// construction and the heuristic equivalence search).
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// LearnerKind selects the learning algorithm.
type LearnerKind string

// Available learners.
const (
	LearnerLStar LearnerKind = "lstar"
	LearnerTTT   LearnerKind = "ttt" // discrimination-tree learner
)

// WithLearner selects the learning algorithm (LearnerTTT by default).
func WithLearner(kind LearnerKind) Option {
	return func(c *config) { c.learner = kind }
}

// WithWorkers runs the concurrent query engine: membership queries fan out
// across n independent replicas of the target (each with its own reset
// state), and the equivalence search is partitioned across the same number
// of goroutines.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithRTT emulates a remote target by adding one network round-trip of
// this duration to every reset and every symbol exchange, which is how the
// paper's deployment behaves (implementations live in containers behind
// real sockets). Query latency — not CPU — then dominates learning time,
// and the sharded pool hides it by keeping WithWorkers queries in flight.
// The round-trip is slept (see Remote), so a sub-millisecond rtt is a
// floor that the host's timer rounds up several-fold.
func WithRTT(rtt time.Duration) Option {
	return func(c *config) { c.rtt = rtt }
}

// WithTransport selects how replicas are wired (in-memory by default; UDP
// builds one loopback socket pair per worker for QUIC targets).
func WithTransport(t TransportKind) Option {
	return func(c *config) { c.transport = t }
}

// WithGuard tunes the §5 nondeterminism voting check. Without it,
// experiments use core.DefaultGuard — or core.DefaultAdaptiveGuard when
// WithImpairment injects faults, since a fixed certainty threshold cannot
// be met on a link that corrupts a large fraction of executions.
func WithGuard(cfg core.GuardConfig) Option {
	return func(c *config) { c.guard, c.guardSet = cfg, true }
}

// WithImpairment wraps every replica's transport — in-memory or the
// per-worker UDP socket pair — in a netem.Link injecting the configured
// datagram faults. Each worker's link draws from its own fault stream
// derived from cfg.Seed (netem.Config.ForWorker), so impaired pooled runs
// are reproducible regardless of goroutine interleaving.
func WithImpairment(cfg netem.Config) Option {
	return func(c *config) { c.impair = cfg }
}

// WithLinkMiddleware installs a custom transport decorator on every
// replica, outside any WithImpairment link (the middleware sees the
// already-impaired traffic). Repeated options stack in order.
func WithLinkMiddleware(mw LinkMiddleware) Option {
	return func(c *config) { c.middleware = append(c.middleware, mw) }
}

// WithPerfectEquivalence uses the target's ground-truth specification as
// the equivalence oracle (exact recovery, used to validate state counts);
// NewExperiment fails for targets without one. Without it the heuristic
// random-words oracle is used, as in the paper.
func WithPerfectEquivalence() Option {
	return func(c *config) { c.perfect = true }
}

// WithConformance strengthens the default equivalence search with a
// Wp-method conformance pass of the given depth over the live (guarded)
// target: any residual fault adding at most depth−1 extra states is found
// (see learn.WpMethodOracle.Suite). The pass runs before the random words,
// which then check only hypotheses the suite passed.
// Unlike WithPerfectEquivalence it needs no ground truth, so it works for
// closed-box targets and under impairment — `prognosis diff` relies on it
// to recover full models of both sides. Ignored when WithEquivalence or
// WithPerfectEquivalence installs an explicit oracle.
func WithConformance(depth int) Option {
	return func(c *config) { c.conformance = depth }
}

// WithWarmup drives every replica with this many seeded random input words
// (through its full transport chain, impairment links included) while the
// experiment is being built, before any learning query. Targets whose
// behaviour depends on state that leaks across connections — the
// lossy-retransmit profile's server-global loss statistics, for example —
// settle into their steady state during warmup, so the learner observes
// one consistent behaviour instead of the flip mid-run (which the §5 guard
// would otherwise report as nondeterminism, honestly but unhelpfully, when
// the goal is to learn the degraded mode itself). Warmup is deterministic
// in the experiment seed, and every replica sees the same word sequence,
// keeping pooled replicas behaviourally aligned.
func WithWarmup(words int) Option {
	return func(c *config) { c.warmup = words }
}

// WithEquivalence installs a custom equivalence oracle (overrides both the
// default random-words search and WithPerfectEquivalence).
func WithEquivalence(eq learn.EquivalenceOracle) Option {
	return func(c *config) { c.equivalence = eq }
}

// WithoutCache disables the prefix-tree membership-query cache (for
// ablation).
func WithoutCache() Option {
	return func(c *config) { c.disableCache = true }
}

// WithStore persists learning state under dir for incremental relearning:
// the experiment opens (or creates) a learn.Store keyed by the target and
// the answer-affecting parts of its configuration (seed, impairment,
// warmup), pre-seeds the membership cache from the stored query log,
// appends every new live answer during the run, and — after a successful
// learn — snapshots the model so the next run with the same key warm-starts
// from it. Relearning an unchanged target then costs only the equivalence
// pass; see docs/REGRESSION.md for the exact semantics on changed targets.
// Ignored when WithoutCache disables the cache the store feeds.
func WithStore(dir string) Option {
	return func(c *config) { c.storeDir = dir }
}

// WithWindow replaces the pool's fixed in-flight limit with a congestion-
// window-style adaptive one (learn.Window): additive increase on clean
// completions, multiplicative decrease on guard escalations and timeouts,
// RTT-tracked from per-query timing. The worker count remains the hard
// cap — cfg.Max is clamped to it (zero means "the worker count"). Only
// meaningful with WithWorkers > 1; resize events surface as
// learn.WindowResized through WithObserver, and the final counters in
// Result.Metrics().Window.
func WithWindow(cfg learn.WindowConfig) Option {
	return func(c *config) { c.window = &cfg }
}

// WithAdapterCommand names the external adapter command line for the
// "adapter" target: each pool worker spawns one subprocess running it
// and drives it over the symbol-over-stdio protocol (docs/ADAPTER.md).
// The command is part of the run key — stores and fleet cells for two
// different adapter binaries never collide. Only external targets
// accept it; NewExperiment rejects the option on in-process targets.
func WithAdapterCommand(cmd string) Option {
	return func(c *config) { c.adapterCmd = cmd }
}

// WithObserver streams the run's typed events (RoundStarted,
// HypothesisReady, CounterexampleFound, CacheSnapshot,
// NondeterminismDetected) to obs. Observers shared across campaign runs
// must be safe for concurrent use.
func WithObserver(obs learn.Observer) Option {
	return func(c *config) { c.observer = obs }
}
