package lab

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/netem"
	"repro/internal/reference"
)

// Result is the outcome of one learning run.
type Result struct {
	Target string
	// Machine is the learned Mealy machine (nil when the run halted on
	// nondeterminism). Model() wraps it for the analysis plane.
	Machine     *automata.Mealy
	Stats       learn.Stats
	Nondet      *core.NondeterminismError
	Duration    time.Duration
	LearnerKind LearnerKind
	// The guard, fault, and window counters are read through Metrics().
	guard  core.GuardStats
	faults netem.Stats
	window *learn.WindowStats
}

// Metrics is the unified observability snapshot of one learning run: the
// live-traffic counters, the §5 guard's voting cost, the fault-injection
// totals, the adaptive window's trajectory, and the wall time. The same
// subsystems also publish process-wide scrapeable totals into
// metrics.Default() (served by prognosisd's GET /metrics); this snapshot
// is the per-run slice of that story.
type Metrics struct {
	// Learner counts live oracle traffic: queries, symbols, cache hits.
	Learner learn.Stats `json:"learner"`
	// Guard is the voting guard's cost — escalations and wasted votes
	// quantify how hard the link fought the learner.
	Guard core.GuardStats `json:"guard"`
	// Faults aggregates netem fault counters across all worker links
	// (zero without WithImpairment).
	Faults netem.Stats `json:"faults"`
	// Window is the adaptive in-flight window's counters, nil unless
	// WithWindow was configured.
	Window *learn.WindowStats `json:"window,omitempty"`
	// Duration is the run's wall time.
	Duration time.Duration `json:"duration"`
}

// QueriesPerSec returns the live-query rate over the run's wall time.
func (m Metrics) QueriesPerSec() float64 {
	if m.Duration > 0 {
		return float64(m.Learner.Queries) / m.Duration.Seconds()
	}
	return 0
}

// Metrics returns the run's unified observability snapshot.
func (r *Result) Metrics() Metrics {
	return Metrics{
		Learner:  r.Stats,
		Guard:    r.guard,
		Faults:   r.faults,
		Window:   r.window,
		Duration: r.Duration,
	}
}

// RestoreResult rebuilds the Result of a run that finished elsewhere from
// its recorded outcome and unified metrics — how campaign checkpoints and
// the fleet coordinator's merged cells restore runs without relearning.
func RestoreResult(target string, kind LearnerKind, machine *automata.Mealy,
	nondet *core.NondeterminismError, m Metrics) *Result {
	return &Result{
		Target: target, LearnerKind: kind, Machine: machine, Nondet: nondet,
		Stats: m.Learner, Duration: m.Duration,
		guard: m.Guard, faults: m.Faults, window: m.Window,
	}
}

// Model returns the learned model wrapped for the analysis plane — named
// after the target, ready for Diff/Minimize/CheckAll/Save. It is nil when
// the run produced no machine (nondeterminism halt).
func (r *Result) Model() *analysis.Model {
	return analysis.NewModel(r.Target, r.Machine)
}

// Experiment is one configured learning run against a registered target:
// the built SUL replicas and the resolved options, from which every Learn
// assembles its oracle chain. Build it with NewExperiment, run it with
// Learn (repeatably — replicas reset per query), and release any
// transport resources with Close.
type Experiment struct {
	target string
	cfg    config
	sys    *System
	suls   []core.SUL // the replicas as the chain sees them (RTT-wrapped)
	eq     learn.EquivalenceOracle
	warm   *automata.Mealy
	links  []*netem.Link
	store  *learn.Store

	// The running Learn's counters, replaced at its start; the chain
	// updates them atomically, so they are readable mid-run.
	stats learn.Stats
	guard core.GuardStats
}

// NewExperiment resolves target in the registry, builds one SUL replica
// per worker, and assembles the experiment from the given options.
func NewExperiment(target string, opts ...Option) (*Experiment, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.guard == (core.GuardConfig{}) {
		cfg.guard = core.DefaultGuard()
	}
	var links []*netem.Link
	var wrap func(worker int, tr reference.Transport) reference.Transport
	if cfg.impair.Enabled() || len(cfg.middleware) > 0 {
		impair := cfg.impair
		middleware := cfg.middleware
		wrap = func(worker int, tr reference.Transport) reference.Transport {
			if impair.Enabled() {
				l := netem.New(tr, impair.ForWorker(worker))
				links = append(links, l)
				tr = l
			}
			for _, mw := range middleware {
				tr = mw(worker, tr)
			}
			return tr
		}
	}
	if cfg.adapterCmd != "" && !External(target) {
		return nil, fmt.Errorf("lab: target %q is in-process and takes no adapter command", target)
	}
	sys, err := build(BuildSpec{
		Target:        target,
		Replicas:      cfg.workers,
		Seed:          cfg.seed,
		Transport:     cfg.transport,
		AdapterCmd:    cfg.adapterCmd,
		Observer:      cfg.observer,
		WrapTransport: wrap,
	})
	if err != nil {
		return nil, err
	}
	if cfg.warmup > 0 {
		if err := warmup(sys, cfg.warmup, cfg.seed); err != nil {
			sys.Close()
			return nil, fmt.Errorf("lab: warmup: %w", err)
		}
	}
	suls := sys.SULs
	if cfg.rtt > 0 {
		wrapped := make([]core.SUL, len(suls))
		for i, s := range suls {
			wrapped[i] = Remote(s, cfg.rtt)
		}
		suls = wrapped
	}
	e := &Experiment{target: target, cfg: cfg, sys: sys, suls: suls, eq: cfg.equivalence, links: links}
	if cfg.perfect && e.eq == nil {
		if sys.Truth == nil {
			sys.Close()
			return nil, fmt.Errorf("lab: no ground truth available for %q", target)
		}
		e.eq = &learn.ModelOracle{Model: sys.Truth}
	}
	if cfg.storeDir != "" && !cfg.disableCache {
		st, err := learn.OpenStore(cfg.storeDir, runKey(target, cfg))
		if err != nil {
			sys.Close()
			return nil, err
		}
		e.store = st
		// A saved hypothesis warm-starts the learner. Load failures (or a
		// snapshot over a different alphabet, rejected by the learner) just
		// degrade to a cold start.
		if warm, err := st.LoadModel(); err == nil {
			e.warm = warm
		}
	}
	return e, nil
}

// RunKey derives the canonical cell key of one (target, options) pair —
// the single identity under which every persistence plane files the run:
// the learn.Store query log and model snapshot (WithStore), the fleet
// coordinator's cell assignment and merged campaign checkpoint, and the
// per-worker logs the merge stage pulls. Deriving the key in exactly one
// place is what guarantees a fleet-merged checkpoint and store can never
// disagree about which cell an entry belongs to (regression-tested in
// store_test.go). Two option sets that cannot change a target's answers
// (workers, RTT, transport, learner) produce the same key by design.
func RunKey(target string, opts ...Option) string {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return runKey(target, cfg)
}

// runKey names the store file of one (target, configuration) pair. Only
// parameters that can change the *answers* a target gives are part of the
// key: the seed (drives the simulated implementations), the impairment
// profile and warmup (targets with cross-connection state, such as
// lossy-retransmit, answer differently once a link has bitten them).
// Transport, workers, RTT, and learner choice are excluded — replicas are
// behaviourally identical across all of them, so their answers are
// interchangeable and sharing the log is the point.
func runKey(target string, cfg config) string {
	key := fmt.Sprintf("%s_s%d", target, cfg.seed)
	if cfg.adapterCmd != "" {
		// Different adapter binaries answer differently; key them by a
		// short content hash of the command line (the basename keeps the
		// key human-readable).
		argv := strings.Fields(cfg.adapterCmd)
		base := ""
		if len(argv) > 0 {
			base = filepath.Base(argv[0])
		}
		sum := sha256.Sum256([]byte(cfg.adapterCmd))
		key += fmt.Sprintf("_a%s-%x", base, sum[:4])
	}
	if cfg.impair.Enabled() {
		key += "_" + cfg.impair.Label()
		if cfg.warmup > 0 {
			key += fmt.Sprintf("_w%d", cfg.warmup)
		}
	}
	// Keep the key filename-safe across platforms.
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '-'
	}, key)
}

// warmup runs the WithWarmup word sequence through every replica: words
// seeded random input words of length 10, the same sequence for each
// replica so identically-seeded replicas stay behaviourally aligned. A
// word an error wrapping learn.ErrVoided cut short (an adapter crash)
// counts as driven: the next reset starts afresh.
func warmup(sys *System, words int, seed int64) error {
	rng := rand.New(rand.NewSource(seed*31 + 17))
	seq := make([][]string, words)
	for i := range seq {
		w := make([]string, 10)
		for j := range w {
			w[j] = sys.Alphabet[rng.Intn(len(sys.Alphabet))]
		}
		seq[i] = w
	}
	for _, sul := range sys.SULs {
		// The last, empty word leaves the replica reset so the first
		// learning query starts from a fresh connection.
		for _, w := range append(seq, nil) {
			err := sul.Reset()
			for i := 0; err == nil && i < len(w); i++ {
				_, err = sul.Step(w[i])
			}
			if err != nil && !errors.Is(err, learn.ErrVoided) {
				return err
			}
		}
	}
	return nil
}

// Target returns the experiment's registered target name.
func (e *Experiment) Target() string { return e.target }

// Alphabet returns the target's input alphabet.
func (e *Experiment) Alphabet() []string { return e.sys.Alphabet }

// Stats returns a snapshot of the live-traffic counters (valid after — or,
// from an observer, during — Learn). The counters are read atomically, so
// snapshots taken while pool workers are updating them are safe.
func (e *Experiment) Stats() learn.Stats {
	return learn.Stats{
		Queries: atomic.LoadInt64(&e.stats.Queries),
		Symbols: atomic.LoadInt64(&e.stats.Symbols),
		Hits:    atomic.LoadInt64(&e.stats.Hits),
	}
}

// GuardStats returns a snapshot of the voting guard's cumulative cost
// counters (safe to read mid-run).
func (e *Experiment) GuardStats() core.GuardStats { return e.guard.Snapshot() }

// Faults aggregates the fault counters of every worker's netem link.
// Without WithImpairment there are no links and the result is zero.
func (e *Experiment) Faults() netem.Stats {
	var total netem.Stats
	for _, l := range e.links {
		total.Add(l.Stats())
	}
	return total
}

// faultsDelta subtracts the pre-run fault snapshot from the post-run one.
func faultsDelta(before, after netem.Stats) netem.Stats {
	return netem.Stats{
		SentClient:    after.SentClient - before.SentClient,
		DroppedClient: after.DroppedClient - before.DroppedClient,
		SentServer:    after.SentServer - before.SentServer,
		DroppedServer: after.DroppedServer - before.DroppedServer,
		Duplicated:    after.Duplicated - before.Duplicated,
		Reordered:     after.Reordered - before.Reordered,
	}
}

// Learn runs the full Prognosis pipeline. Cancelling ctx aborts the run
// within one query round and returns ctx.Err(); a nondeterministic target
// (the §5 analysis) is not an error — it is reported in Result.Nondet.
// Learn is repeatable (replicas reset per query); each call's Result.Stats
// counts only that run's traffic. Learn is not safe for concurrent use on
// one Experiment; campaign runs each own their Experiment.
func (e *Experiment) Learn(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.stats, e.guard = learn.Stats{}, core.GuardStats{}
	// Link counters cannot be zeroed (the links keep their fault streams),
	// so per-run fault totals are deltas against the pre-run snapshot.
	faultsBefore := e.Faults()
	res := &Result{Target: e.target, LearnerKind: e.cfg.learner}
	start := time.Now()
	model, win, err := e.learn(ctx)
	res.Duration = time.Since(start)
	res.Stats = e.Stats()
	res.guard = e.GuardStats()
	res.faults = faultsDelta(faultsBefore, e.Faults())
	if win != nil {
		ws := win.Stats()
		res.window = &ws
	}
	if err != nil {
		if nd, ok := core.IsNondeterminism(err); ok {
			res.Nondet = nd
			return res, nil
		}
		return nil, err
	}
	res.Machine = model
	return res, nil
}

// learn assembles this run's oracle chain and runs the MAT loop through
// it. Every replica is counted and guarded by one shared Guardian, and
// the replicas are the shards of one pool (a single replica is a
// one-shard pool); the adaptive window, when configured, throttles the
// pool; the prefix-tree cache, with its store, fronts it; and the
// equivalence oracle asks through the cache. It returns the window too,
// nil when none was installed.
func (e *Experiment) learn(ctx context.Context) (*automata.Mealy, *learn.Window, error) {
	cfg, obs := e.cfg, e.cfg.observer
	// The adaptive in-flight window sits in front of the pool's free list
	// and is fed by the guard: every GuardEscalated event is a loss
	// signal that cuts the window multiplicatively. A single shard has
	// nothing to throttle.
	var win *learn.Window
	guardObs := obs
	if cfg.window != nil && len(e.suls) > 1 {
		wcfg := *cfg.window
		if wcfg.Max == 0 {
			wcfg.Max = len(e.suls)
		}
		win = learn.NewWindow(wcfg, obs)
		guardObs = learn.MultiObserver(obs, learn.ObserverFunc(func(ev learn.Event) {
			if _, ok := ev.(learn.GuardEscalated); ok {
				win.OnLoss()
			}
		}))
	}
	// One Guardian serves every shard: the guard weighs votes against the
	// link's fault rate, which is a property of the experiment, not of any
	// single replica, and never below the rate the impairment injects. The
	// counter is per shard (each drives exactly one SUL); the stats and the
	// guard state are shared.
	guardian := core.NewGuardian(cfg.guard, cfg.impair.FaultRate(), &e.guard, guardObs)
	shards := make([]learn.Oracle, len(e.suls))
	for i, s := range e.suls {
		shards[i] = guardian.WrapTimed(learn.Counting(core.Oracle(s), &e.stats), timed(e.sys.SULs[i]))
	}
	pool := learn.NewPool(shards...)
	if win != nil {
		pool.UseWindow(win)
	}
	var oracle learn.Oracle = pool
	var cached *learn.CachedOracle
	if !cfg.disableCache {
		cached = learn.NewCache(pool, &e.stats)
		if e.store != nil {
			cached.UseStore(e.store)
		}
		oracle = cached
		if obs != nil {
			// Every hypothesis is a natural synchronisation point: piggyback
			// a cache/traffic snapshot on it so observers can watch live
			// query costs without polling.
			inner := obs
			obs = learn.ObserverFunc(func(ev learn.Event) {
				inner.OnEvent(ev)
				if h, ok := ev.(learn.HypothesisReady); ok {
					st := e.Stats()
					inner.OnEvent(learn.CacheSnapshot{
						Round: h.Round, Entries: cached.Size(),
						LiveQueries: st.Queries, Symbols: st.Symbols, Hits: st.Hits,
					})
				}
			})
		}
	}
	eq := e.eq
	if eq == nil {
		rw := learn.NewRandomWordsOracle(oracle, e.sys.Alphabet, cfg.seed+1)
		rw.Workers = len(e.suls)
		eq = rw
		if cfg.conformance > 0 {
			// Wp first: it refutes the early hypotheses in fewer live
			// queries, and the final one meets both suites either way.
			eq = learn.ChainOracle{&learn.WpMethodOracle{
				Oracle: oracle, Inputs: e.sys.Alphabet, Depth: cfg.conformance, Workers: len(e.suls),
			}, rw}
		}
	}
	run := func(eq learn.EquivalenceOracle) (*automata.Mealy, error) {
		switch cfg.learner {
		case LearnerLStar:
			l := learn.NewLStar(oracle, e.sys.Alphabet)
			l.Observer, l.Warm = obs, e.warm
			return l.Learn(ctx, eq)
		case LearnerTTT, "":
			d := learn.NewDTLearner(oracle, e.sys.Alphabet)
			d.Observer, d.Warm = obs, e.warm
			return d.Learn(ctx, eq)
		}
		return nil, fmt.Errorf("lab: unknown learner %q", cfg.learner)
	}
	var model *automata.Mealy
	var err error
	if cached != nil {
		model, err = cached.LearnRepairing(ctx, eq, run)
	} else {
		model, err = run(eq)
	}
	if err != nil {
		if nd, ok := core.IsNondeterminism(err); ok && obs != nil {
			obs.OnEvent(learn.NondeterminismDetected{
				Word: nd.Word, Alternatives: len(nd.Observed), Votes: nd.Votes,
			})
		}
		return nil, win, err
	}
	if e.store != nil && cached != nil {
		// Best-effort: the store is an accelerator, so neither a seal nor a
		// snapshot failure may turn a successful learn into an error — the
		// next run is merely colder. The seal logs every word a warm
		// rebuild of this model will ask (answered from the cache, or from
		// the model for the few combinations never asked live), which is
		// what makes an unchanged target's relearn free of live membership
		// queries.
		_ = cached.SealWarm(ctx, model, e.sys.Alphabet, cfg.learner == LearnerLStar)
		// Snapshot the canonical (minimized, BFS-numbered) form: equivalent
		// machines share one canonical form, so the snapshot's bytes are
		// stable across relearns of an unchanged target no matter which
		// tree or table shape produced them.
		_ = e.store.SaveModel(model.Minimize())
	}
	return model, win, nil
}

// timed returns the replica as a core.Timed when its silences rest on
// socket waits (a QUIC replica over UDP), nil otherwise.
func timed(s core.SUL) core.Timed {
	if q, ok := s.(*QUICSetup); ok && q.Socket != nil {
		return q
	}
	return nil
}

// Oracle returns a live membership oracle over the experiment's first
// replica: every query resets the replica and replays the word over its
// real transport — through any impairment link the experiment configured.
// This is how witness words from the analysis plane replay against the
// wire (analysis.ConfirmWitness). Each query is settled by the
// experiment's own §5 guard, weighed against the link's fault rate: it
// answers what the executions agree on, casts voided ones again, and
// fails with a *core.NondeterminismError where they disagree beyond the
// link's faults. The oracle shares the replica with Learn, so do not
// query it while a Learn is in flight.
func (e *Experiment) Oracle() learn.Oracle {
	return core.NewGuardian(e.cfg.guard, e.cfg.impair.FaultRate(), nil, nil).
		WrapTimed(core.Oracle(e.suls[0]), timed(e.sys.SULs[0]))
}

// StoreEntries returns the persistent query store's logged-query count
// — the query-log version the monitor's lineage records tie model
// snapshots to. Zero without WithStore.
func (e *Experiment) StoreEntries() int {
	if e.store == nil {
		return 0
	}
	return e.store.Entries()
}

// Close releases the transport resources (UDP sockets, listeners) the
// experiment's replicas hold, and the persistent store when WithStore
// opened one. In-memory experiments hold none; calling Close is still
// always safe.
func (e *Experiment) Close() error {
	err := e.sys.Close()
	if e.store != nil {
		if serr := e.store.Close(); err == nil {
			err = serr
		}
		e.store = nil
	}
	return err
}

// Run is the one-shot convenience: build the experiment, learn it, and
// release its resources. Use NewExperiment directly to learn repeatedly
// or to interrogate the experiment (alphabet, live oracle) around a run.
func Run(ctx context.Context, target string, opts ...Option) (*Result, error) {
	exp, err := NewExperiment(target, opts...)
	if err != nil {
		return nil, err
	}
	defer exp.Close()
	return exp.Learn(ctx)
}
