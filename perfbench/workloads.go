package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/automata"
	"repro/internal/cli"
	"repro/internal/lab"
	"repro/internal/learn"
	"repro/internal/learncfg"
	"repro/internal/netem"
	"repro/internal/server"
	"repro/pkg/client"
)

// workload is one named set of inputs. minPasses, when set, is the
// fewest passes an untraced run measures however long they take. perJob
// marks a workload whose unit of request is one job: its latency is per
// job, where other workloads' is per pass (a whole regress run, a whole
// learn). check, when set, validates the traced run's per-layer table.
type workload struct {
	name      string
	why       string
	setup     func(ctx context.Context, e *env) (bench, error)
	minPasses int
	perJob    bool
	check     func(untraced, traced []passOut, l *layers) error
}

var workloads = []workload{
	{
		name:  "regress-cold",
		why:   "every manifest cell learned cold through cli.RegressOne at workers=1: CPU-bound simulators, crypto, codecs, learner, cache and store appends",
		setup: func(ctx context.Context, e *env) (bench, error) { return setupRegress(ctx, e, true) },
		check: sameLiveQueries,
	},
	{
		name:  "regress-warm",
		why:   "the same cells relearned warm from a primed store: the read side of learn.Store, warm rebuild and golden comparison, almost no simulator work",
		setup: func(ctx context.Context, e *env) (bench, error) { return setupRegress(ctx, e, false) },
		check: sameLiveQueries,
	},
	{
		name:  "udp-lossy",
		why:   "quiche over UDP loopback sockets, 2 workers, 5% loss each way, adaptive window: bound by response waits, guard re-votes, pool and window",
		setup: setupUDPLossy,
		// One pass is a whole learn whose length follows the loss
		// pattern; two of them halve the spread of a single learn.
		minPasses: 2,
		check: func(_, _ []passOut, l *layers) error {
			if r := l.rows["netem.drop_ratio"].value; r < 0.03 || r > 0.07 {
				return fmt.Errorf("udp-lossy: netem dropped %.4f of datagrams, want about 0.05", r)
			}
			return nil
		},
	},
	{
		name:   "service-warm",
		why:    "two pkg/client callers submitting warm learn jobs to an in-process prognosisd: job journal, HTTP, SSE hub and manager around a short learn",
		setup:  setupServiceWarm,
		perJob: true,
	},
}

// sameLiveQueries checks that the traced passes asked exactly the live
// queries the untraced ones did: the trace options change no behaviour.
func sameLiveQueries(untraced, traced []passOut, _ *layers) error {
	want := untraced[0].queries
	for _, p := range append(untraced, traced...) {
		if p.queries != want {
			return fmt.Errorf("live queries differ between passes (%v vs %v): tracing changed behaviour", p.queries, want)
		}
	}
	return nil
}

// expectNondet is the manifest outcome of a cell whose golden behaviour
// is the §5 nondeterminism halt.
const expectNondet = "nondet"

func loadGoldens(m *cli.RegressManifest) (map[string]*analysis.Model, error) {
	goldens := map[string]*analysis.Model{}
	for _, rt := range m.Targets {
		if rt.Expect == expectNondet {
			continue
		}
		g, err := analysis.LoadModel(filepath.Join(m.Dir, rt.Golden))
		if err != nil {
			return nil, err
		}
		goldens[rt.Name] = g
	}
	return goldens, nil
}

// checkModel compares a learned model with its golden; the error names
// the drift.
func checkModel(name string, learned, golden *analysis.Model) error {
	drift, err := analysis.CompareGolden(learned, golden, 3)
	if err != nil {
		return err
	}
	if drift != nil {
		return fmt.Errorf("%s drifted from its golden:\n%s", name, drift)
	}
	return nil
}

// ---- regress-cold / regress-warm ----

type regressBench struct {
	manifestDir string
	cells       []cli.RegressTarget
	cold        bool
	store       string // the warm store, or the parent of the per-pass cold stores
	n           int    // passes run
}

func setupRegress(ctx context.Context, e *env, cold bool) (bench, error) {
	b := &regressBench{
		manifestDir: e.manifest.Dir, cells: e.manifest.Targets,
		cold: cold, store: filepath.Join(e.dir, "store"),
	}
	if cold {
		return b, nil
	}
	// One cold pass fills the store; one warm pass asks the queries the
	// first warm relearn always adds. Later passes are the steady state.
	for i := 0; i < 2; i++ {
		p, err := b.pass(ctx, nil)
		if err != nil {
			return nil, err
		}
		if p.failed > 0 {
			return nil, fmt.Errorf("priming pass %d: %d of %d cells failed", i+1, p.failed, p.attempted)
		}
	}
	return b, nil
}

func (b *regressBench) pass(ctx context.Context, tr *tracer) (passOut, error) {
	b.n++
	dir := b.store
	if b.cold {
		dir = filepath.Join(b.store, fmt.Sprintf("pass-%d", b.n))
	}
	out := passOut{surfaceQueries: 0}
	for _, rt := range b.cells {
		start := time.Now()
		var live int64
		var err error
		if tr == nil {
			live, err = b.regressOne(ctx, rt, dir)
		} else {
			live, err = b.tracedCell(ctx, tr, rt, dir)
		}
		out.cells = append(out.cells, op{rt.Name, time.Since(start)})
		out.attempted++
		out.surfaceQueries += live
		if err != nil {
			if ctx.Err() != nil {
				return out, ctx.Err()
			}
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", rt.Name, err)
		}
	}
	if tr != nil {
		tr.add("learn.store_mb", dirMB(dir))
	}
	return out, nil
}

// regressOne is the untraced cell: exactly what `prognosis regress` runs.
func (b *regressBench) regressOne(ctx context.Context, rt cli.RegressTarget, dir string) (int64, error) {
	out, err := cli.RegressOne(ctx, rt, b.manifestDir, dir, 1, 3, nil)
	if err != nil {
		return out.LiveQueries, err
	}
	if out.Drift != "" {
		return out.LiveQueries, fmt.Errorf("drift:\n%s", out.Drift)
	}
	return out.LiveQueries, nil
}

// tracedCell relearns one cell through the same public steps as
// cli.RegressOne — learncfg options, lab.NewExperiment, Learn, golden
// comparison — with a span around each call and the trace options added.
func (b *regressBench) tracedCell(ctx context.Context, tr *tracer, rt cli.RegressTarget, dir string) (int64, error) {
	id := fmt.Sprintf("%s#%d", rt.Name, b.n)
	root := tr.begin(id, "bench.cell", noParent)
	defer tr.end(root)
	cfg := learncfg.Config{
		Learner: "ttt", Seed: rt.Seed, Conformance: rt.Conformance,
		Loss: rt.Loss, Duplicate: rt.Duplicate, Reorder: rt.Reorder,
		Warmup: rt.Warmup, Workers: 1, Store: dir,
	}
	opts, err := cfg.Options()
	if err != nil {
		return 0, err
	}
	lt := newLearnTrace(tr, id, root)
	opts = append(opts, lt.options()...)

	i := tr.begin(id, "learn.OpenStore", root)
	st, err := learn.OpenStore(dir, lab.RunKey(rt.Name, opts...))
	tr.end(i)
	if err != nil {
		return 0, err
	}
	// The experiment opens the same key and shares this instance.
	defer st.Close()
	entries := st.Entries()
	tr.add("learn.store_entries", float64(entries))

	i = tr.begin(id, "lab.NewExperiment", root)
	lt.setParent(i) // warmup exchanges happen during the build
	exp, err := lab.NewExperiment(rt.Name, opts...)
	tr.end(i)
	if err != nil {
		return 0, err
	}
	defer exp.Close()
	lt.stats = exp.Stats

	i = tr.begin(id, "lab.Learn", root)
	lt.setParent(i)
	res, err := exp.Learn(ctx)
	lt.close()
	tr.end(i)
	if err != nil {
		return 0, err
	}
	tr.add("learn.store_appends", float64(st.Entries()-entries))
	live := res.Stats.Queries

	if rt.Expect == expectNondet {
		if res.Nondet == nil {
			return live, fmt.Errorf("expected the §5 nondeterminism halt, learned %d states", res.Machine.NumStates())
		}
		return live, nil
	}
	if res.Nondet != nil {
		return live, fmt.Errorf("became nondeterministic: %v", res.Nondet)
	}
	i = tr.begin(id, "analysis.compare", root)
	defer tr.end(i)
	golden, err := analysis.LoadModel(filepath.Join(b.manifestDir, rt.Golden))
	if err != nil {
		return live, err
	}
	return live, checkModel(rt.Name, res.Model(), golden)
}

func (b *regressBench) close() error { return nil }

// ---- udp-lossy ----

type udpBench struct {
	plain  *lab.Experiment
	traced *lab.Experiment // built in setup of a traced run
	lt     *learnTrace
	golden *analysis.Model
	n      int
}

// udpTarget is the udp-lossy target and udpSeed the seed of its
// simulated implementation (the manifest's); the fault streams take the
// workload seed.
const (
	udpTarget = lab.TargetQuiche
	udpSeed   = 13
	udpLoss   = 0.05
)

func udpOptions(seed int64) []lab.Option {
	return []lab.Option{
		lab.WithSeed(udpSeed),
		lab.WithTransport(lab.TransportUDP),
		lab.WithWorkers(2),
		lab.WithImpairment(netem.Config{LossClient: udpLoss, LossServer: udpLoss, Seed: seed}),
		lab.WithWindow(learn.WindowConfig{Min: 1, Max: 2}),
		lab.WithPerfectEquivalence(),
	}
}

func setupUDPLossy(_ context.Context, e *env) (bench, error) {
	b := &udpBench{golden: e.goldens[udpTarget]}
	if b.golden == nil {
		return nil, fmt.Errorf("manifest has no golden for %s", udpTarget)
	}
	var err error
	if b.plain, err = lab.NewExperiment(udpTarget, udpOptions(e.seed)...); err != nil {
		return nil, err
	}
	if tr := e.tracer; tr != nil {
		id := "udp-lossy#build"
		root := tr.begin(id, "bench.setup", noParent)
		b.lt = newLearnTrace(tr, id, root)
		i := tr.begin(id, "lab.NewExperiment", root)
		b.traced, err = lab.NewExperiment(udpTarget, append(udpOptions(e.seed), b.lt.options()...)...)
		tr.end(i)
		tr.end(root)
		if err != nil {
			_ = b.close() // the build error is the one to report
			return nil, err
		}
		b.lt.stats = b.traced.Stats
	}
	return b, nil
}

func (b *udpBench) pass(ctx context.Context, tr *tracer) (passOut, error) {
	b.n++
	exp := b.plain
	var root, learnSpan int
	if tr != nil {
		exp = b.traced
		id := fmt.Sprintf("udp-lossy#%d", b.n)
		b.lt.startRun(id)
		root = tr.begin(id, "bench.learn", noParent)
		learnSpan = tr.begin(id, "lab.Learn", root)
		b.lt.setParent(learnSpan)
	}
	out := passOut{attempted: 1, surfaceQueries: -1}
	start := time.Now()
	res, err := exp.Learn(ctx)
	if tr != nil {
		b.lt.close()
		tr.end(learnSpan)
	}
	if err != nil {
		return out, err
	}
	switch {
	case res.Nondet != nil:
		err = fmt.Errorf("udp-lossy: halted on nondeterminism: %v", res.Nondet)
	case tr != nil:
		i := tr.begin(b.lt.currentID(), "analysis.compare", root)
		err = checkModel(udpTarget, res.Model(), b.golden)
		tr.end(i)
	default:
		err = checkModel(udpTarget, res.Model(), b.golden)
	}
	out.cells = append(out.cells, op{udpTarget, time.Since(start)})
	if tr != nil {
		tr.end(root)
		if w := res.Metrics().Window; w != nil {
			tr.add("learn.window_acquired", float64(w.Acquired))
			tr.add("learn.window_decreases", float64(w.Decreases))
			tr.add("learn.window_srtt_ms", float64(w.SRTT)/float64(time.Millisecond))
		}
	}
	if err != nil {
		out.failed++
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	return out, nil
}

func (b *udpBench) close() error {
	var errs []error
	for _, exp := range []*lab.Experiment{b.plain, b.traced} {
		if exp != nil {
			errs = append(errs, exp.Close())
		}
	}
	return errors.Join(errs...)
}

// ---- service-warm ----

// serviceCallers is the number of closed-loop clients, one per core.
const serviceCallers = 2

type serviceBench struct {
	cells   []cli.RegressTarget
	goldens map[string]*analysis.Model
	mgr     *server.Manager
	srv     *http.Server
	served  chan error
	cl      *client.Client
	tracing atomic.Pointer[tracer] // set while a traced pass runs
}

func setupServiceWarm(ctx context.Context, e *env) (bench, error) {
	b := &serviceBench{cells: e.manifest.Targets, goldens: e.goldens}
	cfg := server.ManagerConfig{Dir: e.dir, Parallel: serviceCallers}
	if e.tracer != nil {
		// The wrappers record only while a traced pass runs.
		backend, err := server.OpenFSBackend(e.dir)
		if err != nil {
			return nil, err
		}
		cfg.Backend = &tracedBackend{inner: backend, b: b}
		cfg.Runner = b.tracedRunner(server.NewRunner(e.dir))
	}
	var err error
	if b.mgr, err = server.NewManager(cfg); err != nil {
		if cfg.Backend != nil {
			_ = cfg.Backend.Close() // the manager error is the one to report
		}
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = b.mgr.Shutdown(ctx) // the listen error is the one to report
		return nil, err
	}
	b.srv = &http.Server{Handler: server.NewServer(b.mgr)}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()
	b.cl = client.New("http://" + ln.Addr().String())
	// A cold cycle fills the daemon's shared store and a warm one asks
	// the queries the first warm relearn always adds.
	for i := 0; i < 2; i++ {
		p, err := b.pass(ctx, nil)
		if err == nil && p.failed > 0 {
			err = fmt.Errorf("priming cycle %d: %d of %d jobs failed", i+1, p.failed, p.attempted)
		}
		if err != nil {
			_ = b.close() // the priming error is the one to report
			return nil, err
		}
	}
	return b, nil
}

// pass is one cycle over every cell: each caller takes the next cell in
// manifest order, submits its job, and takes another only once that
// job's model is checked (a closed loop). Each cell runs once per pass,
// so no two jobs of one cell overlap.
func (b *serviceBench) pass(ctx context.Context, tr *tracer) (passOut, error) {
	var hub0 client.HubStats
	if tr != nil {
		st, err := b.cl.ServerStats(ctx)
		if err != nil {
			return passOut{}, err
		}
		hub0 = st.Hub
		b.tracing.Store(tr)
		defer b.tracing.Store(nil)
	}
	outs := make([]passOut, serviceCallers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serviceCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(b.cells); i = int(next.Add(1)) - 1 {
				lat, err := b.job(ctx, tr, b.cells[i])
				outs[c].attempted++
				outs[c].cells = append(outs[c].cells, op{b.cells[i].Name, lat})
				if err != nil {
					outs[c].failed++
					fmt.Fprintf(os.Stderr, "perfbench: job %s: %v\n", b.cells[i].Name, err)
				}
			}
		}(c)
	}
	wg.Wait()
	out := passOut{surfaceQueries: -1}
	for _, o := range outs {
		out.attempted += o.attempted
		out.failed += o.failed
		out.cells = append(out.cells, o.cells...)
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if tr != nil {
		st, err := b.cl.ServerStats(ctx)
		if err != nil {
			return out, err
		}
		tr.add("server.sse_events", float64(st.Hub.Published-hub0.Published))
		tr.add("server.sse_dropped", float64(st.Hub.Dropped-hub0.Dropped))
	}
	return out, nil
}

// job submits one learn job for cell rt, waits for its terminal SSE
// event, fetches the model and checks it. The latency runs from submit to
// model fetched (to the terminal status for the nondeterministic cell,
// which has no model).
func (b *serviceBench) job(ctx context.Context, tr *tracer, rt cli.RegressTarget) (time.Duration, error) {
	spec := client.NewLearnSpec(rt.Name)
	spec.Config.Seed, spec.Config.Conformance = rt.Seed, rt.Conformance
	spec.Config.Loss, spec.Config.Duplicate, spec.Config.Reorder = rt.Loss, rt.Duplicate, rt.Reorder
	spec.Config.Warmup = rt.Warmup

	var clock func() time.Duration
	if tr != nil {
		clock = tr.now
	} else {
		t0 := time.Now()
		clock = func() time.Duration { return time.Since(t0) }
	}
	t0 := clock()
	st, err := b.cl.Submit(ctx, spec)
	t1 := clock()
	if err != nil {
		return t1 - t0, err
	}
	id := st.ID
	terminal, err := b.waitTerminal(ctx, id)
	t2 := clock()
	if err != nil {
		return t2 - t0, err
	}
	status, err := b.cl.Job(ctx, id)
	if err != nil {
		return clock() - t0, err
	}
	var data []byte
	if rt.Expect != expectNondet {
		data, err = b.cl.Model(ctx, id, "", "json")
	}
	t3 := clock()
	lat := t3 - t0
	if tr != nil {
		tr.record(id, "server.job", noParent, t0, t3)
		tr.record(id, "server.submit", rootParent, t0, t1)
		if rt.Expect != expectNondet {
			tr.record(id, "server.model_fetch", rootParent, t2, t3)
		}
		if status.Started != nil {
			tr.record(id, "server.queue_wait", rootParent, status.Created.Sub(tr.epoch), status.Started.Sub(tr.epoch))
		}
		tr.add("server.jobs", 1)
		tr.add("server.latency_s", lat.Seconds())
	}
	if err != nil {
		return lat, err
	}
	if terminal != client.StateDone || status.State != client.StateDone {
		return lat, fmt.Errorf("job %s ended %s: %s", id, status.State, status.Error)
	}
	if rt.Expect == expectNondet {
		if status.Summary == nil || !status.Summary.Nondet {
			return lat, fmt.Errorf("job %s: expected the §5 nondeterminism halt", id)
		}
		return lat, nil
	}
	m, err := automata.Decode(data)
	if err != nil {
		return lat, fmt.Errorf("job %s: served model: %w", id, err)
	}
	return lat, checkModel(rt.Name, analysis.NewModel(rt.Name, m), b.goldens[rt.Name])
}

// waitTerminal follows the job's SSE stream to its terminal job_state
// event.
func (b *serviceBench) waitTerminal(ctx context.Context, id string) (client.State, error) {
	stream, err := b.cl.Events(ctx, id)
	if err != nil {
		return "", err
	}
	defer stream.Close()
	for {
		ev, err := stream.Next()
		if err == io.EOF {
			return "", fmt.Errorf("job %s: event stream ended before a terminal state", id)
		}
		if err != nil {
			return "", err
		}
		if js, ok := ev.JobState(); ok && js.State.Terminal() {
			return js.State, nil
		}
	}
}

// tracedRunner wraps the production runner in a server.run span and
// follows its learn events.
func (b *serviceBench) tracedRunner(inner server.Runner) server.Runner {
	return func(ctx context.Context, job *server.Job, obs learn.Observer) (*server.Summary, error) {
		tr := b.tracing.Load()
		if tr == nil {
			return inner(ctx, job, obs)
		}
		i := tr.begin(job.ID, "server.run", rootParent)
		lt := newLearnTrace(tr, job.ID, i)
		sum, err := inner(ctx, job, learn.MultiObserver(obs, lt))
		lt.close()
		tr.end(i)
		return sum, err
	}
}

// tracedBackend times every journal append while a traced pass runs.
type tracedBackend struct {
	inner server.Backend
	b     *serviceBench
}

func (t *tracedBackend) Load() ([]server.Record, error) { return t.inner.Load() }
func (t *tracedBackend) Close() error                   { return t.inner.Close() }

func (t *tracedBackend) Append(rec server.Record) error {
	tr := t.b.tracing.Load()
	if tr == nil {
		return t.inner.Append(rec)
	}
	i := tr.begin(rec.ID, "server.journal", rootParent)
	err := t.inner.Append(rec)
	tr.end(i)
	tr.add("server.journal_appends", 1)
	return err
}

func (b *serviceBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if merr := b.mgr.Shutdown(ctx); err == nil {
		err = merr
	}
	return err
}
