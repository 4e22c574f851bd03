// Command perfbench is the repository benchmark. It runs one named
// workload against the learning stack through its public surfaces
// (cli.RegressOne, learncfg, the lab options, learn.OpenStore,
// analysis.CompareGolden, the prognosisd manager and server, and
// pkg/client), checks every learned model against its golden, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root through its build script, which builds
// this package from the checkout's sources first:
//
//	bash perfbench/run.sh --workload regress-cold --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 spends the first half of the run untraced and the second half
// traced, and reports the per-layer metrics (README.md lists them).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/cli"
)

// manifestPath is the regression manifest, relative to the repository
// root the benchmark runs from.
const manifestPath = "internal/analysis/testdata/regress.json"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload's setup receives; setup fills in the
// manifest and goldens.
type env struct {
	seed     int64
	dir      string  // this workload's scratch directory, emptied by setup
	tracer   *tracer // non-nil in a traced run, for setup-time spans
	manifest *cli.RegressManifest
	goldens  map[string]*analysis.Model
}

// bench is a workload after setup: each pass is one timed unit of work.
type bench interface {
	// pass runs one pass; tr is nil when the pass is untraced.
	pass(ctx context.Context, tr *tracer) (passOut, error)
	close() error
}

// op is one cell's latency, named by the cell.
type op struct {
	cell string
	d    time.Duration
}

// passOut is what a workload reports about one pass. Wall time, CPU time
// and the live-traffic counters are measured around it by measure.
type passOut struct {
	cells     []op // per-cell (or per-job) latency: request to checked model
	attempted int
	failed    int
	// surfaceQueries is the live-query count the workload's own surface
	// reported (RegressOne's outcomes), -1 when it reports none.
	surfaceQueries int64

	wall, cpu        time.Duration
	queries, symbols float64
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+"), or all of them in turn")
		seed    = flag.Int64("seed", 1, "workload seed: the udp-lossy fault streams")
		seconds = flag.Int("seconds", 20, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		out     = flag.String("out", ".bench_build/out", "directory for stores, daemon data, spans and profiles")
	)
	flag.Parse()
	if *name == "all" {
		if err := runAll(*seed, *seconds, *trace, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	wl, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in its own process, one after another,
// passing each one's report through, and ends with one result line whose
// metrics are named "<workload>.<metric>".
func runAll(seed int64, seconds, trace int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames() {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--out", out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("%s: result line: %w", name, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[name+"."+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func run(ctx context.Context, wl workload, seed int64, budget time.Duration, traced bool, out string) (*result, error) {
	e := &env{seed: seed, dir: filepath.Join(out, wl.name)}
	if traced {
		e.tracer = newTracer()
	}
	printEnv(wl, seed)

	// Clearing the previous run's stores is housekeeping, not set-up.
	if err := emptyDir(e.dir); err != nil {
		return nil, err
	}
	b, setup, err := setUp(ctx, wl, e)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", wl.name, err)
	}
	defer func() {
		if err := b.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: close:", err)
		}
	}()

	if !traced {
		passes, err := measure(ctx, b, nil, budget, wl.minPasses)
		if err != nil {
			return nil, err
		}
		res := newResult(passes)
		res.Metrics = endToEnd(wl, passes, setup)
		return res, nil
	}

	untraced, err := measure(ctx, b, nil, budget/2, 1)
	if err != nil {
		return nil, err
	}
	profile := filepath.Join(e.dir, fmt.Sprintf("cpu-%d.pprof", seed))
	f, err := os.Create(profile)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	before := scrape()
	tracedPasses, err := measure(ctx, b, e.tracer, budget/2, 1)
	after := scrape()
	runtime.ReadMemStats(&ms1)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res := newResult(append(untraced, tracedPasses...))
	fmt.Println("# end-to-end, untraced half of the traced run")
	endToEnd(wl, untraced, setup)

	byModule, err := profileModules(profile)
	if err != nil {
		return nil, err
	}
	spans := e.tracer.snapshot()
	spanFile := filepath.Join(e.dir, fmt.Sprintf("spans-%d.tsv", seed))
	if err := writeSpans(spanFile, spans); err != nil {
		return nil, err
	}
	fmt.Printf("# %d spans written to %s, CPU profile at %s\n", len(spans), spanFile, profile)
	l := perLayer(e.tracer, spans, untraced, tracedPasses, before, after, &ms0, &ms1, byModule)
	if wl.check != nil {
		if err := wl.check(untraced, tracedPasses, l); err != nil {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	l.print(wl.name)
	for _, name := range universalLayerMetrics {
		row := l.rows[name]
		res.Metrics[name] = metric{Value: row.value, Unit: row.unit}
	}
	return res, nil
}

// setUp loads the manifest and goldens, runs the workload's setup, and
// times both. Setups are repeated until a second is spent or setupReps
// have run, keeping the last bench, and their median reported: a short
// set-up time is measured on many samples, a long one once.
func setUp(ctx context.Context, wl workload, e *env) (bench, time.Duration, error) {
	var times []float64
	var spent time.Duration
	for {
		start := time.Now()
		b, err := setUpOnce(ctx, wl, e)
		d := time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		spent += d
		if len(times) == setupReps || spent >= time.Second {
			return b, time.Duration(median(times) * float64(time.Second)), nil
		}
		if err := b.close(); err != nil {
			return nil, 0, err
		}
	}
}

const setupReps = 200

func setUpOnce(ctx context.Context, wl workload, e *env) (bench, error) {
	m, err := cli.LoadRegressManifest(manifestPath)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	e.manifest = m
	if e.goldens, err = loadGoldens(m); err != nil {
		return nil, err
	}
	return wl.setup(ctx, e)
}

// measure runs passes until the budget is spent and at least minPasses
// have run, and measures each one's wall time, process CPU time, and live
// queries and symbols from the metrics plane.
func measure(ctx context.Context, b bench, tr *tracer, budget time.Duration, minPasses int) ([]passOut, error) {
	var passes []passOut
	start := time.Now()
	for len(passes) < max(minPasses, 1) || time.Since(start) < budget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		before, cpu0, t0 := scrape(), cpuTime(), time.Now()
		p, err := b.pass(ctx, tr)
		wall, cpu, after := time.Since(t0), cpuTime()-cpu0, scrape()
		if err != nil {
			return nil, err
		}
		p.wall, p.cpu = wall, cpu
		p.queries = after.delta(before, "prognosis_learn_queries_total")
		p.symbols = after.delta(before, "prognosis_learn_symbols_total")
		if p.surfaceQueries >= 0 && float64(p.surfaceQueries) != p.queries {
			fmt.Fprintf(os.Stderr, "perfbench: pass reported %d live queries, the metrics plane counted %v\n",
				p.surfaceQueries, p.queries)
			p.failed++
		}
		passes = append(passes, p)
	}
	return passes, nil
}

func newResult(passes []passOut) *result {
	res := &result{Metrics: map[string]metric{}}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// endToEnd computes the end-to-end metrics of a set of passes, prints
// them, and returns them. Latency is per job on a workload whose unit of
// request is a job, and per pass otherwise.
func endToEnd(wl workload, passes []passOut, setup time.Duration) map[string]metric {
	workload := wl.name
	var wall, cpu, queries, symbols, ops []float64
	byCell := map[string][]float64{}
	attempted, failed := 0, 0
	for _, p := range passes {
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		queries = append(queries, p.queries)
		symbols = append(symbols, p.symbols)
		for _, o := range p.cells {
			byCell[o.cell] = append(byCell[o.cell], o.d.Seconds())
			if wl.perJob {
				ops = append(ops, o.d.Seconds())
			}
		}
		if !wl.perJob {
			ops = append(ops, p.wall.Seconds())
		}
		attempted += p.attempted
		failed += p.failed
	}
	tailV, pct, ok := tail(ops)
	tailNote := fmt.Sprintf("p%.1f of n=%d", pct, len(ops))
	if !ok {
		tailNote = fmt.Sprintf("maximum: n=%d has no percentile with %d samples beyond", len(ops), tailBeyond)
	}
	ms := []struct {
		name  string
		value float64
		unit  string
		note  string
	}{
		{"setup_s", setup.Seconds(), "s", ""},
		{"pass_s", median(wall), "s", fmt.Sprintf("median of %d passes", len(wall))},
		{"live_queries", median(queries), "count", "per pass"},
		{"live_symbols", median(symbols), "count", "per pass"},
		{"cpu_s", median(cpu), "s", "user+sys per pass"},
		{"peak_rss_mb", peakRSSMB(), "MB", "process high-water mark"},
		{"latency_p50_s", median(ops), "s", fmt.Sprintf("n=%d", len(ops))},
		{"latency_tail_s", tailV, "s", tailNote},
	}
	out := map[string]metric{}
	for _, m := range ms {
		fmt.Printf("%s %-16s %14.6f %-5s %s\n", workload, m.name, m.value, m.unit, m.note)
		out[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	cells := make([]string, 0, len(byCell))
	for c := range byCell {
		cells = append(cells, c)
	}
	sort.Strings(cells)
	fmt.Printf("# median latency per cell:")
	for _, c := range cells {
		fmt.Printf(" %s %.6f", c, median(byCell[c]))
	}
	fmt.Println()
	rate := 0.0
	if attempted > 0 {
		rate = float64(failed) / float64(attempted)
	}
	fmt.Printf("%s %-16s %14.6f %-5s %d of %d operations failed or drifted\n",
		workload, "error_rate", rate, "ratio", failed, attempted)
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set, in MB (Linux reports
// ru_maxrss in kB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// printEnv records the environment every result was measured in.
func printEnv(wl workload, seed int64) {
	envLine, _ := json.Marshal(map[string]any{
		"workload":   wl.name,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"network":    "loopback, no real link",
	})
	fmt.Printf("# env %s\n# workload %s: %s\n", envLine, wl.name, wl.why)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// emptyDir removes dir and creates it afresh.
func emptyDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// dirMB is the total size of the regular files under dir, in MB.
func dirMB(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / 1e6
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
