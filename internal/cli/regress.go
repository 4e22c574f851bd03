package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/lab"
	"repro/internal/learn"
	"repro/internal/learncfg"
)

// Regress implements `prognosis regress`: relearn a manifest of targets —
// warm-started from a persistent query store when -store is given — and
// gate each against its checked-in golden model. Any behavioural drift
// fails the gate (exit code 1) with the shortest distinguishing witness,
// which is also written (alongside the freshly learned model) under
// -witness-dir for CI to upload. A target whose golden outcome is the §5
// nondeterminism halt (expect "nondet") drifts by *learning a model*
// instead.
func Regress(args []string) error {
	fs := flag.NewFlagSet("prognosis regress", flag.ContinueOnError)
	manifest := fs.String("manifest", DefaultManifest,
		"regression manifest: targets, goldens, and per-target learning configuration")
	storeDir := fs.String("store", "",
		"persistent query-store directory: warm-start every relearn from it and keep it fresh (empty = cold)")
	targetsCSV := fs.String("targets", "", "comma-separated subset of manifest targets to check (default: all)")
	witnessDir := fs.String("witness-dir", "", "write per-target drift witnesses and learned models here")
	workers := fs.Int("workers", 1, "membership-query concurrency per relearn")
	witnesses := fs.Int("witnesses", 3, "distinguishing traces to collect per drifted target")
	verbose := fs.Bool("v", false, "stream live learning progress to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("regress takes no positional arguments (got %v)", fs.Args())
	}

	m, err := LoadRegressManifest(*manifest)
	if err != nil {
		return err
	}
	if missing, unknown := m.CoverageGap(); len(missing) > 0 || len(unknown) > 0 {
		// The gate still runs — a partial manifest is useful locally — but
		// the drift from the registry is spelled out, not just counted.
		if len(missing) > 0 {
			fmt.Printf("regress: manifest missing registry target(s): %s\n", strings.Join(missing, ", "))
		}
		if len(unknown) > 0 {
			fmt.Printf("regress: manifest entries naming no registry target: %s\n", strings.Join(unknown, ", "))
		}
	}
	if *witnessDir != "" {
		if err := os.MkdirAll(*witnessDir, 0o755); err != nil {
			return err
		}
	}
	var obs learn.Observer
	if *verbose {
		obs = progressObserver{}
	}

	ctx, stop := signalContext()
	defer stop()
	run, err := RunRegress(ctx, m, *targetsCSV, *storeDir, *workers, *witnesses, obs)
	for _, c := range run.Cells {
		fmt.Print(c.headline())
		if c.Drift == "" {
			continue
		}
		fmt.Print(indent(c.Drift))
		if *witnessDir == "" {
			continue
		}
		path := filepath.Join(*witnessDir, c.Name+".witness.txt")
		if err := os.WriteFile(path, []byte(c.Drift), 0o644); err != nil {
			return err
		}
		fmt.Printf("  witness written to %s\n", path)
		if c.Learned != nil {
			// The drifted model itself, for offline diffing against the
			// golden without relearning.
			if err := c.Learned.Save(filepath.Join(*witnessDir, c.Name+".learned.json")); err != nil {
				return err
			}
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("regress total: %d live queries across %d targets, %d drifted\n",
		run.LiveQueries, len(run.Cells), len(run.Drifted))
	if len(run.Drifted) > 0 {
		return fmt.Errorf("%d target(s) drifted from golden: %s", len(run.Drifted), strings.Join(run.Drifted, ", "))
	}
	return nil
}

// RegressOutcome is the structured result of one manifest-target
// regression: how much live traffic the relearn cost, a non-empty drift
// rendering when the gate must fail, and the freshly learned model (nil
// when the run halted on nondeterminism).
type RegressOutcome struct {
	LiveQueries int64
	Drift       string
	Learned     *analysis.Model
}

// RegressOne relearns one manifest target — through the shared learncfg
// option path, warm-started from storeDir when non-empty — and compares
// the outcome to its golden. obs, when non-nil, receives the relearn's
// typed event stream.
func RegressOne(ctx context.Context, rt RegressTarget, manifestDir, storeDir string,
	workers, witnesses int, obs learn.Observer) (RegressOutcome, error) {
	run, err := relearnCell(ctx, rt, storeDir, workers, witnesses, obs, func() (*analysis.Model, error) {
		if rt.Expect == expectNondet {
			return nil, nil
		}
		return analysis.LoadModel(filepath.Join(manifestDir, rt.Golden))
	})
	if run == nil {
		return RegressOutcome{}, err
	}
	defer run.exp.Close()
	out := RegressOutcome{LiveQueries: run.res.Stats.Queries, Learned: run.learned}
	switch {
	case err != nil:
		return out, err
	case rt.Expect == expectNondet && run.res.Nondet == nil:
		out.Drift = fmt.Sprintf(
			"expected the §5 nondeterminism halt, but a deterministic %d-state model was learned\n",
			run.learned.States())
	case rt.Expect != expectNondet && run.res.Nondet != nil:
		out.Drift = fmt.Sprintf("target became nondeterministic: %v\n", run.res.Nondet)
	case run.drift != nil:
		out.Drift = run.drift.String()
	}
	return out, nil
}

// cellRun is one relearned manifest cell: the still-open experiment (for
// witness replay; the caller closes it), its result, the learned model
// (nil on a nondeterminism halt), and its drift from the baseline (nil
// when they agree or nothing was compared).
type cellRun struct {
	exp     *lab.Experiment
	res     *lab.Result
	learned *analysis.Model
	drift   *analysis.GoldenDrift
}

// relearnCell is the relearn-and-compare step regress and monitor share:
// it relearns the manifest cell rt from its own learning configuration —
// warm-started from storeDir when non-empty — and, when a model was
// learned and baseline yields one (nil for none), compares the two. A
// non-nil run is returned whenever learning finished, even alongside a
// baseline or comparison error.
func relearnCell(ctx context.Context, rt RegressTarget, storeDir string, workers, witnesses int,
	obs learn.Observer, baseline func() (*analysis.Model, error)) (*cellRun, error) {
	exp, res, err := LearnTarget(ctx, rt.Name, rt.Config("ttt", workers, storeDir), obs)
	if err != nil {
		return nil, err
	}
	run := &cellRun{exp: exp, res: res, learned: res.Model()}
	if run.learned == nil {
		return run, nil
	}
	base, err := baseline()
	if err != nil || base == nil {
		return run, err
	}
	run.drift, err = analysis.CompareGolden(run.learned, base, witnesses)
	return run, err
}

// RegressCell is one regressed manifest target's outcome.
type RegressCell struct {
	Name string
	RegressOutcome
}

// headline is the cell's one-line verdict, shared by both renderings.
func (c RegressCell) headline() string {
	verdict := "OK"
	if c.Drift != "" {
		verdict = "DRIFT"
	}
	return fmt.Sprintf("regress %s: %s — %d live queries\n", c.Name, verdict, c.LiveQueries)
}

// RegressRun is the regress verb's result: every regressed cell in
// manifest order, the live queries they cost, and the drifted targets.
type RegressRun struct {
	Cells       []RegressCell
	LiveQueries int64
	Drifted     []string
}

// Report renders the run as prognosisd serves it (a regress job's
// witness.txt): each cell's verdict line, followed by its drift witness
// when it drifted. `prognosis regress` prints the same lines with the
// witnesses indented.
func (r *RegressRun) Report() string {
	var b strings.Builder
	for _, c := range r.Cells {
		b.WriteString(c.headline())
		b.WriteString(c.Drift)
	}
	return b.String()
}

// RunRegress is the regress verb: relearn the cells of manifest m that
// the comma-separated targets select (all for ""), in order, through
// RegressOne. The run is never nil; on error it holds the cells finished
// so far, and LiveQueries also counts a failed cell's relearn.
func RunRegress(ctx context.Context, m *RegressManifest, targets, storeDir string,
	workers, witnesses int, obs learn.Observer) (*RegressRun, error) {
	run := &RegressRun{}
	selected, err := m.Filter(targets)
	if err != nil {
		return run, err
	}
	for _, rt := range selected {
		out, err := RegressOne(ctx, rt, m.Dir, storeDir, workers, witnesses, obs)
		run.LiveQueries += out.LiveQueries
		if err != nil {
			return run, fmt.Errorf("target %s: %w", rt.Name, err)
		}
		run.Cells = append(run.Cells, RegressCell{Name: rt.Name, RegressOutcome: out})
		if out.Drift != "" {
			run.Drifted = append(run.Drifted, rt.Name)
		}
	}
	return run, nil
}

// DefaultManifest is the checked-in regression manifest regress and
// monitor cycle over by default, relative to the repository root.
const DefaultManifest = "internal/analysis/testdata/regress.json"

// expectNondet is the manifest outcome for targets whose golden behaviour
// is the §5 nondeterminism halt rather than a model.
const expectNondet = "nondet"

// RegressTarget is one manifest entry: the registry target, its golden
// (path relative to the manifest; empty when Expect is "nondet"), and the
// learning configuration that reproduces the golden.
type RegressTarget struct {
	Name        string  `json:"name"`
	Golden      string  `json:"golden,omitempty"`
	Expect      string  `json:"expect,omitempty"` // "" (model) or "nondet"
	Seed        int64   `json:"seed,omitempty"`
	Conformance int     `json:"conformance,omitempty"`
	Loss        float64 `json:"loss,omitempty"`
	Duplicate   float64 `json:"dup,omitempty"`
	Reorder     float64 `json:"reorder,omitempty"`
	Warmup      int     `json:"warmup,omitempty"`
}

// Config is the learning configuration of the manifest cell, run with
// the given learner and worker count, warm-started from storeDir when it
// is non-empty.
func (rt RegressTarget) Config(learner string, workers int, storeDir string) learncfg.Config {
	return learncfg.Config{
		Learner: learner, Seed: rt.Seed, Conformance: rt.Conformance,
		Loss: rt.Loss, Duplicate: rt.Duplicate, Reorder: rt.Reorder,
		Warmup: rt.Warmup, Workers: workers, Store: storeDir,
	}
}

// RegressManifest is a loaded regression manifest. Dir is the directory
// the manifest was read from; golden paths resolve relative to it.
type RegressManifest struct {
	Version int             `json:"version"`
	Targets []RegressTarget `json:"targets"`
	Dir     string          `json:"-"`
}

// LoadRegressManifest reads and validates a regression manifest.
func LoadRegressManifest(path string) (*RegressManifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m RegressManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if m.Version != 1 {
		return nil, fmt.Errorf("%s: unsupported manifest version %d", path, m.Version)
	}
	if len(m.Targets) == 0 {
		return nil, fmt.Errorf("%s: manifest names no targets", path)
	}
	for _, rt := range m.Targets {
		switch {
		case rt.Name == "":
			return nil, fmt.Errorf("%s: manifest entry without a target name", path)
		case rt.Expect == expectNondet && rt.Golden != "":
			return nil, fmt.Errorf("%s: %s expects nondeterminism and names a golden", path, rt.Name)
		case rt.Expect != expectNondet && rt.Expect != "":
			return nil, fmt.Errorf("%s: %s has unknown expectation %q", path, rt.Name, rt.Expect)
		case rt.Expect == "" && rt.Golden == "":
			return nil, fmt.Errorf("%s: %s names no golden model", path, rt.Name)
		}
	}
	m.Dir = filepath.Dir(path)
	return &m, nil
}

// Filter restricts the manifest to the requested comma-separated targets
// (all of them for an empty filter).
func (m *RegressManifest) Filter(csv string) ([]RegressTarget, error) {
	if csv == "" {
		return m.Targets, nil
	}
	byName := make(map[string]RegressTarget, len(m.Targets))
	for _, rt := range m.Targets {
		byName[rt.Name] = rt
	}
	var out []RegressTarget
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		rt, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("target %q not in manifest (have: %s)", name, m.names())
		}
		out = append(out, rt)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-targets selected nothing")
	}
	return out, nil
}

// CoverageGap compares the manifest against the lab target registry and
// returns the in-process registry targets the manifest misses plus the
// manifest entries naming no registry target. External targets (such as
// "adapter") are exempt from coverage: their behaviour is whatever command
// they wrap, so no fixed golden can stand for them.
func (m *RegressManifest) CoverageGap() (missing, unknown []string) {
	inManifest := make(map[string]bool, len(m.Targets))
	known := map[string]bool{}
	for _, t := range lab.Targets() {
		if !lab.External(t) {
			known[t] = true
		}
	}
	for _, rt := range m.Targets {
		inManifest[rt.Name] = true
		if !known[rt.Name] {
			unknown = append(unknown, rt.Name)
		}
	}
	for _, t := range lab.Targets() {
		if known[t] && !inManifest[t] {
			missing = append(missing, t)
		}
	}
	return missing, unknown
}

func (m *RegressManifest) names() string {
	names := make([]string, len(m.Targets))
	for i, rt := range m.Targets {
		names[i] = rt.Name
	}
	return strings.Join(names, ", ")
}
