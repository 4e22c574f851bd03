package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/lab"
	"repro/internal/learn"
)

// NewRunner builds the production Runner: every job runs its verb's one
// implementation in internal/cli — the same function the prognosis
// subcommand calls — and writes the outcome's artifacts into the job's
// directory. Unless the spec names its own store, jobs share a persistent
// query store under dataDir, which is what lets a re-queued job resume:
// the interrupted attempt's answered queries are already journaled
// there, so the retry replays them from disk instead of the wire.
func NewRunner(dataDir string) Runner {
	sharedStore := filepath.Join(dataDir, "store")
	return func(ctx context.Context, job *Job, obs learn.Observer) (*Summary, error) {
		spec := job.Spec
		if spec.Config.Store == "" && spec.Kind != KindRegress && spec.Kind != KindMonitor {
			spec.Config.Store = sharedStore
		}
		switch spec.Kind {
		case KindLearn:
			return runLearn(ctx, &spec, job.Dir, obs)
		case KindDiff:
			return runDiff(ctx, &spec, job.Dir, obs)
		case KindCheck:
			return runCheck(ctx, &spec, job.Dir, obs)
		case KindRegress:
			return runRegress(ctx, &spec, job.Dir, sharedStore, obs)
		case KindMonitor:
			return runMonitor(ctx, &spec, job.Dir, dataDir, obs)
		default:
			return nil, fmt.Errorf("unknown job kind %q", spec.Kind)
		}
	}
}

// summarize folds learning runs' unified metrics snapshots into a job
// summary, marking the first nondeterminism halt among them. Nil results
// (a side whose learn failed) are skipped. (Summary is an alias of
// client.Summary, so this cannot be a method.)
func summarize(results ...*lab.Result) *Summary {
	s := &Summary{}
	for _, res := range results {
		if res == nil {
			continue
		}
		rm := res.Metrics()
		s.Queries += rm.Learner.Queries
		s.Symbols += rm.Learner.Symbols
		s.Hits += rm.Learner.Hits
		s.GuardEscalations += rm.Guard.Escalations
		s.Duration += rm.Duration
		if res.Nondet != nil && !s.Nondet {
			s.Nondet = true
			s.NondetWord = res.Nondet.Word
		}
	}
	return s
}

// orDefault resolves an omitted (zero) spec field.
func orDefault[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

func writeWitness(dir, report string) error {
	return os.WriteFile(filepath.Join(dir, "witness.txt"), []byte(report), 0o644)
}

func runLearn(ctx context.Context, spec *Spec, dir string, obs learn.Observer) (*Summary, error) {
	exp, res, err := cli.LearnTarget(ctx, spec.Target, spec.Config, obs)
	if err != nil {
		return nil, err
	}
	exp.Close()
	sum := summarize(res)
	if res.Nondet != nil {
		return sum, nil // the §5 halt is a reported outcome, exactly as in the CLI
	}
	sum.States = res.Machine.NumStates()
	sum.Transitions = res.Machine.NumTransitions()
	return sum, res.Model().Save(filepath.Join(dir, "model.json"))
}

func runDiff(ctx context.Context, spec *Spec, dir string, obs learn.Observer) (*Summary, error) {
	// Both sides learn into the job's one event stream (events carry no
	// target attribution at the stream level, like `prognosis diff -v`).
	out, err := cli.RunDiff(ctx, spec.TargetA, spec.TargetB, spec.Config, [2]learn.Observer{obs, obs},
		cli.DiffOptions{Witnesses: orDefault(spec.Witnesses, 5), Replay: spec.ReplayWitness()})
	sum := summarize(out.Results[:]...)
	if out.Report == nil {
		return sum, err
	}
	eq := out.Report.Equivalent
	sum.Equivalent = &eq
	sum.Witnesses = len(out.Report.Witnesses)
	sum.States = out.ModelA.States()
	sum.Transitions = out.ModelA.Transitions()
	if err != nil {
		return sum, err
	}
	if err := out.ModelA.Save(filepath.Join(dir, "model_a.json")); err != nil {
		return sum, err
	}
	if err := out.ModelB.Save(filepath.Join(dir, "model_b.json")); err != nil {
		return sum, err
	}
	report := out.Report.String()
	if r := out.Replayed; r != nil {
		diverged := r.Diverged
		sum.Confirmed = &diverged
		report += fmt.Sprintf("\nwitness %v replayed live: diverged=%v (models predicted=%v)\n",
			r.Witness.Word, r.Diverged, r.MatchesModels)
	}
	return sum, writeWitness(dir, report)
}

func runCheck(ctx context.Context, spec *Spec, dir string, obs learn.Observer) (*Summary, error) {
	out, err := cli.RunCheck(ctx, spec.Target, spec.Config, obs, spec.Property, orDefault(spec.Depth, 4))
	if out.Result == nil {
		return nil, err
	}
	sum := summarize(out.Result)
	if out.Model == nil {
		return sum, err
	}
	sum.States = out.Model.States()
	sum.Transitions = out.Model.Transitions()
	if err != nil {
		return sum, err
	}
	sum.Violations = out.Violations
	if err := out.Model.Save(filepath.Join(dir, "model.json")); err != nil {
		return sum, err
	}
	// Violations are the job's *result*, not a job failure: the job is
	// done, the report is the artifact, and the summary carries the count.
	return sum, writeWitness(dir, out.Report)
}

func runRegress(ctx context.Context, spec *Spec, dir, storeDir string, obs learn.Observer) (*Summary, error) {
	m, err := cli.LoadRegressManifest(orDefault(spec.Manifest, cli.DefaultManifest))
	if err != nil {
		return nil, err
	}
	run, err := cli.RunRegress(ctx, m, spec.Targets, orDefault(spec.Config.Store, storeDir),
		spec.Config.Workers, orDefault(spec.Witnesses, 3), obs)
	sum := &Summary{RegressTargets: len(run.Cells), Queries: run.LiveQueries, Drifted: run.Drifted}
	if err != nil {
		return sum, err
	}
	for _, c := range run.Cells {
		if c.Drift != "" && c.Learned != nil {
			if err := c.Learned.Save(filepath.Join(dir, c.Name+".learned.json")); err != nil {
				return sum, err
			}
		}
	}
	// Like check: drift is the reported result, served as the witness
	// artifact; the job itself completed.
	return sum, writeWitness(dir, run.Report())
}

// runMonitor executes one monitor cycle as a job. Monitor state —
// lineage journal and model snapshots — lives under the daemon data
// directory (not the job's artifact directory), so consecutive monitor
// jobs share baselines; the cycle report is the job's witness artifact.
func runMonitor(ctx context.Context, spec *Spec, dir, dataDir string, obs learn.Observer) (*Summary, error) {
	sum, report, err := cli.RunMonitorCycle(ctx, cli.MonitorOptions{
		Manifest:  spec.Manifest,
		Targets:   spec.Targets,
		DataDir:   dataDir,
		Workers:   spec.Config.Workers,
		Witnesses: spec.Witnesses,
	}, obs)
	if report != "" {
		if werr := writeWitness(dir, report); werr != nil && err == nil {
			err = werr
		}
	}
	return sum, err
}
