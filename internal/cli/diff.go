package cli

import (
	"context"
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/lab"
	"repro/internal/learn"
	"repro/internal/learncfg"
)

// Diff implements `prognosis diff A B`: learn both targets concurrently,
// diff the models (witnesses + per-state divergence summaries), and replay
// the first witness against both still-live targets to confirm the
// divergence on the wire.
//
// By default each target is learned through a mildly impaired link (2%
// symmetric datagram loss) with a Wp-method conformance pass: behavioural
// differences between implementations often hide behind loss recovery —
// the lossy-retransmit target is clean-link-identical to google — and the
// §5 guard keeps honest targets' learned models exact under that much
// loss (verified by the impairment campaign tests). The witness replay
// goes through the same guard. Pass -loss 0 for a strictly clean-link
// diff.
func Diff(args []string) error {
	fs := flag.NewFlagSet("prognosis diff", flag.ContinueOnError)
	witnesses := fs.Int("witnesses", 5, "maximum distinguishing traces to print")
	replay := fs.Bool("replay", true, "replay the first witness against both live targets")
	exportDir := fs.String("export", "", "directory to write both learned models as DOT + JSON")
	var lf learnFlags
	lf.register(fs, learncfg.Defaults{Conformance: 2, Loss: 0.02, Workers: 4})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff needs exactly two targets, e.g. `prognosis diff google lossy-retransmit` (got %v)", fs.Args())
	}
	targetA, targetB := fs.Arg(0), fs.Arg(1)

	ctx, stop := signalContext()
	defer stop()
	var obs [2]learn.Observer
	for i, target := range []string{targetA, targetB} {
		flags := lf // per-side copy; each side gets its own observers
		if flags.eventsFile != "" {
			// The two learns run concurrently: give each its own event
			// stream instead of interleaving unattributable JSON lines
			// in one file.
			flags.eventsFile = perTargetPath(flags.eventsFile, target)
		}
		o, cleanup, err := flags.observer()
		if err != nil {
			return err
		}
		defer cleanup()
		obs[i] = o
	}
	out, err := RunDiff(ctx, targetA, targetB, lf.Config, obs,
		DiffOptions{Witnesses: *witnesses, Replay: *replay})
	if err != nil {
		return err
	}
	report := out.Report
	fmt.Print(report.String())

	if *exportDir != "" {
		for _, m := range []*analysis.Model{out.ModelA, out.ModelB} {
			for _, ext := range []string{".json", ".dot"} {
				path := filepath.Join(*exportDir, m.Name+ext)
				if err := m.Save(path); err != nil {
					return err
				}
				fmt.Printf("exported %s\n", path)
			}
		}
	}

	if report.Equivalent {
		return nil
	}
	fmt.Println("\nnote: a difference is not necessarily a bug — QUIC's specification")
	fmt.Println("permits divergent design choices; inspect the witnesses (cf. §6.2.3).")
	if r := out.Replayed; r != nil {
		w := r.Witness
		fmt.Printf("\nreplaying witness %v against both live targets through the §5 guard:\n", w.Word)
		for i := range w.Word {
			fmt.Printf("  step %d: %s\n    %s live: %s\n    %s live: %s\n",
				i+1, w.Word[i], report.NameA, r.LiveA[i], report.NameB, r.LiveB[i])
		}
		switch {
		case r.Diverged && r.MatchesModels:
			fmt.Printf("  CONFIRMED: live outputs diverge at step %d, exactly as the models predict\n", r.At+1)
		case r.Diverged:
			fmt.Printf("  CONFIRMED: live outputs diverge at step %d, but not as the models predict — a model disagrees with the wire\n", r.At+1)
		default:
			fmt.Println("  NOT REPRODUCED: live outputs agree — the model-level divergence did not show on the wire")
		}
	}
	return nil
}

// DiffOptions are the diff verb's analysis knobs.
type DiffOptions struct {
	// Witnesses bounds the distinguishing traces collected.
	Witnesses int
	// Replay confirms the first witness against both live targets, each
	// replay settled by its experiment's §5 guard.
	Replay bool
}

// DiffOutcome is the diff verb's result.
type DiffOutcome struct {
	// Results are both sides' learning runs in argument order; a side's
	// entry is nil when its learn failed.
	Results        [2]*lab.Result
	ModelA, ModelB *analysis.Model
	Report         *analysis.DiffReport
	// Replayed is the first witness replayed live; nil unless the models
	// differ and DiffOptions.Replay was set.
	Replayed *analysis.ReplayedWitness
}

// RunDiff is the diff verb: learn both targets concurrently (obs[i]
// receives side i's event stream), diff the models, and — when they
// differ — replay the first witness against both still-live targets to
// confirm the divergence on the wire. Both experiments stay open until
// the replay is done, so it drives the same live replicas the models were
// learned from (the lossy-retransmit degradation, for example, lives in
// the replica state the learning run built up). The outcome is never nil;
// its Results are set for every side whose learn finished.
func RunDiff(ctx context.Context, targetA, targetB string, cfg learncfg.Config,
	obs [2]learn.Observer, opt DiffOptions) (*DiffOutcome, error) {
	targets := [2]string{targetA, targetB}
	var exps [2]*lab.Experiment
	var errs [2]error
	out := &DiffOutcome{}
	var wg sync.WaitGroup
	for i, target := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exps[i], out.Results[i], errs[i] = LearnTarget(ctx, target, cfg, obs[i])
		}()
	}
	wg.Wait()
	for _, exp := range exps {
		if exp != nil {
			defer exp.Close()
		}
	}
	for i, err := range errs {
		if err == nil {
			err = nondetErr(targets[i], out.Results[i])
		}
		if err != nil {
			return out, fmt.Errorf("target %s: %w", targets[i], err)
		}
	}

	out.ModelA, out.ModelB = out.Results[0].Model(), out.Results[1].Model()
	if targetA == targetB {
		// Same target twice: disambiguate the report names.
		out.ModelA.Name, out.ModelB.Name = targetA+"#1", targetB+"#2"
	}
	out.Report = analysis.Diff(out.ModelA, out.ModelB, opt.Witnesses)
	if out.Report.Equivalent || !opt.Replay || len(out.Report.Witnesses) == 0 {
		return out, nil
	}
	var err error
	out.Replayed, err = analysis.ConfirmWitness(ctx, out.Report.Witnesses[0],
		exps[0].Oracle(), exps[1].Oracle())
	return out, err
}

// perTargetPath derives "events.google.jsonl" from "events.jsonl".
func perTargetPath(path, target string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + target + ext
}
