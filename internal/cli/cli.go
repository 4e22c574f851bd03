// Package cli owns the prognosis verbs — learn, diff, check, export,
// regress, monitor, reproduce — over the unified analysis plane. Each
// verb's work lives in exactly one exported function that returns a
// structured outcome (LearnTarget, RunDiff, RunCheck, RunRegress,
// RunMonitorCycle, RunReproduce);
// the subcommands here and prognosisd's jobs (internal/server) both call
// those functions and differ only in how they render the outcome. Every
// subcommand owns its flag set, installs Ctrl-C cancellation, and speaks
// the same learning options (the shared learncfg.Config, which prognosisd
// job bodies also resolve through), so `learn`'s flags work unchanged on
// `diff`, `check`, and `export`.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"repro/internal/lab"
	"repro/internal/learn"
	"repro/internal/learncfg"
)

// Main dispatches a prognosis invocation: the first argument selects the
// subcommand, and — for compatibility with the pre-subcommand tool — an
// invocation that starts with a flag runs `learn`. It returns the process
// exit code.
func Main(args []string, stderr io.Writer) int {
	if len(args) == 0 {
		Usage(stderr)
		return 2
	}
	var err error
	switch cmd := args[0]; cmd {
	case "learn":
		err = Learn(args[1:])
	case "diff":
		err = Diff(args[1:])
	case "check":
		err = Check(args[1:])
	case "export":
		err = Export(args[1:])
	case "regress":
		err = Regress(args[1:])
	case "monitor":
		err = Monitor(args[1:])
	case "reproduce":
		err = Reproduce(args[1:])
	case "help", "-h", "-help", "--help":
		Usage(stderr)
		return 0
	default:
		if len(cmd) > 0 && cmd[0] == '-' {
			err = Learn(args) // legacy flag-form invocation
			break
		}
		fmt.Fprintf(stderr, "prognosis: unknown subcommand %q\n\n", cmd)
		Usage(stderr)
		return 2
	}
	if err == flag.ErrHelp {
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "prognosis:", err)
		return 1
	}
	return 0
}

// Usage prints the subcommand overview.
func Usage(w io.Writer) {
	fmt.Fprint(w, `prognosis — closed-box protocol analysis (learn, then analyse, the model)

Usage:

  prognosis learn  -target <name> [options]       learn a model, report statistics
  prognosis diff   [options] <targetA> <targetB>  learn both, diff, replay the witness live
  prognosis check  -target <name> | -model <file> check model-level properties
  prognosis export -target <name> | -model <file> write the model in the unified codecs
  prognosis regress [-manifest F] [-store dir]    relearn manifest targets (warm), gate on goldens
  prognosis monitor [-manifest F] [-data dir]     relearn manifest cells, alarm on live-confirmed drift
  prognosis reproduce [-seed N] [-impair target]  regenerate the paper's §6 table, paper vs measured

Run any subcommand with -h for its options. Invoking prognosis with
learn-style flags and no subcommand (e.g. 'prognosis -target tcp')
behaves like 'learn', matching the pre-subcommand interface; a bare
'prognosis' prints this usage.
`)
}

// signalContext returns a context cancelled by Ctrl-C.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt)
}

// learnFlags is the shared learning configuration every subcommand
// understands: the declarative learncfg.Config (the same struct a
// prognosisd job body unmarshals into, so CLI and API resolve through
// one code path) plus the CLI-only output knobs.
type learnFlags struct {
	learncfg.Config
	verbose    bool
	eventsFile string
}

// register declares the shared flags on fs. The defaults are
// per-subcommand (diff mildly impairs its links by default; learn does
// not) and flow through learncfg.Default, the same baseline the daemon
// applies to job bodies.
func (f *learnFlags) register(fs *flag.FlagSet, d learncfg.Defaults) {
	f.Config = learncfg.Default(d)
	f.Config.Register(fs)
	fs.BoolVar(&f.verbose, "v", false, "stream live learning progress to stderr")
	fs.StringVar(&f.eventsFile, "events", "", "append the typed event stream as JSON lines to this file")
}

// observer assembles the CLI-only observers (-v progress, -events JSON
// lines) into one, nil when neither is set; the returned cleanup closes
// the events file, if any.
func (f *learnFlags) observer() (learn.Observer, func(), error) {
	cleanup := func() {}
	var observers []learn.Observer
	if f.verbose {
		observers = append(observers, progressObserver{})
	}
	if f.eventsFile != "" {
		file, err := os.OpenFile(f.eventsFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		cleanup = func() { file.Close() }
		observers = append(observers, learn.NewJSONLObserver(file))
	}
	if len(observers) == 0 {
		return nil, cleanup, nil
	}
	return learn.MultiObserver(observers...), cleanup, nil
}

// LearnTarget is the one build-and-learn step behind every verb, on both
// surfaces: it builds target's experiment from cfg through the shared
// learncfg option path, installs obs (when non-nil), and learns. The
// experiment stays open so callers can replay witnesses against the live
// target; callers must Close it. A §5 nondeterminism halt is a result
// (res.Nondet), not an error — see nondetErr for verbs that need a model.
func LearnTarget(ctx context.Context, target string, cfg learncfg.Config, obs learn.Observer) (*lab.Experiment, *lab.Result, error) {
	opts, err := cfg.Options()
	if err != nil {
		return nil, nil, err
	}
	if obs != nil {
		opts = append(opts, lab.WithObserver(obs))
	}
	exp, err := lab.NewExperiment(target, opts...)
	if err != nil {
		return nil, nil, err
	}
	res, err := exp.Learn(ctx)
	if err != nil {
		exp.Close()
		return nil, nil, err
	}
	return exp, res, nil
}

// nondetErr turns a nondeterminism halt into an error, for the verbs that
// need a model to analyse.
func nondetErr(target string, res *lab.Result) error {
	if res.Nondet != nil {
		return fmt.Errorf("target %s is nondeterministic: %v", target, res.Nondet)
	}
	return nil
}

// progressObserver renders the event stream as -v live progress.
type progressObserver struct{}

func (progressObserver) OnEvent(e learn.Event) {
	switch ev := e.(type) {
	case learn.RoundStarted:
		fmt.Fprintf(os.Stderr, "round %d: building hypothesis...\n", ev.Round)
	case learn.HypothesisReady:
		fmt.Fprintf(os.Stderr, "round %d: hypothesis with %d states / %d transitions\n",
			ev.Round, ev.States, ev.Transitions)
	case learn.CounterexampleFound:
		fmt.Fprintf(os.Stderr, "round %d: counterexample %v\n", ev.Round, ev.Word)
	case learn.CacheSnapshot:
		fmt.Fprintf(os.Stderr, "round %d: %d live queries, %d cache hits, %d cached prefixes\n",
			ev.Round, ev.LiveQueries, ev.Hits, ev.Entries)
	case learn.NondeterminismDetected:
		fmt.Fprintf(os.Stderr, "nondeterminism: %d alternatives after %d votes on %v\n",
			ev.Alternatives, ev.Votes, ev.Word)
	case learn.GuardEscalated:
		fmt.Fprintf(os.Stderr, "guard: escalated to %d votes after %d (fault rate %.3f) on %v\n",
			ev.Budget, ev.Votes, ev.FaultRate, ev.Word)
	case learn.WindowResized:
		fmt.Fprintf(os.Stderr, "window: %d -> %d in flight (srtt %v)\n", ev.From, ev.To, ev.SRTT)
	}
}
