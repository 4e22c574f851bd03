package cli

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/automata"
	"repro/internal/lab"
	"repro/internal/learncfg"
	"repro/internal/metrics"
)

// Learn implements `prognosis learn`: learn one target's model and report
// statistics, optionally exporting the model and checking an LTLf
// property. A nondeterminism halt is a reported outcome here, not an
// error — detecting it is the §5 analysis.
func Learn(args []string) error {
	fs := flag.NewFlagSet("prognosis learn", flag.ContinueOnError)
	target := fs.String("target", "tcp", "target implementation: "+strings.Join(lab.Targets(), ", "))
	dotFile := fs.String("dot", "", "write the learned model as Graphviz dot to this file")
	saveFile := fs.String("save", "", "write the learned model as JSON to this file")
	property := fs.String("property", "", `LTLf property to check on the learned model, e.g. 'G(outHas("CONNECTION_CLOSE") -> G(!outHas("HANDSHAKE_DONE]")))'`)
	depth := fs.Int("depth", 4, "exploration depth for -property")
	metricsFile := fs.String("metrics", "",
		"write the process metrics registry (Prometheus text format) to this file after the run")
	var lf learnFlags
	lf.register(fs, learncfg.Defaults{})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("learn takes no positional arguments (got %v)", fs.Args())
	}

	obs, cleanup, err := lf.observer()
	if err != nil {
		return err
	}
	defer cleanup()
	ctx, stop := signalContext()
	defer stop()
	exp, res, err := LearnTarget(ctx, *target, lf.Config, obs)
	if err != nil {
		return err
	}
	defer exp.Close()
	if *metricsFile != "" {
		var buf bytes.Buffer
		if err := metrics.Default().WriteText(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(*metricsFile, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	if res.Nondet != nil {
		fmt.Printf("target %s: learning paused — nondeterminism detected (§5 analysis)\n", *target)
		fmt.Printf("  witness query: %v\n", res.Nondet.Word)
		fmt.Printf("  %d distinct responses over %d repetitions:\n", len(res.Nondet.Observed), res.Nondet.Votes)
		// Most frequent first, ties by text, so a halted run's report is
		// stable from run to run.
		outs := make([]string, 0, len(res.Nondet.Observed))
		for out := range res.Nondet.Observed {
			outs = append(outs, out)
		}
		sort.Slice(outs, func(i, j int) bool {
			ni, nj := res.Nondet.Observed[outs[i]], res.Nondet.Observed[outs[j]]
			return ni > nj || ni == nj && outs[i] < outs[j]
		})
		for _, out := range outs {
			fmt.Printf("    x%-3d %s\n", res.Nondet.Observed[out], out)
		}
		return nil
	}
	m := res.Machine
	fmt.Printf("target %s: learned model with %d states, %d transitions\n",
		*target, m.NumStates(), m.NumTransitions())
	rm := res.Metrics()
	fmt.Printf("  live membership queries: %d (%d input symbols, %d cache hits)\n",
		rm.Learner.Queries, rm.Learner.Symbols, rm.Learner.Hits)
	fmt.Printf("  wall time: %v\n", rm.Duration)
	if w := rm.Window; w != nil {
		fmt.Printf("  window: %d in flight at finish (bounds %d..%d), %d acquisitions, %d cuts over %d losses, srtt %v\n",
			w.Size, w.Min, w.Max, w.Acquired, w.Decreases, w.Losses, w.SRTT)
	}
	if impair := lf.Config.Impairment(); impair.Enabled() {
		fmt.Printf("  impaired link (%s): dropped %d->/%d<- datagrams, %d duplicated, %d reordered\n",
			impair.Label(), rm.Faults.DroppedClient, rm.Faults.DroppedServer,
			rm.Faults.Duplicated, rm.Faults.Reordered)
		fmt.Printf("  guard: %d flaky queries, %d escalations, %d votes beyond the floor, %d answers settled at the floor by their prediction\n",
			rm.Guard.RetriedQueries, rm.Guard.Escalations, rm.Guard.WastedVotes, rm.Guard.Predicted)
	}
	if rm.Guard.Recasts > 0 {
		fmt.Printf("  voided: %d executions (a late response, a wait closed too early, an adapter crash), each cast again\n", rm.Guard.Recasts)
	}
	fmt.Printf("  traces of length <=10 in model: %d (of %d possible over the alphabet)\n",
		m.CountTraces(10), automata.TotalWords(len(m.Inputs()), 10))
	model := res.Model()
	if *saveFile != "" {
		if err := model.Save(*saveFile); err != nil {
			return err
		}
		fmt.Printf("  model saved to %s\n", *saveFile)
	}
	if *property != "" {
		f, err := analysis.ParseFormula(*property)
		if err != nil {
			return err
		}
		if bad := analysis.CheckLTL(m, f, *depth); bad != nil {
			fmt.Printf("  property VIOLATED; witness trace:\n")
			for i := range bad.Inputs {
				fmt.Printf("    %s / %s\n", bad.Inputs[i], bad.Outputs[i])
			}
		} else {
			fmt.Printf("  property holds on all traces of length %d\n", *depth)
		}
	}
	if *dotFile != "" {
		if err := os.WriteFile(*dotFile, []byte(model.DOT()), 0o644); err != nil {
			return err
		}
		fmt.Printf("  model written to %s\n", *dotFile)
	} else {
		fmt.Println()
		fmt.Print(m.String())
	}
	return nil
}
