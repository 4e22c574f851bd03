package cli

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/lab"
	"repro/internal/learn"
	"repro/internal/learncfg"
)

// Check implements `prognosis check`: run the builtin model-level property
// set (plus an optional LTLf formula) against a model — learned live from
// a registry target, or loaded from a saved DOT/JSON file. It returns an
// error (exit code 1) when any property is violated, so CI can gate on it.
func Check(args []string) error {
	fs := flag.NewFlagSet("prognosis check", flag.ContinueOnError)
	target := fs.String("target", "", "learn this registry target and check the learned model: "+strings.Join(lab.Targets(), ", "))
	modelFile := fs.String("model", "", "check a model loaded from this DOT or JSON file instead of learning")
	property := fs.String("property", "", "additional LTLf property to check (see `prognosis learn -h`)")
	depth := fs.Int("depth", 4, "exploration depth for -property")
	var lf learnFlags
	lf.register(fs, learncfg.Defaults{Conformance: 2})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("check takes no positional arguments (got %v)", fs.Args())
	}

	model, err := resolveModel(*target, *modelFile, &lf)
	if err != nil {
		return err
	}
	out, err := CheckModel(model, *property, *depth)
	if err != nil {
		return err
	}
	fmt.Printf("checking %s (%d states, %d transitions) against %d builtin properties\n",
		model.Name, model.States(), model.Transitions(), len(analysis.Builtins()))
	fmt.Print(indent(out.Report))
	if out.Violations > 0 {
		return fmt.Errorf("%d propert%s violated", out.Violations, pluralY(out.Violations))
	}
	fmt.Println("all properties hold")
	return nil
}

// CheckOutcome is the check verb's result: the checked model, the
// learning run it came from (nil for a model loaded from a file), and the
// property report.
type CheckOutcome struct {
	Model      *analysis.Model
	Result     *lab.Result
	Violations int
	// Report has one PASS/FAIL line per property, each FAIL followed by
	// its witness. prognosisd serves it as a check job's witness.txt;
	// `prognosis check` prints it indented under a header.
	Report string
}

// RunCheck is the check verb over a registry target: learn it (a
// nondeterminism halt is an error — there is no model to check) and check
// the model with CheckModel. The outcome is never nil; its Result is set
// whenever learning finished, so callers can report the run's counters
// even when err is non-nil.
func RunCheck(ctx context.Context, target string, cfg learncfg.Config, obs learn.Observer,
	property string, depth int) (*CheckOutcome, error) {
	exp, res, err := LearnTarget(ctx, target, cfg, obs)
	if err != nil {
		return &CheckOutcome{}, err
	}
	exp.Close()
	if err := nondetErr(target, res); err != nil {
		return &CheckOutcome{Result: res}, err
	}
	out, err := CheckModel(res.Model(), property, depth)
	out.Result = res
	return out, err
}

// CheckModel runs the builtin property set, plus property when non-empty
// (an LTLf formula explored to depth), against model.
func CheckModel(model *analysis.Model, property string, depth int) (*CheckOutcome, error) {
	out := &CheckOutcome{Model: model}
	var b strings.Builder
	for _, r := range analysis.CheckAll(model) {
		if r.OK() {
			fmt.Fprintf(&b, "PASS %s — %s\n", r.Property.Name(), r.Property.Describe())
			continue
		}
		out.Violations++
		fmt.Fprintf(&b, "FAIL %s — %s\n%s", r.Property.Name(), r.Violation.Detail, r.Violation.Witness.String())
	}
	if property != "" {
		f, err := analysis.ParseFormula(property)
		if err != nil {
			return out, err
		}
		if bad := analysis.CheckLTL(model.Mealy(), f, depth); bad != nil {
			out.Violations++
			w := analysis.Witness{Word: bad.Inputs, Outputs: bad.Outputs}
			fmt.Fprintf(&b, "FAIL %s\n%s", property, w.String())
		} else {
			fmt.Fprintf(&b, "PASS %s (all traces of length %d)\n", property, depth)
		}
	}
	out.Report = b.String()
	return out, nil
}

// resolveModel produces the model a subcommand analyses: loaded from a
// file, or learned live from a registry target.
func resolveModel(target, modelFile string, lf *learnFlags) (*analysis.Model, error) {
	switch {
	case target != "" && modelFile != "":
		return nil, fmt.Errorf("pass -target or -model, not both")
	case modelFile != "":
		return analysis.LoadModel(modelFile)
	case target != "":
		obs, cleanup, err := lf.observer()
		if err != nil {
			return nil, err
		}
		defer cleanup()
		ctx, stop := signalContext()
		defer stop()
		exp, res, err := LearnTarget(ctx, target, lf.Config, obs)
		if err != nil {
			return nil, err
		}
		exp.Close()
		if err := nondetErr(target, res); err != nil {
			return nil, err
		}
		return res.Model(), nil
	default:
		return nil, fmt.Errorf("need -target <name> or -model <file>")
	}
}

func indent(s string) string {
	return "  " + strings.TrimSuffix(strings.ReplaceAll(s, "\n", "\n  "), "  ")
}

func pluralY(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}
