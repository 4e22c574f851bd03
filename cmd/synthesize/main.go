// Command synthesize runs the §4.3 pipeline: learn a model, collect
// concrete traces into the Oracle Table, and synthesize an extended Mealy
// machine with registers explaining a chosen numeric field.
//
// Two experiments are built in:
//
//	-experiment sdb  (default) — the Maximum Stream Data field of
//	  STREAM_DATA_BLOCKED frames (Issue 4 / Appendix B.1). Against the
//	  google target the field synthesizes to the constant 0, exposing the
//	  forgotten placeholder; against google-fixed it tracks the granted
//	  limit through a register.
//	-experiment tcp — the SYN-ACK acknowledgement number of the TCP stack
//	  (Fig. 3(c)): ack = client sequence number + 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/automata"
	"repro/internal/lab"
	"repro/internal/quicsim"
	"repro/internal/synth"
)

func main() {
	experiment := flag.String("experiment", "sdb", "experiment: sdb or tcp")
	target := flag.String("target", "google", "QUIC target for -experiment sdb: google or google-fixed")
	seed := flag.Int64("seed", 29, "seed for all pseudo-randomness")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch *experiment {
	case "sdb":
		err = runSDB(ctx, *target, *seed)
	case "tcp":
		err = runTCP(ctx, *seed)
	default:
		err = fmt.Errorf("unknown experiment %q", *experiment)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "synthesize:", err)
		os.Exit(1)
	}
}

func runSDB(ctx context.Context, target string, seed int64) error {
	res, err := learnOne(ctx, target, lab.WithSeed(seed), lab.WithPerfectEquivalence())
	if err != nil {
		return err
	}
	profile, err := lab.QUICProfile(target)
	if err != nil {
		return err
	}
	setup := lab.NewQUIC(profile, lab.QUICOptions{Seed: seed})
	words := [][]string{
		{quicsim.SymInitialCrypto, quicsim.SymHandshakeC, quicsim.SymShortStream,
			quicsim.SymShortStream, quicsim.SymShortFC, quicsim.SymShortStream},
		{quicsim.SymInitialCrypto, quicsim.SymHandshakeC, quicsim.SymShortStream,
			quicsim.SymShortStream, quicsim.SymShortStream},
		{quicsim.SymInitialCrypto, quicsim.SymHandshakeC, quicsim.SymShortFC,
			quicsim.SymShortStream, quicsim.SymShortStream, quicsim.SymShortStream},
	}
	var traces []synth.Trace
	for _, w := range words {
		tr, err := lab.CollectSDBTrace(setup, w, lab.BlockedOutputLabel)
		if err != nil {
			return err
		}
		traces = append(traces, tr)
	}
	em, err := synth.Synthesize(lab.SDBProblem(res.Machine, traces))
	if err != nil {
		return err
	}
	fmt.Printf("synthesized extended machine for %s over the Maximum Stream Data field:\n\n", target)
	printBlockedTerms(em, res.Machine.NumStates())
	fmt.Println()
	fmt.Print(em)
	return nil
}

// printBlockedTerms summarizes the output terms on blocked transitions —
// the one-line verdict the Issue 4 analysis produces.
func printBlockedTerms(em *synth.ExtendedMealy, states int) {
	constantZero := true
	for s := 0; s < states; s++ {
		outs := em.OutputsFor(automata.State(s), quicsim.SymShortStream)
		for _, o := range outs {
			fmt.Printf("  state s%d: Maximum Stream Data = %s\n", s, o)
			if o.String() != "0" {
				constantZero = false
			}
		}
	}
	if constantZero {
		fmt.Println("  VERDICT: the field is the constant 0 — never updated (Issue 4, confirmed by Google developers)")
	} else {
		fmt.Println("  VERDICT: the field tracks connection state (correct behaviour)")
	}
}

func runTCP(ctx context.Context, seed int64) error {
	res, err := learnOne(ctx, lab.TargetTCP, lab.WithSeed(seed))
	if err != nil {
		return err
	}
	setup := lab.NewTCP(seed)
	p, err := lab.TCPProblem(res.Machine, setup)
	if err != nil {
		return err
	}
	em, err := synth.Synthesize(p)
	if err != nil {
		return err
	}
	fmt.Println("synthesized extended machine for the TCP SYN-ACK acknowledgement number:")
	fmt.Println("(expected relationship: ack = client seq + 1, cf. Fig. 3(c))")
	fmt.Println()
	fmt.Print(em)
	return nil
}

// learnOne runs one experiment, treating nondeterminism as fatal (the
// synthesis pipeline needs a learned model).
func learnOne(ctx context.Context, target string, opts ...lab.Option) (*lab.Result, error) {
	res, err := lab.Run(ctx, target, opts...)
	if err != nil {
		return nil, err
	}
	if res.Nondet != nil {
		return nil, fmt.Errorf("target %s is nondeterministic: %v", target, res.Nondet)
	}
	return res, nil
}
