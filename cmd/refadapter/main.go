// Command refadapter is the reference external adapter: it wraps the
// in-process Google QUIC simulator behind the symbol-over-stdio
// protocol of internal/adapter, so the engine can learn it as a
// closed-box subprocess (`prognosis learn -target adapter -adapter-cmd
// ./refadapter`). With the same seed, the model learned over the
// protocol is byte-identical to the in-process google target's — the
// adapter boundary adds no behaviour, which the adapter-smoke CI job
// asserts with cmp(1).
//
// Flags:
//
//	-seed N         simulator seed (default 13, matching the engine's
//	                default experiment seed)
//	-profile NAME   quicsim profile (google, google-fixed, quiche,
//	                mvfst, lossy-retransmit)
//	-crash-after N  exit(3) after N QUERYs — a deliberate crash knob
//	                for crash-recovery tests (0 disables)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/adapter"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/quicsim"
)

func main() {
	seed := flag.Int64("seed", 13, "simulator seed")
	profile := flag.String("profile", "google", "quicsim profile to wrap")
	crashAfter := flag.Int("crash-after", 0, "exit(3) after this many QUERYs (0 = never)")
	flag.Parse()

	p, err := lab.QUICProfile(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var sul core.SUL = lab.NewQUIC(p, lab.QUICOptions{Seed: *seed})
	if *crashAfter > 0 {
		sul = &crashingSUL{inner: sul, after: *crashAfter}
	}
	if err := adapter.Serve(os.Stdin, os.Stdout, quicsim.InputAlphabet(), sul); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// crashingSUL kills the process after a fixed number of steps,
// simulating an implementation that dies mid-learn.
type crashingSUL struct {
	inner core.SUL
	after int
	steps int
}

func (c *crashingSUL) Reset() error { return c.inner.Reset() }

func (c *crashingSUL) Step(in string) (string, error) {
	c.steps++
	if c.steps > c.after {
		fmt.Fprintf(os.Stderr, "refadapter: deliberate crash after %d queries\n", c.after)
		os.Exit(3)
	}
	return c.inner.Step(in)
}
