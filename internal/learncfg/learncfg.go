// Package learncfg is the one declarative description of a learning
// configuration — the knobs of `prognosis learn` — and the single code
// path that resolves it into lab functional options. The CLI flag sets
// (internal/cli) and the prognosisd job bodies (internal/server) both
// build experiments through a Config, so the two surfaces cannot drift:
// a flag and its JSON field are the same struct member, registered once
// and resolved once.
package learncfg

import (
	"encoding/json"
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/lab"
	"repro/internal/learn"
	"repro/internal/netem"
)

// Duration is a time.Duration that speaks both surfaces: it registers as
// a flag.Value parsing "200us"-style strings, and (un)marshals JSON as
// either a duration string or a plain nanosecond count.
type Duration time.Duration

// String implements flag.Value.
func (d *Duration) String() string {
	if d == nil {
		return "0s"
	}
	return time.Duration(*d).String()
}

// Set implements flag.Value.
func (d *Duration) Set(s string) error {
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON renders the duration as its canonical string ("200µs").
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or a nanosecond number.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		return d.Set(s)
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("duration must be a string like \"200us\" or a nanosecond count: %s", b)
	}
	*d = Duration(ns)
	return nil
}

// Config is one learning configuration. The zero value is NOT the
// default — build one with Default (per-surface defaults differ only in
// the Defaults knobs) and override fields from flags (Register) or a
// JSON body (json.Unmarshal over the default, so absent fields keep
// their defaults). Marshalling is deliberately explicit (no omitempty):
// a Config rendered by the typed client carries every field, so an
// explicit zero — loss 0 on a diff job whose default impairs the link —
// survives the wire instead of collapsing into "absent, apply default".
type Config struct {
	Learner     string   `json:"learner"`
	Seed        int64    `json:"seed"`
	Perfect     bool     `json:"perfect"`
	Conformance int      `json:"conformance"`
	UDP         bool     `json:"udp"`
	NoCache     bool     `json:"no_cache"`
	Workers     int      `json:"workers"`
	Window      int      `json:"window"`
	RTT         Duration `json:"rtt"`
	Loss        float64  `json:"loss"`
	Duplicate   float64  `json:"dup"`
	Reorder     float64  `json:"reorder"`
	ImpairSeed  int64    `json:"impair_seed"`
	Warmup      int      `json:"warmup"`
	Store       string   `json:"store"`
	AdapterCmd  string   `json:"adapter_cmd"`
}

// Defaults are the per-surface default knobs: `prognosis diff` mildly
// impairs its links and fans out by default, `learn` does not, and the
// daemon picks per-kind defaults the same way.
type Defaults struct {
	Conformance int
	Loss        float64
	Workers     int
}

// Default returns the baseline configuration every surface starts from.
func Default(d Defaults) Config {
	workers := d.Workers
	if workers == 0 {
		workers = 1
	}
	return Config{
		Learner:     "ttt",
		Seed:        13,
		Conformance: d.Conformance,
		Loss:        d.Loss,
		Workers:     workers,
		Warmup:      100,
	}
}

// Register declares one flag per Config field on fs, bound to the
// receiver; the current field values become the flag defaults, so
// Register(fs) on a Default(...) config reproduces the classic
// subcommand defaults exactly.
func (c *Config) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Learner, "learner", c.Learner, "learning algorithm: ttt or lstar")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "seed for all pseudo-randomness")
	fs.BoolVar(&c.Perfect, "perfect", c.Perfect, "use the ground-truth equivalence oracle (QUIC targets only)")
	fs.IntVar(&c.Conformance, "conformance", c.Conformance,
		"strengthen the equivalence search with a Wp-method pass of this depth over the live target (0 disables)")
	fs.BoolVar(&c.UDP, "udp", c.UDP, "run the session over UDP loopback socket pairs (one per worker)")
	fs.BoolVar(&c.NoCache, "no-cache", c.NoCache, "disable the membership-query cache")
	fs.IntVar(&c.Workers, "workers", c.Workers, "membership-query concurrency: fan queries across this many independent SUL instances")
	fs.IntVar(&c.Window, "window", c.Window,
		"start the adaptive in-flight window at this size (AIMD between 1 and -workers; 0 keeps the fixed worker-count limit)")
	fs.Var(&c.RTT, "rtt", "emulate a remote target by adding this round-trip to every exchange (e.g. 200us); it is slept, so a sub-millisecond value is a floor the host's timer rounds up, often to about 1ms")
	fs.Float64Var(&c.Loss, "loss", c.Loss, "per-datagram loss probability injected in each direction of every worker's link")
	fs.Float64Var(&c.Duplicate, "dup", c.Duplicate, "per-datagram probability of duplicating a response")
	fs.Float64Var(&c.Reorder, "reorder", c.Reorder, "per-exchange probability of reordering adjacent response datagrams")
	fs.Int64Var(&c.ImpairSeed, "impair-seed", c.ImpairSeed, "seed for the fault streams (defaults to -seed)")
	fs.IntVar(&c.Warmup, "warmup", c.Warmup,
		"random words driven through each replica before an impaired learn, letting cross-connection state (loss statistics, degraded modes) settle; applied only when a fault flag is set")
	fs.StringVar(&c.Store, "store", c.Store,
		"persistent query-store directory: warm-start the learn from it and keep it fresh (empty = none)")
	fs.StringVar(&c.AdapterCmd, "adapter-cmd", c.AdapterCmd,
		"external adapter command line for -target adapter: each worker spawns one subprocess speaking the symbol-over-stdio protocol (docs/ADAPTER.md)")
}

// Validate rejects configurations no experiment can run: out-of-range
// fault rates, an unknown learner, negative counts. Options calls it, so
// both surfaces fail before an experiment is half-built.
func (c *Config) Validate() error {
	switch lab.LearnerKind(c.Learner) {
	case lab.LearnerTTT, lab.LearnerLStar, "": // "" falls through to lab's default (ttt)
	default:
		return fmt.Errorf("unknown learner %q (want ttt or lstar)", c.Learner)
	}
	for _, rate := range []struct {
		name string
		v    float64
	}{{"loss", c.Loss}, {"dup", c.Duplicate}, {"reorder", c.Reorder}} {
		if rate.v < 0 || rate.v > 1 {
			return fmt.Errorf("%s rate %v outside [0, 1]", rate.name, rate.v)
		}
	}
	if c.Workers < 1 {
		return fmt.Errorf("workers %d < 1", c.Workers)
	}
	if c.Window < 0 {
		return fmt.Errorf("window %d < 0", c.Window)
	}
	if c.Window > c.Workers {
		return fmt.Errorf("window %d exceeds workers %d (the worker count is the hard cap)", c.Window, c.Workers)
	}
	if c.Conformance < 0 {
		return fmt.Errorf("conformance depth %d < 0", c.Conformance)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("warmup %d < 0", c.Warmup)
	}
	if c.RTT < 0 {
		return fmt.Errorf("rtt %v < 0", time.Duration(c.RTT))
	}
	return nil
}

// Impairment assembles the netem config of the fault fields (zero when
// no fault rate is set). The fault seed defaults to the experiment seed.
func (c *Config) Impairment() netem.Config {
	seed := c.ImpairSeed
	if seed == 0 {
		seed = c.Seed
	}
	return netem.Config{
		LossClient: c.Loss, LossServer: c.Loss,
		Duplicate: c.Duplicate, Reorder: c.Reorder,
		Seed: seed,
	}
}

// Options resolves the configuration into lab functional options — the
// single flag→option (and job-body→option) construction path. Observers
// are a per-surface concern (live progress, JSONL files, SSE hubs):
// append lab.WithObserver to the returned slice.
func (c *Config) Options() ([]lab.Option, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	opts := []lab.Option{
		lab.WithSeed(c.Seed),
		lab.WithLearner(lab.LearnerKind(c.Learner)),
		lab.WithWorkers(c.Workers),
		lab.WithRTT(time.Duration(c.RTT)),
		lab.WithConformance(c.Conformance),
	}
	if c.Window > 0 {
		opts = append(opts, lab.WithWindow(learn.WindowConfig{Initial: c.Window}))
	}
	if c.Perfect {
		opts = append(opts, lab.WithPerfectEquivalence())
	}
	if c.NoCache {
		opts = append(opts, lab.WithoutCache())
	}
	if c.UDP {
		// Unsupported combinations (e.g. tcp) are rejected by the target's
		// builder with a clear error rather than silently ignored here.
		opts = append(opts, lab.WithTransport(lab.TransportUDP))
	}
	if impair := c.Impairment(); impair.Enabled() {
		opts = append(opts, lab.WithImpairment(impair))
		if c.Warmup > 0 {
			opts = append(opts, lab.WithWarmup(c.Warmup))
		}
	}
	if c.Store != "" {
		opts = append(opts, lab.WithStore(c.Store))
	}
	if c.AdapterCmd != "" {
		opts = append(opts, lab.WithAdapterCommand(c.AdapterCmd))
	}
	return opts, nil
}

// ParseTargets validates a comma-separated target list against the lab
// registry, shared by flag parsing and job validation.
func ParseTargets(csv string) ([]string, error) {
	known := map[string]bool{}
	for _, t := range lab.Targets() {
		known[t] = true
	}
	var out []string
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown target %q (have: %s)", name, strings.Join(lab.Targets(), ", "))
		}
		out = append(out, name)
	}
	return out, nil
}
