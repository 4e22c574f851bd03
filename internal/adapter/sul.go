package adapter

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/learn"
	"repro/internal/metrics"
)

// Process-wide adapter counters, scraped alongside every other family
// (docs/MONITORING.md). prognosis learn -metrics dumps them for CI.
var (
	queriesTotal = metrics.Default().Counter("prognosis_adapter_queries_total",
		"Symbols sent to subprocess adapters over the stdio protocol.")
	restartsTotal = metrics.Default().Counter("prognosis_adapter_restarts_total",
		"Adapter subprocess restarts (crash, query deadline, or protocol desync).")
	querySeconds = metrics.Default().Histogram("prognosis_adapter_query_seconds",
		"Latency of one adapter QUERY round-trip.",
		[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5})
)

// Config describes one adapter subprocess.
type Config struct {
	// Command is the adapter command line, split on whitespace and run
	// directly (no shell) so crash handling and CI kill tests hit the
	// adapter binary itself, never an intermediate sh.
	Command string
	// QueryTimeout bounds every protocol round-trip (handshake, RESET,
	// QUERY). Default 5s. After a timeout the reply stream is
	// desynced, so a deadline always costs a restart.
	QueryTimeout time.Duration
	// MaxRestarts bounds the executions in a row a subprocess may die in:
	// the next one to die fails with ErrRestartsExhausted instead of
	// being voided. Default 3.
	MaxRestarts int
	// OnRestart, when non-nil, observes every restart with the
	// lifetime restart count and the reason. The lab builder forwards
	// it as a typed learn event.
	OnRestart func(restarts int, reason string)
}

// SUL runs one adapter subprocess as a core.SUL. It is not safe for
// concurrent use; the pool gives each worker its own (New per
// replica).
//
// When the subprocess dies, times out, or desyncs the protocol, the
// execution it was running is cut short: the SUL tears the subprocess
// down and fails the operation with an error wrapping learn.ErrVoided,
// so the §5 guard casts the execution again, and the next Reset spawns a
// fresh subprocess. No answer of a dead subprocess outlives it: every
// answer comes from one boot.
type SUL struct {
	cfg      Config
	argv     []string
	p        *proc
	alphabet []string
	restarts int
	// crashes counts the executions in a row the subprocess died in.
	crashes int
}

// New spawns the adapter subprocess and performs the HELLO handshake,
// returning the SUL with the adapter's advertised alphabet.
func New(cfg Config) (*SUL, error) {
	argv := strings.Fields(cfg.Command)
	if len(argv) == 0 {
		return nil, &Error{Op: OpStart, Reason: "empty adapter command"}
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 5 * time.Second
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 3
	}
	s := &SUL{cfg: cfg, argv: argv}
	if err := s.spawn(); err != nil {
		return nil, err
	}
	return s, nil
}

// Alphabet returns the input alphabet the adapter advertised in its
// HELLO reply.
func (s *SUL) Alphabet() []string { return append([]string(nil), s.alphabet...) }

// Restarts returns the lifetime restart count.
func (s *SUL) Restarts() int { return s.restarts }

// spawn starts the subprocess and runs the HELLO handshake. On
// success s.p is live and the implementation is in its initial state
// (a fresh process is, by definition, unreset-but-initial; spawn still
// sends RESET so adapters wrapping stateful harnesses start clean).
func (s *SUL) spawn() error {
	p, err := startProc(s.argv)
	if err != nil {
		return &Error{Op: OpStart, Cmd: s.cfg.Command, Reason: "spawning adapter", Err: err}
	}
	r, err := s.roundTrip(p, Command{Kind: CmdHello, Version: Version})
	if err != nil {
		p.stop()
		return err
	}
	if r.Kind != RepHello {
		p.stop()
		return &Error{Op: OpStart, Cmd: s.cfg.Command,
			Reason: fmt.Sprintf("handshake answered %s, want HELLO", r.Kind)}
	}
	if r.Version != Version {
		p.stop()
		return &Error{Op: OpStart, Cmd: s.cfg.Command,
			Reason: fmt.Sprintf("adapter speaks protocol version %d, engine speaks %d", r.Version, Version)}
	}
	if s.alphabet == nil {
		s.alphabet = r.Alphabet
	} else if !equalStrings(s.alphabet, r.Alphabet) {
		p.stop()
		return &Error{Op: OpStart, Cmd: s.cfg.Command,
			Reason: "adapter advertised a different alphabet after restart"}
	}
	if r, err = s.roundTrip(p, Command{Kind: CmdReset}); err != nil {
		p.stop()
		return err
	}
	if r.Kind != RepOK {
		p.stop()
		return &Error{Op: OpReset, Cmd: s.cfg.Command,
			Reason: fmt.Sprintf("initial RESET answered %s, want OK", r.Kind)}
	}
	s.p = p
	return nil
}

// roundTrip sends one command on p and parses the reply.
func (s *SUL) roundTrip(p *proc, c Command) (Reply, error) {
	line, err := EncodeCommand(c)
	if err != nil {
		return Reply{}, err
	}
	if err := p.send(line); err != nil {
		return Reply{}, err
	}
	resp, err := p.recv(s.cfg.QueryTimeout)
	if err != nil {
		return Reply{}, err
	}
	r, err := ParseReply(resp)
	if err != nil {
		return Reply{}, &Error{Op: OpQuery, Cmd: s.cfg.Command, Reason: "unparseable reply", Err: err}
	}
	return r, nil
}

// teardown kills the current subprocess (nil-safe).
func (s *SUL) teardown() {
	if s.p != nil {
		s.p.stop()
		s.p = nil
	}
}

// cut tears down the subprocess whose execution err cut short and
// returns err wrapped in learn.ErrVoided; the next Reset spawns a fresh
// subprocess. A subprocess that died in more than MaxRestarts executions
// in a row fails with ErrRestartsExhausted instead.
func (s *SUL) cut(err error) error {
	s.teardown()
	if s.crashes++; s.crashes > s.cfg.MaxRestarts {
		return &Error{Op: OpExit, Cmd: s.cfg.Command,
			Reason: fmt.Sprintf("giving up after %d executions in a row died", s.crashes),
			Err:    errors.Join(ErrRestartsExhausted, err)}
	}
	s.restarts++
	restartsTotal.Inc()
	if s.cfg.OnRestart != nil {
		s.cfg.OnRestart(s.restarts, err.Error())
	}
	return fmt.Errorf("%w: %w", learn.ErrVoided, err)
}

// Reset implements core.SUL: return the implementation to its initial
// state, in a fresh subprocess when the last one died.
func (s *SUL) Reset() error {
	if s.p == nil {
		if err := s.spawn(); err != nil {
			return s.cut(err)
		}
		return nil
	}
	s.crashes = 0
	r, err := s.roundTrip(s.p, Command{Kind: CmdReset})
	if err != nil {
		return s.cut(err)
	}
	switch r.Kind {
	case RepOK:
		return nil
	case RepErr:
		return &Error{Op: OpAnswer, Cmd: s.cfg.Command, Reason: "RESET failed: " + r.Msg}
	}
	return s.cut(&Error{Op: OpReset, Cmd: s.cfg.Command,
		Reason: fmt.Sprintf("RESET answered %s, want OK", r.Kind)})
}

// Step implements core.SUL: run one input symbol and return the
// abstract output. A crash, deadline, or protocol desync voids the
// execution (see SUL); an ERR reply from the adapter surfaces as a
// typed *Error without a restart.
func (s *SUL) Step(in string) (string, error) {
	if s.p == nil {
		return "", fmt.Errorf("%w: adapter subprocess is down", learn.ErrVoided)
	}
	queriesTotal.Inc()
	start := time.Now()
	defer func() { querySeconds.Observe(time.Since(start).Seconds()) }()
	r, err := s.roundTrip(s.p, Command{Kind: CmdQuery, Input: in})
	if err != nil {
		return "", s.cut(err)
	}
	switch r.Kind {
	case RepOut:
		return strings.Join(r.Outputs, " "), nil
	case RepErr:
		return "", &Error{Op: OpAnswer, Cmd: s.cfg.Command,
			Reason: fmt.Sprintf("QUERY %q failed: %s", in, r.Msg)}
	}
	return "", s.cut(&Error{Op: OpQuery, Cmd: s.cfg.Command,
		Reason: fmt.Sprintf("QUERY answered %s, want OUT", r.Kind)})
}

// Close reaps the subprocess and its pump goroutines. Always safe.
func (s *SUL) Close() error {
	s.teardown()
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
