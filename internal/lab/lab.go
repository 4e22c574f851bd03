// Package lab wires complete Prognosis experiments. Targets — the TCP
// stack and the four QUIC implementation profiles this repository
// reproduces — live in a registry (Register/Targets): each target name
// maps to a Builder that constructs any number of independent SUL replicas
// from a declarative BuildSpec, over the in-memory transport or real UDP
// loopback sockets. Experiments are configured with functional options
// (WithWorkers, WithTransport, WithRTT, WithLearner, WithGuard, ...),
// learned with a context (cancellable mid-round), observed through a typed
// event stream, and batched into concurrent Campaigns. The command-line
// tools and the benchmark harness all drive experiments through this
// package.
package lab

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/quicsim"
	"repro/internal/quicwire"
	"repro/internal/reference"
	"repro/internal/synth"
	"repro/internal/tcpsim"
	"repro/internal/tcpwire"
	"repro/internal/transport"
)

// Target names registered by this package.
const (
	TargetTCP         = "tcp"
	TargetGoogle      = "google"
	TargetGoogleFixed = "google-fixed"
	TargetQuiche      = "quiche"
	TargetMvfst       = "mvfst"
	// TargetLossyRetransmit is the retransmission-buggy Google variant:
	// clean-link-identical to TargetGoogle, but enough lost datagrams
	// flip its (connection-leaking) loss recovery into permanent
	// double-send — the scenario target for learning under impairment
	// (WithImpairment, docs/IMPAIRMENT.md).
	TargetLossyRetransmit = "lossy-retransmit"
	// TargetQUICVN is the Google profile with version negotiation and
	// stateless-retry admission enabled: the upgrade/compatibility
	// machine (RFC 9000 §6 + §8.1) over the extended alphabet carrying
	// a grease-versioned Initial.
	TargetQUICVN = "quic-vn"
	// TargetTCPSACK is the TCP stack with SACK blocks and window
	// scaling negotiated on the SYN — out-of-order data is buffered and
	// advertised in SACK options instead of blindly absorbed.
	TargetTCPSACK = "tcp-sack"
	// TargetAdapter is the external-adapter target: a subprocess named
	// by WithAdapterCommand, driven over the symbol-over-stdio protocol
	// of internal/adapter (docs/ADAPTER.md).
	TargetAdapter = "adapter"
)

// QUICProfile resolves a QUIC target name.
func QUICProfile(name string) (quicsim.Profile, error) {
	switch name {
	case TargetGoogle:
		return quicsim.ProfileGoogle, nil
	case TargetGoogleFixed:
		return quicsim.ProfileGoogleFixed, nil
	case TargetQuiche:
		return quicsim.ProfileQuiche, nil
	case TargetMvfst:
		return quicsim.ProfileMvfst, nil
	case TargetLossyRetransmit:
		return quicsim.ProfileLossyRetransmit, nil
	}
	return 0, fmt.Errorf("lab: unknown QUIC target %q", name)
}

// QUICSetup is a wired QUIC system under learning: the simulated server
// behind the instrumented reference client, over any transport.
type QUICSetup struct {
	Server *quicsim.Server
	Client *reference.QUICClient
	// Socket is the UDP client socket under Client's transport (and under
	// any wrapping of it), nil in memory. It judges each execution.
	Socket *transport.QUICClientTransport
	// Host is the UDP socket that serves Server, nil when nothing hosts
	// it. Reset resets Server through it.
	Host *transport.QUICServer

	short   []bool   // per step of this execution: it ended on a short wait
	foreign int      // Client.Foreign when this execution began
	next    []string // the next execution's expected outputs (Expect)
	expect  []string // this execution's expected outputs
	want    string   // the expected output of the step in flight
	// answers is the stop test Step gives the socket: the datagrams heard
	// so far abstract to want.
	answers func(heard [][]byte) bool
}

// Reset implements core.SUL. Over UDP the host discards the requests still
// queued for the server, so no request of an earlier execution reaches it
// after the reset.
func (s *QUICSetup) Reset() error {
	if s.Socket != nil {
		s.Socket.BeginExecution()
		s.short, s.foreign = s.short[:0], s.Client.Foreign()
	}
	s.expect, s.next = s.next, nil
	if s.Host != nil {
		s.Host.Reset()
	} else {
		s.Server.Reset()
	}
	return s.Client.Reset()
}

// Expect implements core.Timed over UDP: each step of the next execution
// whose expected output is not silence ends as soon as the datagrams the
// socket heard, opened with the client's current keys, abstract to it.
// The socket hears the target's whole burst before any wrapping of it
// (netem, middleware) sees a datagram, so an impaired link draws the same
// faults either way. An expected silence still waits the full first wait.
func (s *QUICSetup) Expect(want []string) { s.next = want }

// Finish implements core.Finisher: over UDP, an execution that a late
// response datagram reached fails with learn.ErrLateResponse. The socket
// finds those its drains read; the client finds those that arrived
// inside a wait but belong to an earlier connection. Such a datagram also
// means the target handled an earlier execution's request after this
// one's reset.
func (s *QUICSetup) Finish() error {
	if s.Socket == nil {
		return nil
	}
	late := s.Socket.EndExecution()
	foreign := s.Client.Foreign() - s.foreign
	if late > 0 || foreign > 0 {
		return fmt.Errorf("%w: %d late datagrams, %d packets for an earlier connection",
			learn.ErrLateResponse, late, foreign)
	}
	return nil
}

// Step implements core.SUL.
func (s *QUICSetup) Step(in string) (string, error) {
	if s.Socket == nil {
		return s.Client.Step(in)
	}
	// Every step sets the stop test: a request the link drops never
	// reaches the socket to clear it.
	var until func(heard [][]byte) bool
	if step := len(s.short); step < len(s.expect) && s.expect[step] != silence {
		if s.answers == nil {
			s.answers = func(heard [][]byte) bool { return s.Client.Answers(heard, s.want) }
		}
		s.want, until = s.expect[step], s.answers
	}
	s.Socket.Until(until)
	before, heard := s.Socket.Tally(), s.Client.Heard()
	out, err := s.Client.Step(in)
	after := s.Socket.Tally()
	// A wait may have cut the step short if its exchange ended on a short
	// wait, or on its expected answer, and the client heard just what the
	// socket did: a link between them that dropped or added datagrams
	// explains a difference itself.
	ended := after.Cut > before.Cut || after.Early > before.Early
	s.short = append(s.short, ended && after.Datagrams-before.Datagrams == s.Client.Heard()-heard)
	return out, err
}

// silence is the client's output for a step that heard nothing.
const silence = "{}"

// Short implements core.Timed over UDP: the steps of the execution that
// finished last which a wait short of its ceiling may have cut short.
func (s *QUICSetup) Short() []bool { return slices.Clone(s.short) }

// Truncates implements core.Timed.
func (s *QUICSetup) Truncates(a, b string) bool { return s.Client.Truncates(a, b) }

// Backoff implements core.Timed over UDP.
func (s *QUICSetup) Backoff() { s.Socket.Backoff() }

// QUICOptions tune NewQUIC.
type QUICOptions struct {
	Seed          int64
	RetryRequired bool
	BuggyRetry    bool // client retries from a new port (Issue 3)
	// VersionNegotiation answers unknown-version long headers with a
	// Version Negotiation packet (the quic-vn target).
	VersionNegotiation bool
	// Transport overrides the in-memory transport (e.g. a UDP transport).
	Transport reference.Transport
}

// NewQUIC builds a QUIC system under learning for a profile.
func NewQUIC(profile quicsim.Profile, opts QUICOptions) *QUICSetup {
	if opts.Seed == 0 {
		opts.Seed = 7
	}
	srv := quicsim.NewServer(quicsim.Config{
		Profile: profile, Seed: opts.Seed, RetryRequired: opts.RetryRequired,
		VersionNegotiation: opts.VersionNegotiation,
	})
	tr := opts.Transport
	if tr == nil {
		tr = reference.ServerTransport(srv)
	}
	cli := reference.NewQUICClient(reference.QUICClientConfig{
		Seed: opts.Seed + 4, RetryFromNewPort: opts.BuggyRetry,
	}, tr)
	return &QUICSetup{Server: srv, Client: cli}
}

// TCPSetup is a wired TCP system under learning.
type TCPSetup struct {
	Server *tcpsim.Server
	Client *reference.TCPClient
}

// Reset implements core.SUL.
func (s *TCPSetup) Reset() error {
	s.Server.Reset()
	return s.Client.Reset()
}

// Step implements core.SUL.
func (s *TCPSetup) Step(in string) (string, error) { return s.Client.Step(in) }

// NewTCP builds the TCP system under learning: the userspace stack behind
// the instrumented Scapy-style client, exchanging checksummed binary
// segments.
func NewTCP(seed int64) *TCPSetup { return newTCPVariant(seed, nil, false) }

// newTCPVariant builds a TCP setup, optionally threading the segment path
// through a transport wrapper (how WithImpairment and WithLinkMiddleware
// reach the TCP targets: segments ride the same reference.Transport as
// QUIC datagrams).
func newTCPVariant(seed int64, wrap func(reference.Transport) reference.Transport, sack bool) *TCPSetup {
	if seed == 0 {
		seed = 5
	}
	srv := tcpsim.NewServer(tcpsim.Config{Port: 44344, Seed: seed, StrictAckCheck: true, SACK: sack})
	src := [4]byte{10, 0, 0, 2}
	dst := [4]byte{10, 0, 0, 1}
	var tr reference.Transport = reference.TransportFunc(func(_ string, raw []byte) [][]byte {
		seg, err := tcpwire.Decode(raw, src, dst)
		if err != nil {
			return nil
		}
		var out [][]byte
		for _, resp := range srv.Handle(seg) {
			out = append(out, resp.Encode(dst, src))
		}
		return out
	})
	if wrap != nil {
		tr = wrap(tr)
	}
	cli := reference.NewTCPClient(reference.TCPClientConfig{
		Seed: seed + 2, DstPort: 44344, SrcAddr: src, DstAddr: dst,
	}, tr)
	return &TCPSetup{Server: srv, Client: cli}
}

// Remote wraps an SUL so that every reset and every step costs one
// emulated network round-trip, turning an in-process simulator into a
// stand-in for a containerised implementation. The round-trip is a
// time.Sleep, so rtt is a floor, not the delay: the host's timer rounds
// short sleeps up, and on a 2-core Linux host a 200µs sleep took
// 1.1 ms on average (a 50µs sleep about 1.0 ms). Below about a
// millisecond, an emulated link is slower than the rtt it names.
func Remote(sul core.SUL, rtt time.Duration) core.SUL {
	return &remoteSUL{inner: sul, rtt: rtt}
}

type remoteSUL struct {
	inner core.SUL
	rtt   time.Duration
}

func (r *remoteSUL) Reset() error {
	time.Sleep(r.rtt)
	return r.inner.Reset()
}

func (r *remoteSUL) Step(in string) (string, error) {
	time.Sleep(r.rtt)
	return r.inner.Step(in)
}

func (r *remoteSUL) Finish() error { return core.Finish(r.inner) }

// CollectSDBTrace runs one concrete word against a fresh connection and
// returns its synthesis trace for the Issue 4 experiment and the refinement
// loop: the input parameter is the MAX_STREAM_DATA limit the client granted
// (0 when the symbol carries none), the output parameter is the Maximum
// Stream Data field of any STREAM_DATA_BLOCKED frame in a
// BlockedOutputLabel response.
func CollectSDBTrace(setup *QUICSetup, word []string) (synth.Trace, error) {
	return collect(setup.Reset, setup.Client.StepExchange, word, func(ex reference.Exchange) synth.Step {
		step := synth.Step{Input: ex.AbstractIn, InVals: []int64{0}}
		for _, cp := range ex.ConcreteIn {
			for _, f := range cp.Frames {
				if f.Type == quicwire.FrameMaxStreamData {
					step.InVals[0] = int64(f.Limit)
				}
			}
		}
		if ex.AbstractOut == BlockedOutputLabel {
			for _, cp := range ex.ConcreteOut {
				for _, f := range cp.Frames {
					if f.Type == quicwire.FrameStreamDataBlocked {
						step.OutVals = []int64{int64(f.Limit)}
					}
				}
			}
		}
		return step
	})
}

// CollectTCPTrace runs one concrete word against a fresh connection and
// returns its synthesis trace over (sequence, acknowledgement) numbers. The
// SYN-ACK's acknowledgement field is the output parameter — the register
// relationship of Fig. 3(c).
func CollectTCPTrace(setup *TCPSetup, word []string) (synth.Trace, error) {
	return collect(setup.Reset, setup.Client.StepExchange, word, func(ex reference.TCPExchange) synth.Step {
		step := synth.Step{
			Input:  ex.AbstractIn,
			InVals: []int64{int64(ex.ConcreteIn.SeqNumber), int64(ex.ConcreteIn.AckNumber)},
		}
		if len(ex.ConcreteOut) > 0 && ex.AbstractOut == "SYN+ACK(?,?,0)" {
			step.OutVals = []int64{int64(ex.ConcreteOut[0].AckNumber)}
		}
		return step
	})
}

// collect resets the endpoints, runs one word and converts each exchange
// into a synthesis step.
func collect[E any](reset func() error, step func(string) (E, error), word []string, conv func(E) synth.Step) (synth.Trace, error) {
	if err := reset(); err != nil {
		return nil, err
	}
	var tr synth.Trace
	for _, sym := range word {
		ex, err := step(sym)
		if err != nil {
			return nil, err
		}
		tr = append(tr, conv(ex))
	}
	return tr, nil
}

// BlockedOutputLabel is the abstract output symbol carrying the
// STREAM_DATA_BLOCKED frame in the Google profiles.
const BlockedOutputLabel = "{SHORT(?,?)[ACK,STREAM,STREAM_DATA_BLOCKED]}"

// SDBProblem collects the flow-control traces of the Issue 4 experiment on
// setup and assembles the synthesis problem over a learned Google model:
// one register (tracking the granted limit) and the blocked output's
// Maximum Stream Data parameter.
func SDBProblem(model *automata.Mealy, setup *QUICSetup) (*synth.Problem, error) {
	// Each word completes the handshake, then sends stream data with or
	// without a MAX_STREAM_DATA grant (FC) in between.
	data, fc := quicsim.SymShortStream, quicsim.SymShortFC
	var traces []synth.Trace
	for _, after := range [][]string{{data, data, fc, data}, {data, data, data}, {fc, data, data, data}} {
		word := append([]string{quicsim.SymInitialCrypto, quicsim.SymHandshakeC}, after...)
		tr, err := CollectSDBTrace(setup, word)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	return &synth.Problem{
		Machine:        model,
		NumRegisters:   1,
		NumInputParams: 1,
		OutputParams:   map[string]int{BlockedOutputLabel: 1},
		InitRegs:       []int64{quicsim.Chunk},
		Consts:         []int64{0},
		Positive:       traces,
	}, nil
}

// TCPProblem collects the handshake traces of Fig. 3(c) on setup and
// assembles the synthesis problem over a learned TCP model: one register
// and the SYN-ACK's acknowledgement number as output parameter.
func TCPProblem(model *automata.Mealy, setup *TCPSetup) (*synth.Problem, error) {
	var traces []synth.Trace
	for _, w := range [][]string{
		{"SYN(?,?,0)", "ACK(?,?,0)"},
		{"SYN(?,?,0)", "ACK(?,?,0)", "ACK+PSH(?,?,1)"},
		{"ACK(?,?,0)", "SYN(?,?,0)"},
	} {
		tr, err := CollectTCPTrace(setup, w)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	return &synth.Problem{
		Machine:        model,
		NumRegisters:   1,
		NumInputParams: 2, // (seq, ack)
		OutputParams:   map[string]int{"SYN+ACK(?,?,0)": 1},
		Consts:         []int64{0},
		Positive:       traces,
	}, nil
}
