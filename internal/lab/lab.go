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
	"time"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/quicsim"
	"repro/internal/quicwire"
	"repro/internal/reference"
	"repro/internal/synth"
	"repro/internal/tcpsim"
	"repro/internal/tcpwire"
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
}

// Reset implements core.SUL.
func (s *QUICSetup) Reset() error {
	s.Server.Reset()
	return s.Client.Reset()
}

// Step implements core.SUL.
func (s *QUICSetup) Step(in string) (string, error) { return s.Client.Step(in) }

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
