// Package tcpsim implements the TCP system under learning: a userspace TCP
// server endpoint processing real wire-format segments with sequence- and
// acknowledgement-number arithmetic.
//
// The endpoint stands in for the Ubuntu 20.04 kernel stack analyzed in
// §6.1 of the paper (see DESIGN.md, substitutions). Its observable
// behaviour over the paper's seven-symbol abstract alphabet is a six-state,
// 42-transition Mealy machine, matching the size the paper reports for the
// kernel stack. The connection lifecycle is: LISTEN → SYN_RCVD →
// ESTABLISHED → CLOSE_WAIT → LAST_ACK → CLOSED, where the server
// application closes its end after the client's FIN (the passive-close path
// of RFC 793 §3.5), and a closed one-shot server answers further traffic
// with RST.
package tcpsim

import (
	"math/rand"
	"sync"

	"repro/internal/tcpwire"
)

// connState enumerates the endpoint's connection states.
type connState int

// Connection states (passive-open lifecycle).
const (
	StateListen connState = iota
	StateSynRcvd
	StateEstablished
	StateCloseWait
	StateLastAck
	StateClosed
)

var stateNames = map[connState]string{
	StateListen:      "LISTEN",
	StateSynRcvd:     "SYN_RCVD",
	StateEstablished: "ESTABLISHED",
	StateCloseWait:   "CLOSE_WAIT",
	StateLastAck:     "LAST_ACK",
	StateClosed:      "CLOSED",
}

func (s connState) String() string { return stateNames[s] }

// Config parameterizes the server.
type Config struct {
	// Port is the server's listening port; segments to other ports are
	// answered with RST as if the port were closed.
	Port uint16
	// Seed drives initial sequence number generation. The same seed yields
	// the same ISS series across resets, keeping learning deterministic.
	Seed int64
	// Window advertised in outgoing segments.
	Window uint16
	// StrictAckCheck, when true, validates acknowledgement numbers in
	// SYN_RCVD and resets the connection on a bad ACK (RFC 793 behaviour).
	StrictAckCheck bool
	// SACK enables RFC 2018 selective acknowledgements and RFC 1323
	// window scaling: the server negotiates both on SYNs that offer them,
	// and a SACK-negotiated connection becomes sequence-aware — in-order
	// data advances rcvNxt, one out-of-order block is buffered and
	// advertised in SACK blocks on duplicate ACKs until the gap fills.
	// Connections whose SYN carries no SACK-permitted option keep the
	// plain blind-ACK behaviour.
	SACK bool
}

// serverWindowScale is the shift the server advertises when window
// scaling is negotiated.
const serverWindowScale = 7

// Server is a single-connection passive TCP endpoint. It is safe for
// concurrent use; each Handle call is processed atomically.
type Server struct {
	mu  sync.Mutex
	cfg Config

	state  connState
	iss    uint32 // our initial send sequence number, drawn once from the seed
	sndNxt uint32 // next sequence number we will send
	rcvNxt uint32 // next sequence number we expect

	// SACK-negotiation state (Config.SACK connections only).
	sackOK bool              // this connection negotiated SACK
	wsOK   bool              // this connection negotiated window scaling
	ooo    tcpwire.SACKBlock // the single buffered out-of-order block
	hasOOO bool
}

// NewServer returns a listening server.
func NewServer(cfg Config) *Server {
	if cfg.Window == 0 {
		cfg.Window = 65535
	}
	s := &Server{cfg: cfg, iss: rand.New(rand.NewSource(cfg.Seed)).Uint32()}
	s.Reset()
	return s
}

// Reset returns the endpoint to LISTEN with its seeded initial sequence
// number, implementing Adapter property (3) of §3.2.
func (s *Server) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = StateListen
	s.sndNxt = s.iss
	s.rcvNxt = 0
	s.sackOK = false
	s.wsOK = false
	s.hasOOO = false
	s.ooo = tcpwire.SACKBlock{}
}

// State returns the current connection state (for tests and diagnostics).
func (s *Server) State() connState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Handle processes one incoming segment and returns the server's responses
// (zero or one segment for this endpoint). The input segment must already
// be decoded; transports deal in wire bytes.
func (s *Server) Handle(in tcpwire.Segment) []tcpwire.Segment {
	s.mu.Lock()
	defer s.mu.Unlock()

	if in.DestinationPort != s.cfg.Port {
		// Closed port: RST unless the probe is itself a RST (RFC 793 §3.4).
		if in.Flags&tcpwire.RST != 0 {
			return nil
		}
		return []tcpwire.Segment{s.rstFor(in)}
	}

	switch s.state {
	case StateListen:
		return s.handleListen(in)
	case StateSynRcvd:
		return s.handleSynRcvd(in)
	case StateEstablished:
		return s.handleEstablished(in)
	case StateCloseWait:
		return s.handleCloseWait(in)
	case StateLastAck:
		return s.handleLastAck(in)
	default: // StateClosed
		return s.handleClosed(in)
	}
}

// reply builds an outgoing segment with the connection's current numbers.
func (s *Server) reply(to tcpwire.Segment, flags tcpwire.Flags, payload []byte) tcpwire.Segment {
	return tcpwire.Segment{
		SourcePort:      s.cfg.Port,
		DestinationPort: to.SourcePort,
		SeqNumber:       s.sndNxt,
		AckNumber:       s.rcvNxt,
		Flags:           flags,
		Window:          s.cfg.Window,
		Payload:         payload,
	}
}

// rstFor builds the RST mandated for a segment arriving at a closed
// endpoint: if the offender has ACK set, the RST carries that ACK number as
// its sequence; otherwise it acks the offender's data.
func (s *Server) rstFor(in tcpwire.Segment) tcpwire.Segment {
	out := tcpwire.Segment{
		SourcePort:      s.cfg.Port,
		DestinationPort: in.SourcePort,
		Flags:           tcpwire.RST,
	}
	if in.Flags&tcpwire.ACK != 0 {
		out.SeqNumber = in.AckNumber
	} else {
		out.Flags |= tcpwire.ACK
		out.AckNumber = in.SeqNumber + uint32(len(in.Payload))
		if in.Flags&tcpwire.SYN != 0 {
			out.AckNumber++
		}
	}
	return out
}

func (s *Server) handleListen(in tcpwire.Segment) []tcpwire.Segment {
	switch {
	case in.Flags&tcpwire.RST != 0:
		return nil // RSTs to LISTEN are ignored
	case in.Flags == tcpwire.SYN:
		s.rcvNxt = in.SeqNumber + 1
		s.sackOK = s.cfg.SACK && in.SACKPermitted
		s.wsOK = s.cfg.SACK && in.WindowScale != 0
		s.hasOOO = false
		out := s.synAck(in)
		s.sndNxt++ // SYN consumes one sequence number
		s.state = StateSynRcvd
		return []tcpwire.Segment{out}
	default:
		// Anything else to a listening socket draws a RST.
		return []tcpwire.Segment{s.rstFor(in)}
	}
}

func (s *Server) handleSynRcvd(in tcpwire.Segment) []tcpwire.Segment {
	switch {
	case in.Flags&tcpwire.RST != 0:
		s.state = StateListen
		return nil
	case in.Flags&tcpwire.SYN != 0 && in.Flags&tcpwire.ACK != 0:
		// SYN+ACK in SYN_RCVD is invalid for a passive opener.
		s.state = StateListen
		return []tcpwire.Segment{s.rstFor(in)}
	case in.Flags&tcpwire.SYN != 0:
		// Retransmitted SYN: retransmit our SYN-ACK (with the options the
		// original negotiation settled on).
		out := s.synAck(in)
		out.SeqNumber = s.sndNxt - 1 // reuse the original ISS
		return []tcpwire.Segment{out}
	case in.Flags&tcpwire.ACK != 0:
		if s.cfg.StrictAckCheck && in.AckNumber != s.sndNxt {
			s.state = StateListen
			return []tcpwire.Segment{s.rstFor(in)}
		}
		if in.Flags&tcpwire.FIN != 0 {
			// Handshake-completing ACK carrying FIN: connection opens and
			// immediately half-closes; we ack the FIN.
			s.rcvNxt = in.SeqNumber + uint32(len(in.Payload)) + 1
			s.state = StateCloseWait
			return []tcpwire.Segment{s.reply(in, tcpwire.ACK, nil)}
		}
		s.rcvNxt += uint32(len(in.Payload))
		s.state = StateEstablished
		if len(in.Payload) > 0 {
			return []tcpwire.Segment{s.reply(in, tcpwire.ACK, nil)}
		}
		return nil
	default:
		return nil
	}
}

func (s *Server) handleEstablished(in tcpwire.Segment) []tcpwire.Segment {
	switch {
	case in.Flags&tcpwire.RST != 0:
		s.state = StateClosed
		return nil
	case in.Flags&tcpwire.SYN != 0:
		// SYN (or SYN+ACK) on a synchronized connection: challenge ACK.
		return []tcpwire.Segment{s.reply(in, tcpwire.ACK, nil)}
	case in.Flags&tcpwire.FIN != 0:
		s.rcvNxt = in.SeqNumber + uint32(len(in.Payload)) + 1
		s.hasOOO = false
		s.state = StateCloseWait
		return []tcpwire.Segment{s.reply(in, tcpwire.ACK, nil)}
	case in.Flags&tcpwire.ACK != 0:
		if s.sackOK {
			return s.absorbData(in)
		}
		s.rcvNxt += uint32(len(in.Payload))
		if len(in.Payload) > 0 {
			return []tcpwire.Segment{s.reply(in, tcpwire.ACK, nil)}
		}
		return nil
	default:
		return nil
	}
}

// synAck builds the SYN+ACK reply carrying the options this connection
// negotiated.
func (s *Server) synAck(in tcpwire.Segment) tcpwire.Segment {
	out := s.reply(in, tcpwire.SYN|tcpwire.ACK, nil)
	out.SACKPermitted = s.sackOK
	if s.wsOK {
		out.WindowScale = serverWindowScale
	}
	return out
}

// seqAfter reports whether sequence number a is after b in 32-bit
// serial-number arithmetic.
func seqAfter(a, b uint32) bool { return int32(a-b) > 0 }

// absorbData is the sequence-aware receive path of a SACK-negotiated
// connection: in-order data advances rcvNxt (and drains the buffered
// block when the gap fills), out-of-order data is buffered — one block,
// merged when segments touch — and every data segment draws an ACK that
// advertises the outstanding block in its SACK option.
func (s *Server) absorbData(in tcpwire.Segment) []tcpwire.Segment {
	n := uint32(len(in.Payload))
	if n == 0 {
		return nil // pure ACK: nothing to acknowledge back
	}
	switch {
	case in.SeqNumber == s.rcvNxt:
		s.rcvNxt += n
		if s.hasOOO && !seqAfter(s.ooo.Left, s.rcvNxt) {
			if seqAfter(s.ooo.Right, s.rcvNxt) {
				s.rcvNxt = s.ooo.Right
			}
			s.hasOOO = false
		}
	case seqAfter(in.SeqNumber, s.rcvNxt):
		blk := tcpwire.SACKBlock{Left: in.SeqNumber, Right: in.SeqNumber + n}
		switch {
		case !s.hasOOO:
			s.ooo, s.hasOOO = blk, true
		case !seqAfter(blk.Left, s.ooo.Right) && !seqAfter(s.ooo.Left, blk.Right):
			// Touching or overlapping the buffered block: merge.
			if seqAfter(s.ooo.Left, blk.Left) {
				s.ooo.Left = blk.Left
			}
			if seqAfter(blk.Right, s.ooo.Right) {
				s.ooo.Right = blk.Right
			}
		}
		// A second disjoint block exceeds the single-block buffer and is
		// dropped — the dup-ACK below still reports what is held.
	default:
		// Old duplicate: dup-ACK re-asserts rcvNxt.
	}
	out := s.reply(in, tcpwire.ACK, nil)
	if s.hasOOO {
		out.SACK = []tcpwire.SACKBlock{s.ooo}
	}
	return []tcpwire.Segment{out}
}

// handleCloseWait models the server application closing its end promptly
// after the client's FIN: the next client segment triggers our FIN.
func (s *Server) handleCloseWait(in tcpwire.Segment) []tcpwire.Segment {
	switch {
	case in.Flags&tcpwire.RST != 0:
		s.state = StateClosed
		return nil
	case in.Flags&tcpwire.SYN != 0:
		return []tcpwire.Segment{s.reply(in, tcpwire.ACK, nil)}
	case in.Flags&tcpwire.FIN != 0:
		// Duplicate FIN: ack it and send our own FIN.
		out := s.reply(in, tcpwire.FIN|tcpwire.ACK, nil)
		s.sndNxt++
		s.state = StateLastAck
		return []tcpwire.Segment{out}
	default:
		out := s.reply(in, tcpwire.FIN|tcpwire.ACK, nil)
		s.sndNxt++
		s.state = StateLastAck
		return []tcpwire.Segment{out}
	}
}

func (s *Server) handleLastAck(in tcpwire.Segment) []tcpwire.Segment {
	switch {
	case in.Flags&tcpwire.RST != 0:
		s.state = StateClosed
		return nil
	case in.Flags&tcpwire.SYN != 0:
		return []tcpwire.Segment{s.reply(in, tcpwire.ACK, nil)}
	case in.Flags&tcpwire.FIN != 0:
		// Still waiting for the ack of our FIN; ack the duplicate.
		return []tcpwire.Segment{s.reply(in, tcpwire.ACK, nil)}
	case in.Flags&tcpwire.ACK != 0:
		s.state = StateClosed
		return nil
	default:
		return nil
	}
}

// handleClosed models the one-shot server after its connection has ended:
// the listener is gone, so anything but a RST draws a RST.
func (s *Server) handleClosed(in tcpwire.Segment) []tcpwire.Segment {
	if in.Flags&tcpwire.RST != 0 {
		return nil
	}
	return []tcpwire.Segment{s.rstFor(in)}
}
