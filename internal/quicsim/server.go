package quicsim

import (
	"bytes"
	"crypto/subtle"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"

	"repro/internal/quiccrypto"
	"repro/internal/quicwire"
)

// Packet number spaces.
const (
	spaceInitial = iota
	spaceHandshake
	spaceApp
	numSpaces
)

// Tunables shared with the reference client. Chunk is the response stream
// chunk size; RespTotal is the total response the Google profile wants to
// send (three chunks, so two flow-control raises are needed to flush it).
const (
	Chunk     = 100
	RespTotal = 3 * Chunk
	// CIDLen is the connection-ID length all endpoints in this repo use.
	CIDLen = 8
)

// Config parameterizes a Server.
type Config struct {
	Profile Profile
	// Seed drives all server randomness (CIDs, hello randoms). The same
	// seed yields identical behaviour across resets, keeping learning
	// deterministic (except for profile-intended nondeterminism).
	Seed int64
	// RetryRequired makes the server validate client addresses with a
	// Retry exchange before accepting a connection (the Issue 3 setting).
	RetryRequired bool
	// VersionNegotiation makes the server answer long headers carrying an
	// unknown version with a Version Negotiation packet — but only before
	// a connection is established; afterwards such packets are dropped
	// silently (RFC 9000 §6.1: VN is sent only in response to packets
	// that might create a new connection).
	VersionNegotiation bool
}

// Server is a mini-QUIC server endpoint. It processes one connection at a
// time (the learning setup resets between queries) and is safe for
// concurrent use.
type Server struct {
	mu     sync.Mutex
	cfg    Config
	beh    behavior
	static []byte // static key for reset tokens and retry tags

	// Seed constants, derived once by NewServer: the connection ID the
	// server hands out, its hello random, each space's crypto stream (the
	// toy handshake layer's TLS messages) and the stateless-reset datagram.
	scid          []byte
	serverRandom  []byte
	cryptoStreams [numSpaces][]byte
	resetDgram    []byte

	// resetRNG survives Reset: it drives the mvfst profile's
	// nondeterministic stateless RESETs across queries (Issue 2).
	resetRNG *rand.Rand

	// Per-connection state, cleared by Reset.
	est          bool
	state        int
	clientCID    []byte // client's SCID: the DCID we send to
	keys         [numSpaces]quiccrypto.Pair
	sendPN       [numSpaces]uint64
	largestRecv  [numSpaces]uint64
	clientRandom []byte // the client's hello; empty until it arrives
	cryptoSent   [numSpaces]uint64

	clientStreamRecv uint64
	respOffset       uint64
	respLimit        uint64
	greetingsSent    int

	// ProfileLossyRetransmit state: nextPN tracks the expected client
	// packet number per space, and a gap means a datagram was lost in
	// flight. pnSeen makes tracking start at the first packet the server
	// actually processes in a space — clients legitimately burn packet
	// numbers on pre-handshake packets the server discards for lack of
	// keys, and those must not look like losses. gapCount and degraded
	// model the bug itself: the loss-recovery statistics are kept
	// server-globally (they deliberately survive Reset, like mvfst's
	// reset coin), and once enough gaps accumulate the server permanently
	// switches to aggressive double-send "retransmission" of every
	// output packet.
	nextPN [numSpaces]uint64
	pnSeen [numSpaces]bool

	// gapCount and degraded survive Reset: Issue-style cross-connection
	// leakage, observable only on links that actually lose datagrams.
	gapCount int
	degraded bool

	// Scratch for the packet path, only touched under mu: sc protects
	// packets, rx holds the packet being opened, frameScratch its parsed
	// frames (they alias rx and never outlive the packet; applyFrameEffects
	// copies what it keeps), sym its abstract symbol, payload the frames
	// of the packet being built and text a frame's formatted data. Every
	// response datagram gets a fresh buffer, so the caller may hold the
	// whole burst (transport.QUICServer writes it as one batch).
	sc           quiccrypto.Scratch
	rx, sym      []byte
	payload      []byte
	text         []byte
	frameScratch []quicwire.Frame
}

// lossyRetransGapLimit is how many observed packet-number gaps flip the
// lossy-retransmit profile into its degraded double-send mode. The first
// gap suffices: on an impaired link the flip then happens within the
// first few queries, so essentially the whole learning run observes the
// (consistent) degraded behaviour.
const lossyRetransGapLimit = 1

// NewServer returns a server in its initial state.
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:          cfg,
		beh:          behaviorFor(cfg.Profile),
		static:       seedBytes(cfg.Seed, "static-key", 32),
		scid:         seedBytes(cfg.Seed, "scid", CIDLen),
		serverRandom: seedBytes(cfg.Seed, "server-random", 32),
		resetRNG:     rand.New(rand.NewSource(cfg.Seed ^ 0x5EED)),
	}
	s.cryptoStreams = [numSpaces][]byte{
		append([]byte("SERVER_HELLO:"), s.serverRandom...),
		[]byte("ENCRYPTED_EXTENSIONS;CERTIFICATE;CERT_VERIFY;FINISHED-------------"),
		[]byte("NEW_SESSION_TICKET:ticket-0001"),
	}
	// A stateless reset: unpredictable bytes shaped like a short-header
	// packet, ending with the reset token for the connection ID the
	// server hands out (RFC 9000 §10.3).
	s.resetDgram = seedBytes(s.cfg.Seed, "reset-noise", 24)
	s.resetDgram[0] = 0x40 | (s.resetDgram[0] & 0x3F)
	token := quiccrypto.ResetToken(s.static, s.scid)
	s.resetDgram = append(s.resetDgram, token[:]...)
	s.resetLocked()
	return s
}

// seedBytes derives deterministic pseudo-random bytes from a seed and label.
func seedBytes(seed int64, label string, n int) []byte {
	var buf [20]byte
	sum := quiccrypto.MAC([]byte(label), strconv.AppendInt(buf[:0], seed, 10))
	out := append(make([]byte, 0, n+len(sum)), sum[:]...)
	for len(out) < n {
		sum = quiccrypto.MAC([]byte(label), out)
		out = append(out, sum[:]...)
	}
	return out[:n]
}

// Reset implements Adapter property (3): it returns the server to its
// initial state, dropping all connection state. Profile-intended
// nondeterminism (the mvfst RESET coin) deliberately survives resets.
func (s *Server) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resetLocked()
}

func (s *Server) resetLocked() {
	s.est = false
	s.state = 0
	s.clientCID = s.clientCID[:0]
	s.keys = [numSpaces]quiccrypto.Pair{}
	s.sendPN = [numSpaces]uint64{}
	s.largestRecv = [numSpaces]uint64{}
	s.clientRandom = s.clientRandom[:0]
	s.cryptoSent = [numSpaces]uint64{}
	s.clientStreamRecv = 0
	s.respOffset = 0
	s.greetingsSent = 0
	s.nextPN = [numSpaces]uint64{}
	s.pnSeen = [numSpaces]bool{}
	if s.cfg.Profile == ProfileQuiche {
		s.respLimit = 0
	} else {
		s.respLimit = Chunk
	}
}

// HandleDatagram processes one incoming UDP datagram from the given source
// address (opaque string, e.g. "10.0.0.2:4433") and returns the datagrams
// the server sends in response, one packet per datagram.
func (s *Server) HandleDatagram(src string, datagram []byte) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()

	var out [][]byte
	rest := datagram
	for len(rest) > 0 {
		hdr, err := quicwire.ParseHeader(rest, CIDLen)
		if err != nil {
			if err == quicwire.ErrBadVersion {
				if vn := s.versionNegotiate(rest); vn != nil {
					out = append(out, vn)
				}
			}
			break // undecodable datagram tail: drop silently
		}
		pkt := rest[:hdr.PayloadEnd]
		rest = rest[hdr.PayloadEnd:]
		out = s.processPacket(out, src, pkt, hdr)
	}
	return out
}

// versionNegotiate answers an unknown-version long header with a Version
// Negotiation packet advertising v1, echoing the client's connection IDs
// (our DCID is the client's SCID and vice versa). Returns nil when the
// feature is off, a connection is already established, or the invariant
// header prefix itself is malformed.
func (s *Server) versionNegotiate(data []byte) []byte {
	if !s.cfg.VersionNegotiation || s.est {
		return nil
	}
	_, dcid, scid, err := quicwire.LongHeaderCIDs(data)
	if err != nil {
		return nil
	}
	return quicwire.AppendVersionNegotiation(nil, scid, dcid, []uint32{quicwire.Version1})
}

// processPacket handles a single (possibly coalesced-out) packet and
// appends its response datagrams to out.
func (s *Server) processPacket(out [][]byte, src string, pkt []byte, hdr quicwire.Header) [][]byte {
	// Connection admission on Initials.
	if hdr.Type == quicwire.PacketInitial && !s.est {
		if s.cfg.RetryRequired {
			if len(hdr.Token) == 0 {
				return append(out, s.buildRetry(src, hdr))
			}
			if !s.validToken(src, hdr.Token) {
				return out
			}
		}
		s.acceptConnection(hdr)
	}
	if !s.est {
		return out // no connection: nothing can be decrypted
	}

	space, ok := spaceForType(hdr.Type)
	if !ok {
		return out // Retry/VN from a client is meaningless; drop
	}
	keys := s.keys[space].Client
	if keys == nil {
		return out // keys not derivable yet: drop (realistic behaviour)
	}

	// Remove header protection and packet protection.
	s.rx = append(s.rx[:0], pkt...)
	pn, payload, err := keys.OpenPacket(&s.sc, s.rx, hdr.PNOffset)
	if err != nil {
		return out
	}
	frames, err := quicwire.ParseFramesAppend(s.frameScratch[:0], payload)
	s.frameScratch = frames[:0]
	if err != nil {
		return out
	}
	if pn > s.largestRecv[space] {
		s.largestRecv[space] = pn
	}
	s.applyFrameEffects(space, frames)

	if s.cfg.Profile == ProfileLossyRetransmit {
		// The retransmission bug: a packet-number gap means a client
		// datagram was lost. The broken loss-recovery logic accumulates
		// gaps in a server-global counter, and past the limit it
		// permanently "recovers" by sending every output packet twice.
		// Invisible on a clean link (client packet numbers are contiguous
		// per space); on a lossy one the flip is deterministic and the
		// doubled flights become the behaviour learning observes.
		if s.pnSeen[space] && pn > s.nextPN[space] {
			s.gapCount++
			if s.gapCount >= lossyRetransGapLimit {
				s.degraded = true
			}
		}
		if !s.pnSeen[space] || pn >= s.nextPN[space] {
			s.pnSeen[space] = true
			s.nextPN[space] = pn + 1
		}
	}

	// Abstract the packet and step the behaviour machine.
	s.sym = quicwire.AppendSymbol(s.sym[:0], hdr.Type, frames)
	if s.beh.closedState >= 0 && s.state == s.beh.closedState {
		// Issue 2: the mvfst closed state answers probes with a stateless
		// RESET only ~82% of the time, with no back-off.
		if s.resetRNG.Float64() < 0.82 {
			return append(out, bytes.Clone(s.resetDgram))
		}
		return out
	}
	tr, ok := s.beh.table[s.state][string(s.sym)]
	if !ok {
		return out // symbol outside the modelled alphabet: drop
	}
	s.state = tr.next
	out = slices.Grow(out, len(tr.out))
	for _, spec := range tr.out {
		out = append(out, s.buildPacket(spec))
		if s.degraded {
			// The "retransmission": a second copy of the packet, freshly
			// numbered and sealed, doubling every flight the profile
			// emits from now on.
			out = append(out, s.buildPacket(spec))
		}
	}
	return out
}

// acceptConnection creates connection state from a client Initial.
func (s *Server) acceptConnection(hdr quicwire.Header) {
	s.est = true
	s.clientCID = append(s.clientCID[:0], hdr.SCID...)
	s.keys[spaceInitial] = quiccrypto.InitialKeys(hdr.DCID)
}

// applyFrameEffects updates transport state from client frames.
func (s *Server) applyFrameEffects(space int, frames []quicwire.Frame) {
	for _, f := range frames {
		switch f.Type {
		case quicwire.FrameCrypto:
			if space == spaceInitial && len(s.clientRandom) == 0 && len(f.Data) > 0 {
				s.clientRandom = append(s.clientRandom, f.Data...)
				s.keys[spaceHandshake], s.keys[spaceApp] = quiccrypto.SessionKeys(s.clientRandom, s.serverRandom)
			}
		case quicwire.FrameStream:
			if end := f.Offset + uint64(len(f.Data)); end > s.clientStreamRecv {
				s.clientStreamRecv = end
			}
		case quicwire.FrameMaxStreamData:
			if f.Limit > s.respLimit {
				s.respLimit = f.Limit
			}
		}
	}
}

func spaceForType(t quicwire.PacketType) (int, bool) {
	switch t {
	case quicwire.PacketInitial:
		return spaceInitial, true
	case quicwire.PacketHandshake:
		return spaceHandshake, true
	case quicwire.PacketShort:
		return spaceApp, true
	}
	return 0, false
}

// buildPacket constructs, seals, and header-protects one output packet.
func (s *Server) buildPacket(spec PacketSpec) []byte {
	space, _ := spaceForType(spec.Type)
	pn := s.sendPN[space]
	s.sendPN[space]++

	payload := s.payload[:0]
	for _, ft := range spec.Frames {
		payload = quicwire.AppendFrame(payload, s.buildFrame(space, spec, ft))
	}
	// Pad so the sealed payload always covers the header-protection sample.
	for len(payload) < 20 {
		payload = append(payload, 0) // PADDING
	}
	s.payload = payload

	keys := s.keys[space].Server
	sealedLen := len(payload) + keys.Overhead()
	buf := make([]byte, 0, maxHeaderLen+sealedLen)
	var pnOffset int
	if spec.Type == quicwire.PacketShort {
		buf, pnOffset = quicwire.AppendShortHeader(buf, s.clientCID, pn)
	} else {
		buf, pnOffset = quicwire.AppendLongHeader(buf, spec.Type, s.clientCID, s.scid, nil, pn, sealedLen)
	}
	return keys.SealPacket(&s.sc, append(buf, payload...), pnOffset, pn)
}

// maxHeaderLen bounds the headers buildPacket writes, so each response
// datagram is one exact allocation: a long header with two 20-byte
// connection IDs, no token and a two-byte length is 53 bytes.
const maxHeaderLen = 64

// respData is the server's application response: buildResponseStream
// slices it, so a STREAM frame's data is never built byte by byte.
var respData = bytes.Repeat([]byte{'r'}, RespTotal)

// buildFrame constructs the concrete frame for an abstract frame type.
func (s *Server) buildFrame(space int, spec PacketSpec, ft quicwire.FrameType) quicwire.Frame {
	switch ft {
	case quicwire.FrameAck:
		largest := s.largestRecv[space]
		return quicwire.Frame{Type: quicwire.FrameAck, AckLargest: largest, AckRange: largest}
	case quicwire.FrameCrypto:
		stream := s.cryptoStreams[space]
		off := s.cryptoSent[space]
		if off >= uint64(len(stream)) {
			return quicwire.Frame{Type: quicwire.FrameCrypto, Offset: off}
		}
		n := uint64(48)
		if off+n > uint64(len(stream)) {
			n = uint64(len(stream)) - off
		}
		s.cryptoSent[space] = off + n
		return quicwire.Frame{Type: quicwire.FrameCrypto, Offset: off, Data: stream[off : off+n]}
	case quicwire.FrameHandshakeDone:
		return quicwire.Frame{Type: quicwire.FrameHandshakeDone}
	case quicwire.FrameStream:
		if spec.Greeting {
			id := uint64(3 + 4*s.greetingsSent) // server-initiated unidirectional
			s.greetingsSent++
			s.text = strconv.AppendUint(append(s.text[:0], "greeting-"...), id, 10)
			return quicwire.Frame{Type: quicwire.FrameStream, StreamID: id, Data: s.text}
		}
		return s.buildResponseStream()
	case quicwire.FrameStreamDataBlocked:
		limit := s.respLimit
		if s.cfg.Profile == ProfileGoogle {
			limit = 0 // Issue 4: placeholder never updated
		}
		return quicwire.Frame{Type: quicwire.FrameStreamDataBlocked, StreamID: 0, Limit: limit}
	case quicwire.FrameConnectionClose:
		return quicwire.Frame{Type: quicwire.FrameConnectionClose,
			ErrorCode:    0x0a, // PROTOCOL_VIOLATION
			CloseFrame:   uint64(quicwire.FrameHandshakeDone),
			ReasonPhrase: "protocol violation"}
	default:
		panic(fmt.Sprintf("quicsim: no constructor for output frame %v", ft))
	}
}

// buildResponseStream emits the next slice of the server's application
// response on stream 0, respecting the client-granted flow-control limit.
// When blocked the frame carries zero bytes at the current offset.
func (s *Server) buildResponseStream() quicwire.Frame {
	total := uint64(RespTotal)
	if s.cfg.Profile == ProfileQuiche {
		// Quiche echoes indefinitely: always one more chunk wanted.
		total = s.respOffset + Chunk
	}
	n := uint64(0)
	if s.respLimit > s.respOffset {
		n = s.respLimit - s.respOffset
	}
	if remaining := total - s.respOffset; n > remaining {
		n = remaining
	}
	// n <= RespTotal: the other profiles send at most RespTotal in all,
	// and quiche's total is always one Chunk past the offset.
	f := quicwire.Frame{Type: quicwire.FrameStream, StreamID: 0, Offset: s.respOffset, Data: respData[:n]}
	s.respOffset += n
	f.Fin = s.cfg.Profile != ProfileQuiche && s.respOffset == total
	return f
}

// buildRetry constructs a Retry packet whose token binds the client source
// address (Issue 3's address validation).
func (s *Server) buildRetry(src string, hdr quicwire.Header) []byte {
	token := s.tokenFor(src)
	tag := quiccrypto.RetryTag(s.static, hdr.DCID, token[:])
	return quicwire.AppendRetry(nil, hdr.SCID, s.scid, append(token[:], tag[:]...))
}

// tokenFor derives the retry token for a source address.
func (s *Server) tokenFor(src string) [16]byte {
	sum := quiccrypto.MAC(s.static, []byte("retry-token"), []byte(src))
	return [16]byte(sum[:16])
}

// validToken checks a retry token against the claimed source address.
func (s *Server) validToken(src string, token []byte) bool {
	want := s.tokenFor(src)
	return len(token) >= len(want) && subtle.ConstantTimeCompare(token[:len(want)], want[:]) == 1
}
