// Package quicsim implements the QUIC systems under learning: a mini-QUIC
// server processing real protected packets (header parsing, HKDF/AES-GCM
// packet protection, frame parsing) whose connection-level behaviour is
// driven by per-implementation profiles.
//
// Profiles reproduce the observable behaviour of the closed-source targets
// the paper analyzed (see DESIGN.md, substitutions): ProfileGoogle yields
// the 12-state / 84-transition abstract model of Appendix A.2, including
// the constant-zero Maximum Stream Data bug of Issue 4 (§6.2.6);
// ProfileQuiche yields the 8-state / 56-transition model of Appendix A.3;
// ProfileMvfst reproduces Issue 2 (§6.2.4), the nondeterministic stateless
// RESET after connection closure; and the Retry-required option reproduces
// the setting of Issue 3 (§6.2.5).
package quicsim

import (
	"fmt"
	"strings"

	"repro/internal/automata"
	"repro/internal/quicwire"
)

// Profile selects which implementation's behaviour the server reproduces.
type Profile int

// Implementation profiles.
const (
	// ProfileGoogle models Google QUIC: aborts on packet-number-space reset
	// (Issue 1), announces stream blocking with STREAM_DATA_BLOCKED whose
	// Maximum Stream Data field is stuck at 0 (Issue 4).
	ProfileGoogle Profile = iota
	// ProfileGoogleFixed is ProfileGoogle with the Issue 4 bug repaired:
	// STREAM_DATA_BLOCKED carries the real blocked offset. Used as the
	// synthesis experiment's control.
	ProfileGoogleFixed
	// ProfileQuiche models Cloudflare Quiche: drops malformed initials
	// outright, never announces blocking, sends its greeting streams with
	// the handshake flight.
	ProfileQuiche
	// ProfileMvfst models Facebook mvfst: closes the connection on a
	// client HANDSHAKE_DONE and thereafter answers probes with a stateless
	// RESET only ~82% of the time (Issue 2).
	ProfileMvfst
	// ProfileLossyRetransmit is a deliberately retransmission-buggy
	// variant of the Google profile: on a clean link it is behaviourally
	// identical (its ground truth is the same 12-state machine), but its
	// loss-recovery statistics are kept server-globally — they leak
	// across connections and resets, mvfst-style — and once enough
	// client packet-number gaps reveal lost datagrams, the server
	// permanently "recovers" by sending every output packet twice. The
	// bug is invisible to clean-link learning and surfaces under
	// impairment as a genuinely different learned model (doubled
	// flights), not as noise — the scenario target for the
	// adverse-network campaign and modeldiff.
	ProfileLossyRetransmit
)

// String names the profile.
func (p Profile) String() string {
	switch p {
	case ProfileGoogle:
		return "google"
	case ProfileGoogleFixed:
		return "google-fixed"
	case ProfileQuiche:
		return "quiche"
	case ProfileMvfst:
		return "mvfst"
	case ProfileLossyRetransmit:
		return "lossy-retransmit"
	}
	return fmt.Sprintf("profile-%d", int(p))
}

// The paper's seven-symbol abstract input alphabet (§6.2.2).
const (
	SymInitialCrypto = "INITIAL(?,?)[CRYPTO]"
	SymInitialHD     = "INITIAL(?,?)[ACK,HANDSHAKE_DONE]"
	SymHandshakeC    = "HANDSHAKE(?,?)[ACK,CRYPTO]"
	SymHandshakeHD   = "HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]"
	SymShortFC       = "SHORT(?,?)[ACK,MAX_DATA,MAX_STREAM_DATA]"
	SymShortStream   = "SHORT(?,?)[ACK,STREAM]"
	SymShortHD       = "SHORT(?,?)[ACK,HANDSHAKE_DONE]"
)

// SymInitialBadVer is an Initial carried in a long header with a grease
// (unknown) version. It is not part of the paper's seven-symbol alphabet;
// the quic-vn target adds it to probe version-negotiation handling. The
// behaviour tables never see it — a bad-version header fails wire parsing
// before abstraction, and the response (Version Negotiation or silence)
// comes from the admission layer.
const SymInitialBadVer = "INITIAL_BADVER(?,?)[CRYPTO]"

// InputAlphabet returns the seven abstract input symbols in the paper's
// order.
func InputAlphabet() []string {
	return []string{
		SymInitialCrypto, SymInitialHD,
		SymHandshakeC, SymHandshakeHD,
		SymShortFC, SymShortStream, SymShortHD,
	}
}

// VNInputAlphabet is the quic-vn target's alphabet: the paper's seven
// symbols plus the bad-version Initial probe.
func VNInputAlphabet() []string {
	return append(InputAlphabet(), SymInitialBadVer)
}

// PacketSpec describes one abstract output packet: its type and the frame
// types it carries, in canonical label order (ACK first, then alphabetical,
// matching quicwire.AppendFrameNames).
type PacketSpec struct {
	Type   quicwire.PacketType
	Frames []quicwire.FrameType
	// Greeting marks STREAM frames that carry the server's own greeting
	// streams (sent with the handshake flights) rather than the response
	// to client data on stream 0.
	Greeting bool
}

// Label renders the spec in the paper's abstract notation.
func (p PacketSpec) Label() string {
	names := make([]string, len(p.Frames))
	for i, f := range p.Frames {
		names[i] = f.String()
	}
	return fmt.Sprintf("%s(?,?)[%s]", p.Type, strings.Join(names, ","))
}

// OutputLabel renders a list of output packets as one abstract output
// symbol, e.g. "{HANDSHAKE(?,?)[CRYPTO],INITIAL(?,?)[ACK,CRYPTO]}". The
// empty output is "{}".
func OutputLabel(specs []PacketSpec) string {
	parts := make([]string, len(specs))
	for i, s := range specs {
		parts[i] = s.Label()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// transition is one behaviour-table entry.
type transition struct {
	next int
	out  []PacketSpec
}

// behavior is a profile's connection-level specification: a deterministic
// transition table over the abstract alphabet.
type behavior struct {
	numStates int
	table     map[int]map[string]transition
	// closedState marks the state in which ProfileMvfst responds
	// nondeterministically with stateless RESETs; -1 when unused.
	closedState int
}

// Frame list shorthands.
var (
	fCrypto   = []quicwire.FrameType{quicwire.FrameCrypto}
	fAckC     = []quicwire.FrameType{quicwire.FrameAck, quicwire.FrameCrypto}
	fStream   = []quicwire.FrameType{quicwire.FrameStream}
	fHD       = []quicwire.FrameType{quicwire.FrameHandshakeDone}
	fAck      = []quicwire.FrameType{quicwire.FrameAck}
	fAckSt    = []quicwire.FrameType{quicwire.FrameAck, quicwire.FrameStream}
	fAckStSDB = []quicwire.FrameType{quicwire.FrameAck, quicwire.FrameStream, quicwire.FrameStreamDataBlocked}
	fCC       = []quicwire.FrameType{quicwire.FrameConnectionClose}
	fAckCC    = []quicwire.FrameType{quicwire.FrameAck, quicwire.FrameConnectionClose}
	fAckCCSt  = []quicwire.FrameType{quicwire.FrameAck, quicwire.FrameConnectionClose, quicwire.FrameStream}
	fCCSt     = []quicwire.FrameType{quicwire.FrameConnectionClose, quicwire.FrameStream}
	fHAck     = []quicwire.FrameType{quicwire.FrameAck}
	fTicketHD = []quicwire.FrameType{quicwire.FrameCrypto, quicwire.FrameHandshakeDone, quicwire.FrameStream}
)

func pkt(t quicwire.PacketType, frames []quicwire.FrameType) PacketSpec {
	return PacketSpec{Type: t, Frames: frames}
}

// gpkt is pkt for packets whose STREAM frames are server greetings.
func gpkt(t quicwire.PacketType, frames []quicwire.FrameType) PacketSpec {
	return PacketSpec{Type: t, Frames: frames, Greeting: true}
}

// Google QUIC output flights.
var (
	googleServerFlight = []PacketSpec{
		pkt(quicwire.PacketInitial, fAckC),
		pkt(quicwire.PacketHandshake, fCrypto),
		pkt(quicwire.PacketHandshake, fCrypto),
		gpkt(quicwire.PacketShort, fStream),
	}
	googleDoneFlight = []PacketSpec{
		pkt(quicwire.PacketShort, fCrypto),
		pkt(quicwire.PacketShort, fHD),
	}
	googleDoneFlightBuffered = []PacketSpec{
		pkt(quicwire.PacketShort, fCrypto),
		pkt(quicwire.PacketShort, fHD),
		pkt(quicwire.PacketShort, fAckSt),
	}
	googleCloseHS = []PacketSpec{
		pkt(quicwire.PacketHandshake, fAckCC),
		pkt(quicwire.PacketShort, fCCSt),
	}
	googleCloseInitial = []PacketSpec{
		pkt(quicwire.PacketHandshake, fCC),
		pkt(quicwire.PacketInitial, fAckCC),
		pkt(quicwire.PacketShort, fCCSt),
	}
	googleCloseApp = []PacketSpec{pkt(quicwire.PacketShort, fAckCCSt)}
	sAck           = []PacketSpec{pkt(quicwire.PacketShort, fAck)}
	sAckStream     = []PacketSpec{pkt(quicwire.PacketShort, fAckSt)}
	sAckStSDB      = []PacketSpec{pkt(quicwire.PacketShort, fAckStSDB)}
	sCC            = []PacketSpec{pkt(quicwire.PacketShort, fCC)}
	hCC            = []PacketSpec{pkt(quicwire.PacketHandshake, fCC)}
)

// googleBehavior builds the 12-state Google QUIC profile. State roles:
//
//	0 start; 1 handshake in progress; 2 established (one chunk of stream
//	credit); 3 dead-on-arrival sink (connection created by a violating
//	Initial, never answered); 4 closed during handshake (retransmits
//	CONNECTION_CLOSE at handshake level); 5 closed after establishment
//	(retransmits at 1-RTT level); 6 handshake in progress with buffered
//	early 1-RTT data; 7 response blocked, two chunks pending (emits
//	STREAM_DATA_BLOCKED — the Issue 4 frame); 8 response fully flushed;
//	9 two chunks of credit, no data yet; 10 blocked, one chunk pending;
//	11 three chunks of credit, no data yet.
func googleBehavior() behavior {
	t := map[int]map[string]transition{
		0: {
			SymInitialCrypto: {1, googleServerFlight},
			SymInitialHD:     {3, nil},
			SymHandshakeC:    {0, nil}, SymHandshakeHD: {0, nil},
			SymShortFC: {0, nil}, SymShortStream: {0, nil}, SymShortHD: {0, nil},
		},
		1: {
			SymHandshakeC:    {2, googleDoneFlight},
			SymHandshakeHD:   {4, googleCloseHS},
			SymInitialCrypto: {4, googleCloseInitial}, // Issue 1: abort on PN-space reset
			SymInitialHD:     {4, googleCloseInitial},
			SymShortStream:   {6, nil},
			SymShortFC:       {1, nil}, SymShortHD: {1, nil},
		},
		2: {
			SymShortStream:   {7, sAckStream},
			SymShortFC:       {9, sAck},
			SymShortHD:       {5, googleCloseApp},
			SymInitialCrypto: {2, nil}, SymInitialHD: {2, nil},
			SymHandshakeC: {2, nil}, SymHandshakeHD: {2, nil},
		},
		3: allSelf(3, nil),
		4: {
			SymInitialCrypto: {4, hCC}, SymInitialHD: {4, hCC},
			SymHandshakeC: {4, hCC}, SymHandshakeHD: {4, hCC},
			SymShortFC: {4, nil}, SymShortStream: {4, nil}, SymShortHD: {4, nil},
		},
		5: {
			SymShortFC: {5, sCC}, SymShortStream: {5, sCC}, SymShortHD: {5, sCC},
			SymInitialCrypto: {5, nil}, SymInitialHD: {5, nil},
			SymHandshakeC: {5, nil}, SymHandshakeHD: {5, nil},
		},
		6: {
			SymHandshakeC:    {7, googleDoneFlightBuffered},
			SymHandshakeHD:   {4, googleCloseHS},
			SymInitialCrypto: {4, googleCloseInitial},
			SymInitialHD:     {4, googleCloseInitial},
			SymShortStream:   {6, nil},
			SymShortFC:       {6, nil}, SymShortHD: {6, nil},
		},
		7: {
			SymShortStream:   {7, sAckStSDB},
			SymShortFC:       {10, sAckStream},
			SymShortHD:       {5, googleCloseApp},
			SymInitialCrypto: {7, nil}, SymInitialHD: {7, nil},
			SymHandshakeC: {7, nil}, SymHandshakeHD: {7, nil},
		},
		8: {
			SymShortStream:   {8, sAck},
			SymShortFC:       {8, sAck},
			SymShortHD:       {5, googleCloseApp},
			SymInitialCrypto: {8, nil}, SymInitialHD: {8, nil},
			SymHandshakeC: {8, nil}, SymHandshakeHD: {8, nil},
		},
		9: {
			SymShortStream:   {10, sAckStream},
			SymShortFC:       {11, sAck},
			SymShortHD:       {5, googleCloseApp},
			SymInitialCrypto: {9, nil}, SymInitialHD: {9, nil},
			SymHandshakeC: {9, nil}, SymHandshakeHD: {9, nil},
		},
		10: {
			SymShortStream:   {10, sAckStSDB},
			SymShortFC:       {8, sAckStream},
			SymShortHD:       {5, googleCloseApp},
			SymInitialCrypto: {10, nil}, SymInitialHD: {10, nil},
			SymHandshakeC: {10, nil}, SymHandshakeHD: {10, nil},
		},
		11: {
			SymShortStream:   {8, sAckStream},
			SymShortFC:       {11, sAck},
			SymShortHD:       {5, googleCloseApp},
			SymInitialCrypto: {11, nil}, SymInitialHD: {11, nil},
			SymHandshakeC: {11, nil}, SymHandshakeHD: {11, nil},
		},
	}
	return behavior{numStates: 12, table: t, closedState: -1}
}

// Quiche output flights.
var (
	quicheServerFlight = []PacketSpec{
		pkt(quicwire.PacketInitial, fAckC),
		pkt(quicwire.PacketHandshake, fCrypto),
		pkt(quicwire.PacketHandshake, fCrypto),
	}
	quicheDoneFlight = []PacketSpec{
		pkt(quicwire.PacketHandshake, fHAck),
		gpkt(quicwire.PacketShort, fTicketHD),
		gpkt(quicwire.PacketShort, fStream),
		gpkt(quicwire.PacketShort, fStream),
	}
)

// quicheBehavior builds the 8-state Quiche profile. State roles:
//
//	0 start (violating initials are dropped outright — the design
//	difference behind Issue 1); 1 handshake in progress; 2 established,
//	no send credit; 3 closed during handshake; 4 established, credit
//	raised; 5 established, response pending but silently withheld (Quiche
//	never sends STREAM_DATA_BLOCKED — contrast with Google in Issue 4);
//	6 handshake with buffered early data; 7 closed after establishment.
func quicheBehavior() behavior {
	t := map[int]map[string]transition{
		0: {
			SymInitialCrypto: {1, quicheServerFlight},
			SymInitialHD:     {0, nil},
			SymHandshakeC:    {0, nil}, SymHandshakeHD: {0, nil},
			SymShortFC: {0, nil}, SymShortStream: {0, nil}, SymShortHD: {0, nil},
		},
		1: {
			SymHandshakeC:    {2, quicheDoneFlight},
			SymHandshakeHD:   {3, hCC},
			SymInitialCrypto: {3, hCC},
			SymInitialHD:     {3, hCC},
			SymShortStream:   {6, nil},
			SymShortFC:       {1, nil}, SymShortHD: {1, nil},
		},
		2: {
			SymShortStream:   {5, sAck},
			SymShortFC:       {4, sAck},
			SymShortHD:       {7, sCC},
			SymInitialCrypto: {2, nil}, SymInitialHD: {2, nil},
			SymHandshakeC: {2, nil}, SymHandshakeHD: {2, nil},
		},
		3: {
			SymHandshakeC: {3, hCC}, SymHandshakeHD: {3, hCC},
			SymInitialCrypto: {3, nil}, SymInitialHD: {3, nil},
			SymShortFC: {3, nil}, SymShortStream: {3, nil}, SymShortHD: {3, nil},
		},
		4: {
			SymShortStream:   {4, sAckStream},
			SymShortFC:       {4, sAck},
			SymShortHD:       {7, sCC},
			SymInitialCrypto: {4, nil}, SymInitialHD: {4, nil},
			SymHandshakeC: {4, nil}, SymHandshakeHD: {4, nil},
		},
		5: {
			SymShortStream:   {5, sAck},
			SymShortFC:       {4, sAckStream},
			SymShortHD:       {7, sCC},
			SymInitialCrypto: {5, nil}, SymInitialHD: {5, nil},
			SymHandshakeC: {5, nil}, SymHandshakeHD: {5, nil},
		},
		6: {
			SymHandshakeC:    {5, quicheDoneFlight},
			SymHandshakeHD:   {3, hCC},
			SymInitialCrypto: {3, hCC},
			SymInitialHD:     {3, hCC},
			SymShortStream:   {6, nil},
			SymShortFC:       {6, nil}, SymShortHD: {6, nil},
		},
		7: {
			SymShortFC: {7, sCC}, SymShortStream: {7, sCC}, SymShortHD: {7, sCC},
			SymInitialCrypto: {7, nil}, SymInitialHD: {7, nil},
			SymHandshakeC: {7, nil}, SymHandshakeHD: {7, nil},
		},
	}
	return behavior{numStates: 8, table: t, closedState: -1}
}

// mvfstBehavior builds the mvfst profile. State 3 is the closed state in
// which the server answers probes with a stateless RESET nondeterministically
// (Issue 2); the table records the deterministic skeleton and the server
// overrides state 3's outputs at runtime.
func mvfstBehavior() behavior {
	flight := []PacketSpec{
		pkt(quicwire.PacketInitial, fAckC),
		pkt(quicwire.PacketHandshake, fCrypto),
		pkt(quicwire.PacketHandshake, fCrypto),
	}
	done := []PacketSpec{
		pkt(quicwire.PacketShort, fCrypto),
		pkt(quicwire.PacketShort, fHD),
	}
	t := map[int]map[string]transition{
		0: {
			SymInitialCrypto: {1, flight},
			SymInitialHD:     {0, nil},
			SymHandshakeC:    {0, nil}, SymHandshakeHD: {0, nil},
			SymShortFC: {0, nil}, SymShortStream: {0, nil}, SymShortHD: {0, nil},
		},
		1: {
			SymHandshakeC:    {2, done},
			SymHandshakeHD:   {3, hCC}, // the Issue 2 trigger sequence
			SymInitialCrypto: {3, hCC},
			SymInitialHD:     {3, hCC},
			SymShortFC:       {1, nil}, SymShortStream: {1, nil}, SymShortHD: {1, nil},
		},
		2: {
			SymShortStream:   {2, sAck},
			SymShortFC:       {2, sAck},
			SymShortHD:       {3, sCC},
			SymInitialCrypto: {2, nil}, SymInitialHD: {2, nil},
			SymHandshakeC: {2, nil}, SymHandshakeHD: {2, nil},
		},
		3: allSelf(3, nil), // outputs overridden nondeterministically
	}
	return behavior{numStates: 4, table: t, closedState: 3}
}

// allSelf builds a row where every symbol self-loops with the same output.
func allSelf(state int, out []PacketSpec) map[string]transition {
	row := make(map[string]transition, 7)
	for _, sym := range InputAlphabet() {
		row[sym] = transition{state, out}
	}
	return row
}

// behaviorFor returns the profile's behaviour table.
func behaviorFor(p Profile) behavior {
	switch p {
	case ProfileGoogle, ProfileGoogleFixed, ProfileLossyRetransmit:
		// The lossy-retransmit profile shares Google's clean-link
		// behaviour table; its retransmission bug lives in the server's
		// packet-number gap handling, outside the table.
		return googleBehavior()
	case ProfileQuiche:
		return quicheBehavior()
	case ProfileMvfst:
		return mvfstBehavior()
	}
	panic(fmt.Sprintf("quicsim: unknown profile %d", int(p)))
}

// GroundTruth returns the profile's abstract specification as a Mealy
// machine over the paper's alphabet. For ProfileMvfst the machine encodes
// only the deterministic skeleton (closed-state probes answered silently);
// the live server deviates nondeterministically, which is precisely what
// the nondeterminism check detects. For ProfileLossyRetransmit it is the
// clean-link specification (identical to ProfileGoogle's): the doubled
// flights of the degraded mode are, by design, observable only after the
// link has actually lost datagrams.
func GroundTruth(p Profile) *automata.Mealy {
	b := behaviorFor(p)
	m := automata.NewMealy(InputAlphabet())
	for m.NumStates() < b.numStates {
		m.AddState()
	}
	for s, row := range b.table {
		for sym, tr := range row {
			m.SetTransition(automata.State(s), sym, automata.State(tr.next), OutputLabel(tr.out))
		}
	}
	return m
}
