// Package reference implements the instrumented reference implementations
// that serve as the paper's concretization oracles (§3.2): a QUIC client in
// the role of QUIC-Tracker and a TCP client in the role of the Scapy-based
// mapper. Both enforce the five Adapter properties:
//
//  1. no unrequested packets reach the target (reactive packets such as
//     ACKs are queued and folded into later requested symbols),
//  2. concrete packets match the requested abstract symbols,
//  3. both endpoints reset on request,
//  4. every exchange is returned with its abstract and concrete forms to
//     the caller that asks, for the Oracle Table, and
//  5. responses are abstracted back to the learner's alphabet.
package reference

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"strings"

	"repro/internal/quiccrypto"
	"repro/internal/quicsim"
	"repro/internal/quicwire"
)

// Transport delivers one client datagram to the target implementation and
// returns the datagrams the target sends back. Implementations exist for
// in-memory servers and UDP sockets.
type Transport interface {
	Send(src string, datagram []byte) [][]byte
}

// TransportFunc adapts a function to Transport.
type TransportFunc func(src string, datagram []byte) [][]byte

// Send implements Transport.
func (f TransportFunc) Send(src string, datagram []byte) [][]byte { return f(src, datagram) }

// ServerTransport wraps an in-process quicsim.Server as a Transport.
func ServerTransport(s *quicsim.Server) Transport {
	return TransportFunc(func(src string, datagram []byte) [][]byte {
		return s.HandleDatagram(src, datagram)
	})
}

// ConcretePacket is the concrete-alphabet symbol recorded in the Oracle
// Table: the structured form of one QUIC packet.
type ConcretePacket struct {
	Type         string           `json:"type"`
	PacketNumber uint64           `json:"packetNumber"`
	Frames       []quicwire.Frame `json:"frames"`
}

// Exchange is one abstract I/O step together with its concrete packets,
// the raw material of the Oracle Table (Adapter property 4). StepExchange
// returns one per step; the client keeps none.
type Exchange struct {
	AbstractIn  string
	AbstractOut string
	ConcreteIn  []ConcretePacket
	ConcreteOut []ConcretePacket
}

// QUICClientConfig parameterizes the reference client.
type QUICClientConfig struct {
	Seed int64
	// RetryFromNewPort reproduces Issue 3: after receiving a Retry the
	// client reopens its socket on a fresh port, so the token it returns
	// no longer matches its source address.
	RetryFromNewPort bool
	// BasePort is the client's first source port.
	BasePort int
}

// QUICClient is the instrumented QUIC reference client. It is not safe for
// concurrent use; the learning loop is sequential.
type QUICClient struct {
	cfg  QUICClientConfig
	tr   Transport
	seq  int // connection attempt counter, drives fresh CIDs
	port int

	dcid, scid   []byte // dcid addresses the server for the connection's life
	clientRandom []byte
	serverRandom []byte
	retryToken   []byte
	keys         [3]quiccrypto.Pair // Client keys seal, Server keys open
	placeholder  [3]*quiccrypto.Keys
	sendPN       [3]uint64
	largestRecv  [3]uint64
	ackQueue     [3]bool // queued reactive ACKs per space (property 1)
	fcRaises     int
	streamSent   uint64
	reqCount     int
}

// NewQUICClient returns a client speaking to the given transport.
func NewQUICClient(cfg QUICClientConfig, tr Transport) *QUICClient {
	if cfg.BasePort == 0 {
		cfg.BasePort = 40000
	}
	c := &QUICClient{cfg: cfg, tr: tr}
	c.Reset()
	return c
}

// src returns the client's current source address.
func (c *QUICClient) src() string { return fmt.Sprintf("10.0.0.2:%d", c.port) }

// Reset implements Adapter property (3): a fresh connection with fresh CIDs
// and cleared crypto state. The per-reset values are derived from the seed
// and attempt counter so runs are reproducible.
func (c *QUICClient) Reset() error {
	c.seq++
	c.port = c.cfg.BasePort
	c.dcid = clientSeedBytes(c.cfg.Seed, c.seq, "dcid", quicsim.CIDLen)
	c.scid = clientSeedBytes(c.cfg.Seed, c.seq, "scid", quicsim.CIDLen)
	c.clientRandom = clientSeedBytes(c.cfg.Seed, c.seq, "client-random", 32)
	c.serverRandom = nil
	c.retryToken = nil
	c.keys = [3]quiccrypto.Pair{quiccrypto.InitialKeys(c.dcid)}
	c.placeholder = [3]*quiccrypto.Keys{}
	c.sendPN = [3]uint64{}
	c.largestRecv = [3]uint64{}
	c.ackQueue = [3]bool{}
	c.fcRaises = 0
	c.streamSent = 0
	c.reqCount = 0
	return nil
}

func clientSeedBytes(seed int64, attempt int, label string, n int) []byte {
	mac := hmac.New(sha256.New, []byte(label))
	fmt.Fprintf(mac, "client/%d/%d", seed, attempt)
	out := mac.Sum(nil)
	for len(out) < n {
		mac.Reset()
		mac.Write(out)
		out = mac.Sum(out)
	}
	return out[:n]
}

// Step sends the concrete packet for one abstract input symbol and returns
// the abstract output symbol (property 5). Unknown symbols are an error:
// the adapter's alphabet is fixed up front.
func (c *QUICClient) Step(abstract string) (string, error) {
	ex, err := c.StepExchange(abstract)
	return ex.AbstractOut, err
}

// StepExchange is Step returning the whole exchange with its concrete
// packets (property 4), for callers that build an Oracle Table.
func (c *QUICClient) StepExchange(abstract string) (Exchange, error) {
	pt, badver, frames, err := parseAbstract(abstract)
	if err != nil {
		return Exchange{}, err
	}
	space, ok := spaceFor(pt)
	if !ok {
		return Exchange{}, fmt.Errorf("reference: cannot send packet type %v", pt)
	}
	concIn, datagram := c.buildPacket(pt, badver, space, frames)
	responses := c.tr.Send(c.src(), datagram)
	absOut, concOut := c.processResponses(responses)
	return Exchange{
		AbstractIn: abstract, AbstractOut: absOut,
		ConcreteIn: []ConcretePacket{concIn}, ConcreteOut: concOut,
	}, nil
}

// parseAbstract splits "TYPE(?,?)[F1,F2]" into packet type and frame names.
// The badver flag marks INITIAL_BADVER symbols: an Initial-shaped long
// header that must be sent with a grease version to probe the target's
// version-negotiation handling.
func parseAbstract(s string) (pt quicwire.PacketType, badver bool, frames []string, err error) {
	open := strings.Index(s, "(")
	lb := strings.Index(s, "[")
	if open < 0 || lb < 0 || !strings.HasSuffix(s, "]") {
		return 0, false, nil, fmt.Errorf("reference: malformed abstract symbol %q", s)
	}
	switch s[:open] {
	case "INITIAL":
		pt = quicwire.PacketInitial
	case "INITIAL_BADVER":
		pt, badver = quicwire.PacketInitial, true
	case "HANDSHAKE":
		pt = quicwire.PacketHandshake
	case "SHORT":
		pt = quicwire.PacketShort
	case "0RTT":
		pt = quicwire.PacketZeroRTT
	default:
		return 0, false, nil, fmt.Errorf("reference: unknown packet type in %q", s)
	}
	inner := s[lb+1 : len(s)-1]
	if inner == "" {
		return pt, badver, nil, nil
	}
	return pt, badver, strings.Split(inner, ","), nil
}

func spaceFor(pt quicwire.PacketType) (int, bool) {
	switch pt {
	case quicwire.PacketInitial:
		return 0, true
	case quicwire.PacketHandshake:
		return 1, true
	case quicwire.PacketShort:
		return 2, true
	}
	return 0, false
}

// sendKeys returns usable sealing keys for a space. When the real keys are
// not yet derivable (e.g. the learner asks for a HANDSHAKE packet before
// any server hello was seen) the client seals under placeholder keys: the
// packet is well-formed on the wire and the target drops it, which is
// exactly the observable behaviour the model should record.
func (c *QUICClient) sendKeys(space int) *quiccrypto.Keys {
	if k := c.keys[space].Client; k != nil {
		return k
	}
	if c.placeholder[space] == nil {
		secret := clientSeedBytes(c.cfg.Seed, c.seq, fmt.Sprintf("placeholder-%d", space), 32)
		c.placeholder[space] = quiccrypto.NewKeys(secret)
	}
	return c.placeholder[space]
}

// buildPacket constructs the concrete packet for the abstract symbol,
// consuming any queued reactive ACK for the space (property 1).
func (c *QUICClient) buildPacket(pt quicwire.PacketType, badver bool, space int, frameNames []string) (ConcretePacket, []byte) {
	pn := c.sendPN[space]
	c.sendPN[space]++
	var frames []quicwire.Frame
	for _, name := range frameNames {
		frames = append(frames, c.buildFrame(space, name))
	}
	c.ackQueue[space] = false // any queued ACK is folded in or superseded

	var payload []byte
	for _, f := range frames {
		payload = quicwire.AppendFrame(payload, f)
	}
	for len(payload) < 20 {
		payload = append(payload, 0) // PADDING up to the HP sample size
	}
	keys := c.sendKeys(space)
	var buf []byte
	var pnOffset int
	sealedLen := len(payload) + keys.Overhead()
	if pt == quicwire.PacketShort {
		buf, pnOffset = quicwire.AppendShortHeader(nil, c.dcid, pn)
	} else {
		var token []byte
		if pt == quicwire.PacketInitial {
			token = c.retryToken
		}
		version := uint32(quicwire.Version1)
		if badver {
			version = quicwire.VersionGrease
		}
		buf, pnOffset = quicwire.AppendLongHeaderVersion(nil, pt, version, c.dcid, c.scid, token, pn, sealedLen)
	}
	ad := append([]byte(nil), buf...)
	buf = append(buf, keys.Seal(payload, pn, ad)...)
	if err := keys.ProtectHeader(buf, pnOffset); err != nil {
		panic(fmt.Sprintf("reference: header protection: %v", err))
	}
	typeName := pt.String()
	if badver {
		typeName = "INITIAL_BADVER"
	}
	conc := ConcretePacket{Type: typeName, PacketNumber: pn, Frames: frames}
	return conc, buf
}

// buildFrame constructs a concrete frame for an abstract frame name using
// the client's live connection state.
func (c *QUICClient) buildFrame(space int, name string) quicwire.Frame {
	switch name {
	case "ACK":
		largest := c.largestRecv[space]
		return quicwire.Frame{Type: quicwire.FrameAck, AckLargest: largest, AckRange: largest}
	case "CRYPTO":
		if space == 0 {
			return quicwire.Frame{Type: quicwire.FrameCrypto, Offset: 0,
				Data: append([]byte("CLIENT_HELLO:"), c.clientRandom...)}
		}
		return quicwire.Frame{Type: quicwire.FrameCrypto, Offset: 0,
			Data: append([]byte("FINISHED:"), c.clientRandom[:16]...)}
	case "HANDSHAKE_DONE":
		return quicwire.Frame{Type: quicwire.FrameHandshakeDone}
	case "MAX_DATA":
		return quicwire.Frame{Type: quicwire.FrameMaxData,
			Limit: uint64(10 * quicsim.Chunk * (1 + c.fcRaises))}
	case "MAX_STREAM_DATA":
		c.fcRaises++
		return quicwire.Frame{Type: quicwire.FrameMaxStreamData, StreamID: 0,
			Limit: uint64(quicsim.Chunk * (1 + c.fcRaises))}
	case "STREAM":
		c.reqCount++
		data := []byte(fmt.Sprintf("GET /page-%d", c.reqCount))
		f := quicwire.Frame{Type: quicwire.FrameStream, StreamID: 0,
			Offset: c.streamSent, Data: data}
		c.streamSent += uint64(len(data))
		return f
	case "PING":
		return quicwire.Frame{Type: quicwire.FramePing}
	default:
		panic(fmt.Sprintf("reference: no constructor for abstract frame %q", name))
	}
}

// processResponses abstracts the server's datagrams (property 5), updating
// client connection state along the way.
func (c *QUICClient) processResponses(datagrams [][]byte) (string, []ConcretePacket) {
	var labels []string
	var conc []ConcretePacket
	for _, dgram := range datagrams {
		rest := dgram
		for len(rest) > 0 {
			label, cp, consumed := c.processPacket(rest)
			if consumed <= 0 {
				break
			}
			rest = rest[consumed:]
			if label != "" {
				labels = append(labels, label)
				conc = append(conc, cp)
			}
		}
	}
	return "{" + strings.Join(labels, ",") + "}", conc
}

// processPacket handles one server packet, returning its abstract label,
// concrete form, and the number of bytes consumed from the datagram.
func (c *QUICClient) processPacket(data []byte) (string, ConcretePacket, int) {
	hdr, err := quicwire.ParseHeader(data, quicsim.CIDLen)
	if err != nil {
		// Not parseable as a QUIC packet: check for a stateless reset
		// (random-looking short-header datagram). Consume everything.
		if c.looksLikeReset(data) {
			return "RESET(?,?)[]", ConcretePacket{Type: "RESET"}, len(data)
		}
		return "", ConcretePacket{}, len(data)
	}
	switch hdr.Type {
	case quicwire.PacketRetry:
		// Token is everything except the 16-byte integrity tag.
		if len(hdr.Token) > 16 {
			c.retryToken = append([]byte(nil), hdr.Token[:len(hdr.Token)-16]...)
		}
		if c.cfg.RetryFromNewPort {
			// Issue 3: reopen the socket on a new port before retrying.
			c.port++
		}
		return "RETRY(?,?)[]", ConcretePacket{Type: "RETRY"}, hdr.PayloadEnd
	case quicwire.PacketVersionNegotiation:
		return "VERSION_NEGOTIATION(?,?)[]", ConcretePacket{Type: "VERSION_NEGOTIATION"}, hdr.PayloadEnd
	}
	space, ok := spaceFor(hdr.Type)
	if !ok {
		return "", ConcretePacket{}, hdr.PayloadEnd
	}
	keys := c.keys[space].Server
	if keys == nil {
		// Undecryptable: could be a stateless reset disguised as a short
		// packet (they are indistinguishable by design, RFC 9000 §10.3).
		if hdr.Type == quicwire.PacketShort && c.looksLikeReset(data) {
			return "RESET(?,?)[]", ConcretePacket{Type: "RESET"}, len(data)
		}
		return "", ConcretePacket{}, hdr.PayloadEnd
	}
	buf := append([]byte(nil), data[:hdr.PayloadEnd]...)
	if err := keys.UnprotectHeader(buf, hdr.PNOffset); err != nil {
		return "", ConcretePacket{}, hdr.PayloadEnd
	}
	pn, err := quicwire.DecodePacketNumber(buf, hdr.PNOffset)
	if err != nil {
		return "", ConcretePacket{}, hdr.PayloadEnd
	}
	payload, err := keys.Open(buf[hdr.PNOffset+4:hdr.PayloadEnd], pn, buf[:hdr.PNOffset+4])
	if err != nil {
		if hdr.Type == quicwire.PacketShort && c.looksLikeReset(data) {
			return "RESET(?,?)[]", ConcretePacket{Type: "RESET"}, len(data)
		}
		return "", ConcretePacket{}, hdr.PayloadEnd
	}
	frames, err := quicwire.ParseFrames(payload)
	if err != nil {
		return "", ConcretePacket{}, hdr.PayloadEnd
	}
	if pn > c.largestRecv[space] {
		c.largestRecv[space] = pn
	}
	c.ackQueue[space] = true // a reactive ACK is now queued (property 1)
	c.applyFrames(space, frames)
	label := fmt.Sprintf("%s(?,?)[%s]", hdr.Type, quicwire.FrameNames(frames))
	return label, ConcretePacket{Type: hdr.Type.String(), PacketNumber: pn, Frames: frames}, hdr.PayloadEnd
}

// looksLikeReset applies the reference implementation's stateless-reset
// heuristic: a short-header-shaped datagram exactly the size the peer's
// resets use whose payload cannot be decrypted.
func (c *QUICClient) looksLikeReset(data []byte) bool {
	return len(data) == 40 && data[0]&0xC0 == 0x40
}

// applyFrames folds server frames into client state.
func (c *QUICClient) applyFrames(space int, frames []quicwire.Frame) {
	for _, f := range frames {
		if f.Type == quicwire.FrameCrypto && space == 0 && c.serverRandom == nil {
			const prefix = "SERVER_HELLO:"
			if len(f.Data) > len(prefix) && string(f.Data[:len(prefix)]) == prefix {
				c.serverRandom = append([]byte(nil), f.Data[len(prefix):]...)
				hello := append([]byte("CLIENT_HELLO:"), c.clientRandom...)
				c.keys[1], c.keys[2] = quiccrypto.SessionKeys(hello, c.serverRandom)
			}
		}
	}
}
