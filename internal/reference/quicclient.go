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
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/quiccrypto"
	"repro/internal/quicsim"
	"repro/internal/quicwire"
)

// Transport delivers one client datagram to the target implementation and
// returns the datagrams the target sends back. Implementations exist for
// in-memory servers and UDP sockets. The client reuses the datagram's
// buffer once Send returns, so a Transport that keeps it must copy it.
// The returned datagrams need stay valid only until the next Send: the
// client copies what it keeps.
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
	src  string // the source address, "10.0.0.2:<port>"

	dcid, scid   []byte // dcid addresses the server for the connection's life
	clientRandom []byte
	hello        []byte // the CRYPTO data of the client's Initial
	serverRandom []byte // empty until the server hello arrives
	retryToken   []byte
	keys         [3]quiccrypto.Pair // Client keys seal, Server keys open
	placeholder  [3]*quiccrypto.Keys
	sendPN       [3]uint64
	largestRecv  [3]uint64
	ackQueue     [3]bool // queued reactive ACKs per space (property 1)
	fcRaises     int
	streamSent   uint64
	reqCount     int
	heard        int // response datagrams the transport handed back
	foreign      int // server packets addressed to another connection

	// Scratch for the packet path, reused by every step: sc protects
	// packets, payload and tx hold the frames and the packet being sent
	// (the Transport copies what it keeps), rx and rxFrames a response
	// packet being opened and its frames (they alias rx), text a frame's
	// formatted data and label the abstract output being built.
	sc          quiccrypto.Scratch
	payload, tx []byte
	rx, text    []byte
	label       []byte
	rxFrames    []quicwire.Frame

	symbols map[string]inputSymbol // each abstract input's parse
	outputs map[string]string      // interned abstract outputs
}

// inputSymbol is the parse of one abstract input symbol.
type inputSymbol struct {
	pt       quicwire.PacketType
	badver   bool
	space    int
	frames   []string
	typeName string // the concrete packet's type in Oracle Table records
}

// maxOutputs bounds the interned outputs; a full table is cleared.
const maxOutputs = 1024

// NewQUICClient returns a client speaking to the given transport.
func NewQUICClient(cfg QUICClientConfig, tr Transport) *QUICClient {
	if cfg.BasePort == 0 {
		cfg.BasePort = 40000
	}
	c := &QUICClient{cfg: cfg, tr: tr,
		symbols: make(map[string]inputSymbol), outputs: make(map[string]string)}
	c.Reset()
	return c
}

// setPort moves the client to a source port.
func (c *QUICClient) setPort(port int) {
	if port != c.port || c.src == "" {
		c.port = port
		c.src = "10.0.0.2:" + strconv.Itoa(port)
	}
}

// Reset implements Adapter property (3): a fresh connection with fresh CIDs
// and cleared crypto state. The per-reset values are derived from the seed
// and attempt counter so runs are reproducible.
func (c *QUICClient) Reset() error {
	c.seq++
	c.setPort(c.cfg.BasePort)
	c.dcid = clientSeedBytes(c.dcid, c.cfg.Seed, c.seq, "dcid", quicsim.CIDLen)
	c.scid = clientSeedBytes(c.scid, c.cfg.Seed, c.seq, "scid", quicsim.CIDLen)
	c.clientRandom = clientSeedBytes(c.clientRandom, c.cfg.Seed, c.seq, "client-random", 32)
	c.hello = append(append(c.hello[:0], "CLIENT_HELLO:"...), c.clientRandom...)
	c.serverRandom = c.serverRandom[:0]
	c.retryToken = c.retryToken[:0]
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

// Heard counts the response datagrams the client's transport has handed
// back since the client was built.
func (c *QUICClient) Heard() int { return c.heard }

// Foreign counts the server packets, since the client was built, that
// were addressed to another connection: late answers to an earlier
// execution, which a UDP path can deliver after its wait has closed.
func (c *QUICClient) Foreign() int { return c.foreign }

// Truncates reports whether output a is output b with its last packets
// missing: b lists every packet a lists, in order, and more. Silence ("{}")
// truncates any answer. Outputs are the client's step labels, "{" and the
// packets' symbols joined by "," and "}"; a symbol ends in "]".
func (c *QUICClient) Truncates(a, b string) bool {
	if a == "{}" {
		return b != a
	}
	head, ok := strings.CutSuffix(a, "}")
	return ok && len(b) > len(head) && strings.HasPrefix(b, head) && b[len(head)] == ','
}

// clientSeedBytes derives n pseudo-random bytes from the seed, the attempt
// and a label into dst's storage.
func clientSeedBytes(dst []byte, seed int64, attempt int, label string, n int) []byte {
	var buf [48]byte
	msg := strconv.AppendInt(append(buf[:0], "client/"...), seed, 10)
	msg = strconv.AppendInt(append(msg, '/'), int64(attempt), 10)
	sum := quiccrypto.MAC([]byte(label), msg)
	out := append(dst[:0], sum[:]...)
	for len(out) < n {
		sum = quiccrypto.MAC([]byte(label), out)
		out = append(out, sum[:]...)
	}
	return out[:n]
}

// Step sends the concrete packet for one abstract input symbol and returns
// the abstract output symbol (property 5). Unknown symbols are an error:
// the adapter's alphabet is fixed up front.
func (c *QUICClient) Step(abstract string) (string, error) {
	return c.step(abstract, nil)
}

// StepExchange is Step returning the whole exchange with its concrete
// packets (property 4), for callers that build an Oracle Table.
func (c *QUICClient) StepExchange(abstract string) (Exchange, error) {
	ex := Exchange{AbstractIn: abstract}
	out, err := c.step(abstract, &ex)
	if err != nil {
		return Exchange{}, err
	}
	ex.AbstractOut = out
	return ex, nil
}

// step runs one exchange, recording its concrete packets in ex unless ex
// is nil.
func (c *QUICClient) step(abstract string, ex *Exchange) (string, error) {
	sym, ok := c.symbols[abstract]
	if !ok {
		var err error
		if sym, err = parseAbstract(abstract); err != nil {
			return "", err
		}
		c.symbols[abstract] = sym
	}
	datagram := c.buildPacket(sym, ex)
	return c.processResponses(c.tr.Send(c.src, datagram), ex), nil
}

// parseAbstract splits "TYPE(?,?)[F1,F2]" into packet type and frame names.
// The badver flag marks INITIAL_BADVER symbols: an Initial-shaped long
// header that must be sent with a grease version to probe the target's
// version-negotiation handling.
func parseAbstract(s string) (inputSymbol, error) {
	open := strings.Index(s, "(")
	lb := strings.Index(s, "[")
	if open < 0 || lb < 0 || !strings.HasSuffix(s, "]") {
		return inputSymbol{}, fmt.Errorf("reference: malformed abstract symbol %q", s)
	}
	sym := inputSymbol{typeName: s[:open]}
	switch s[:open] {
	case "INITIAL":
		sym.pt = quicwire.PacketInitial
	case "INITIAL_BADVER":
		sym.pt, sym.badver = quicwire.PacketInitial, true
	case "HANDSHAKE":
		sym.pt = quicwire.PacketHandshake
	case "SHORT":
		sym.pt = quicwire.PacketShort
	case "0RTT":
		sym.pt = quicwire.PacketZeroRTT
	default:
		return inputSymbol{}, fmt.Errorf("reference: unknown packet type in %q", s)
	}
	space, ok := spaceFor(sym.pt)
	if !ok {
		return inputSymbol{}, fmt.Errorf("reference: cannot send packet type %v", sym.pt)
	}
	sym.space = space
	if inner := s[lb+1 : len(s)-1]; inner != "" {
		sym.frames = strings.Split(inner, ",")
	}
	return sym, nil
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

// placeholderLabels label the seeds of the placeholder keys per space.
var placeholderLabels = [3]string{"placeholder-0", "placeholder-1", "placeholder-2"}

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
		secret := clientSeedBytes(nil, c.cfg.Seed, c.seq, placeholderLabels[space], 32)
		c.placeholder[space] = quiccrypto.NewKeys(secret)
	}
	return c.placeholder[space]
}

// buildPacket builds the concrete packet for the abstract symbol in the
// client's send buffer, consuming any queued reactive ACK for the space
// (property 1).
func (c *QUICClient) buildPacket(sym inputSymbol, ex *Exchange) []byte {
	space := sym.space
	pn := c.sendPN[space]
	c.sendPN[space]++
	var conc *ConcretePacket
	if ex != nil {
		ex.ConcreteIn = []ConcretePacket{{Type: sym.typeName, PacketNumber: pn}}
		conc = &ex.ConcreteIn[0]
	}
	payload := c.payload[:0]
	for _, name := range sym.frames {
		f := c.buildFrame(space, name)
		payload = quicwire.AppendFrame(payload, f)
		if conc != nil {
			conc.Frames = append(conc.Frames, recorded(f))
		}
	}
	c.ackQueue[space] = false // any queued ACK is folded in or superseded
	for len(payload) < 20 {
		payload = append(payload, 0) // PADDING up to the HP sample size
	}
	c.payload = payload

	keys := c.sendKeys(space)
	buf := c.tx[:0]
	var pnOffset int
	if sym.pt == quicwire.PacketShort {
		buf, pnOffset = quicwire.AppendShortHeader(buf, c.dcid, pn)
	} else {
		var token []byte
		if sym.pt == quicwire.PacketInitial {
			token = c.retryToken
		}
		version := uint32(quicwire.Version1)
		if sym.badver {
			version = quicwire.VersionGrease
		}
		sealedLen := len(payload) + keys.Overhead()
		buf, pnOffset = quicwire.AppendLongHeaderVersion(buf, sym.pt, version, c.dcid, c.scid, token, pn, sealedLen)
	}
	c.tx = keys.SealPacket(&c.sc, append(buf, payload...), pnOffset, pn)
	return c.tx
}

// recorded copies a frame's byte fields out of the client's scratch for an
// Oracle Table record.
func recorded(f quicwire.Frame) quicwire.Frame {
	f.Data = bytes.Clone(f.Data)
	f.Token = bytes.Clone(f.Token)
	f.ConnectionID = bytes.Clone(f.ConnectionID)
	return f
}

// buildFrame constructs a concrete frame for an abstract frame name using
// the client's live connection state. Its data may alias the client's
// scratch until the next frame is built.
func (c *QUICClient) buildFrame(space int, name string) quicwire.Frame {
	switch name {
	case "ACK":
		largest := c.largestRecv[space]
		return quicwire.Frame{Type: quicwire.FrameAck, AckLargest: largest, AckRange: largest}
	case "CRYPTO":
		if space == 0 {
			return quicwire.Frame{Type: quicwire.FrameCrypto, Offset: 0, Data: c.hello}
		}
		c.text = append(append(c.text[:0], "FINISHED:"...), c.clientRandom[:16]...)
		return quicwire.Frame{Type: quicwire.FrameCrypto, Offset: 0, Data: c.text}
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
		c.text = strconv.AppendInt(append(c.text[:0], "GET /page-"...), int64(c.reqCount), 10)
		f := quicwire.Frame{Type: quicwire.FrameStream, StreamID: 0,
			Offset: c.streamSent, Data: c.text}
		c.streamSent += uint64(len(c.text))
		return f
	case "PING":
		return quicwire.Frame{Type: quicwire.FramePing}
	default:
		panic(fmt.Sprintf("reference: no constructor for abstract frame %q", name))
	}
}

// Answers reports whether datagrams, heard as the response to the step in
// flight, abstract to the output want. It opens them with the client's
// current keys and leaves the client's state as it found it, so a
// transport can ask it of the datagrams heard so far before it hands the
// whole response back.
func (c *QUICClient) Answers(datagrams [][]byte, want string) bool {
	saved := *c
	c.abstract(datagrams, nil)
	ok := string(c.label) == want
	// Restore everything a response changes, but keep the scratch the
	// packet path grew.
	rx, label, frames := c.rx, c.label, c.rxFrames
	*c = saved
	c.rx, c.label, c.rxFrames = rx, label, frames
	return ok
}

// abstract builds the abstract output of the server's datagrams in
// c.label (property 5), updating client connection state along the way,
// and records their concrete packets in ex unless ex is nil.
func (c *QUICClient) abstract(datagrams [][]byte, ex *Exchange) {
	c.heard += len(datagrams)
	c.label = append(c.label[:0], '{')
	for _, dgram := range datagrams {
		for rest := dgram; len(rest) > 0; {
			consumed := c.processPacket(rest, ex)
			if consumed <= 0 {
				break
			}
			rest = rest[consumed:]
		}
	}
	c.label = append(c.label, '}')
}

// processResponses abstracts the server's datagrams and returns the
// interned output.
func (c *QUICClient) processResponses(datagrams [][]byte, ex *Exchange) string {
	c.abstract(datagrams, ex)
	if out, ok := c.outputs[string(c.label)]; ok {
		return out
	}
	if len(c.outputs) >= maxOutputs {
		clear(c.outputs)
	}
	out := string(c.label)
	c.outputs[out] = out
	return out
}

// emit adds one server packet to the step's output: its abstract label
// and, when ex records the exchange, its concrete form.
func (c *QUICClient) emit(ex *Exchange, t quicwire.PacketType, pn uint64, frames []quicwire.Frame) {
	if len(c.label) > 1 {
		c.label = append(c.label, ',')
	}
	c.label = quicwire.AppendSymbol(c.label, t, frames)
	if ex != nil {
		cp := ConcretePacket{Type: t.String(), PacketNumber: pn}
		for _, f := range frames {
			cp.Frames = append(cp.Frames, recorded(f))
		}
		ex.ConcreteOut = append(ex.ConcreteOut, cp)
	}
}

// processPacket handles one server packet, emitting it if it abstracts to
// a label, and returns the number of bytes consumed from the datagram.
func (c *QUICClient) processPacket(data []byte, ex *Exchange) int {
	hdr, err := quicwire.ParseHeader(data, quicsim.CIDLen)
	if err != nil {
		// Not parseable as a QUIC packet: check for a stateless reset
		// (random-looking short-header datagram). Consume everything.
		if c.looksLikeReset(data) {
			c.emit(ex, quicwire.PacketStatelessReset, 0, nil)
		}
		return len(data)
	}
	if !bytes.Equal(hdr.DCID, c.scid) && !(hdr.Type == quicwire.PacketShort && c.looksLikeReset(data)) {
		// Addressed to another connection: a late answer to an earlier
		// execution, which no key of this one could open.
		c.foreign++
		return hdr.PayloadEnd
	}
	switch hdr.Type {
	case quicwire.PacketRetry:
		// Token is everything except the 16-byte integrity tag.
		if len(hdr.Token) > 16 {
			// A fresh slice: Answers restores the token it saved by its
			// slice header alone.
			c.retryToken = bytes.Clone(hdr.Token[:len(hdr.Token)-16])
		}
		if c.cfg.RetryFromNewPort {
			// Issue 3: reopen the socket on a new port before retrying.
			c.setPort(c.port + 1)
		}
		c.emit(ex, hdr.Type, 0, nil)
		return hdr.PayloadEnd
	case quicwire.PacketVersionNegotiation:
		c.emit(ex, hdr.Type, 0, nil)
		return hdr.PayloadEnd
	}
	space, ok := spaceFor(hdr.Type)
	if !ok {
		return hdr.PayloadEnd
	}
	keys := c.keys[space].Server
	if keys == nil {
		// Undecryptable: could be a stateless reset disguised as a short
		// packet (they are indistinguishable by design, RFC 9000 §10.3).
		if hdr.Type == quicwire.PacketShort && c.looksLikeReset(data) {
			c.emit(ex, quicwire.PacketStatelessReset, 0, nil)
			return len(data)
		}
		return hdr.PayloadEnd
	}
	c.rx = append(c.rx[:0], data[:hdr.PayloadEnd]...)
	pn, payload, err := keys.OpenPacket(&c.sc, c.rx, hdr.PNOffset)
	if err != nil {
		if hdr.Type == quicwire.PacketShort && c.looksLikeReset(data) {
			c.emit(ex, quicwire.PacketStatelessReset, 0, nil)
			return len(data)
		}
		return hdr.PayloadEnd
	}
	frames, err := quicwire.ParseFramesAppend(c.rxFrames[:0], payload)
	c.rxFrames = frames[:0]
	if err != nil {
		return hdr.PayloadEnd
	}
	if pn > c.largestRecv[space] {
		c.largestRecv[space] = pn
	}
	c.ackQueue[space] = true // a reactive ACK is now queued (property 1)
	c.applyFrames(space, frames)
	c.emit(ex, hdr.Type, pn, frames)
	return hdr.PayloadEnd
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
		if f.Type == quicwire.FrameCrypto && space == 0 && len(c.serverRandom) == 0 {
			const prefix = "SERVER_HELLO:"
			if len(f.Data) > len(prefix) && string(f.Data[:len(prefix)]) == prefix {
				c.serverRandom = append(c.serverRandom, f.Data[len(prefix):]...)
				c.keys[1], c.keys[2] = quiccrypto.SessionKeys(c.hello, c.serverRandom)
			}
		}
	}
}
