package quicwire

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

// PacketType identifies one of the seven QUIC packet types of §6.2.1.
type PacketType int

// The seven packet types.
const (
	PacketInitial PacketType = iota
	PacketZeroRTT
	PacketHandshake
	PacketRetry
	PacketVersionNegotiation
	PacketShort
	PacketStatelessReset
)

var packetNames = map[PacketType]string{
	PacketInitial:            "INITIAL",
	PacketZeroRTT:            "0RTT",
	PacketHandshake:          "HANDSHAKE",
	PacketRetry:              "RETRY",
	PacketVersionNegotiation: "VERSION_NEGOTIATION",
	PacketShort:              "SHORT",
	PacketStatelessReset:     "RESET",
}

// String returns the packet type's name as used in abstract symbols.
func (t PacketType) String() string {
	if n, ok := packetNames[t]; ok {
		return n
	}
	return fmt.Sprintf("PACKET_%d", int(t))
}

// Version1 is the QUIC v1 version number.
const Version1 = 0x00000001

// VersionGrease is a reserved version of the 0x?a?a?a?a forcing pattern
// (RFC 9000 §15): no endpoint speaks it, so sending it in a long header
// is the canonical way to elicit a Version Negotiation packet.
const VersionGrease = 0x1a2a3a4a

// pnLen is the fixed packet-number encoding length this implementation
// emits (the maximum allowed, so reconstruction is trivial for the packet
// number volumes a learning session produces).
const pnLen = 4

// Header is the parsed plaintext part of a QUIC packet.
type Header struct {
	Type    PacketType
	Version uint32
	DCID    []byte
	SCID    []byte
	Token   []byte // Initial only

	// PNOffset is the index of the packet number within the packet bytes;
	// the AEAD associated data is the header through the packet number.
	PNOffset int
	// PayloadEnd is the index one past the protected payload (long headers
	// carry an explicit length; short headers extend to the datagram end).
	PayloadEnd int
	// FirstByte is the (unprotected) first byte, needed for header
	// protection.
	FirstByte byte
}

// Parse errors.
var (
	ErrShortPacket   = errors.New("quicwire: packet too short")
	ErrBadVersion    = errors.New("quicwire: unsupported version")
	ErrBadPacketType = errors.New("quicwire: malformed packet header")
)

// AppendLongHeader appends a long header for the given packet type and
// returns the extended buffer plus the packet-number offset. bodyLen is the
// length of the protected payload including the AEAD tag; the header's
// Length field covers pnLen+bodyLen.
func AppendLongHeader(b []byte, t PacketType, dcid, scid, token []byte, pn uint64, bodyLen int) (out []byte, pnOffset int) {
	return AppendLongHeaderVersion(b, t, Version1, dcid, scid, token, pn, bodyLen)
}

// AppendLongHeaderVersion is AppendLongHeader with an explicit version
// field. Non-v1 versions produce syntactically well-formed headers that a
// v1 receiver must reject (or answer with Version Negotiation) — the
// client uses this with VersionGrease to probe version handling.
func AppendLongHeaderVersion(b []byte, t PacketType, version uint32, dcid, scid, token []byte, pn uint64, bodyLen int) (out []byte, pnOffset int) {
	var typeBits byte
	switch t {
	case PacketInitial:
		typeBits = 0
	case PacketZeroRTT:
		typeBits = 1
	case PacketHandshake:
		typeBits = 2
	default:
		panic(fmt.Sprintf("quicwire: %v is not a numbered long packet type", t))
	}
	w := wire.WriterFor(b)
	w.Byte(0xC0 | typeBits<<4 | (pnLen - 1))
	w.Uint32(version)
	w.Byte(byte(len(dcid)))
	w.Write(dcid)
	w.Byte(byte(len(scid)))
	w.Write(scid)
	if t == PacketInitial {
		w.Varint(uint64(len(token)))
		w.Write(token)
	}
	w.Varint(uint64(pnLen + bodyLen))
	pnOffset = w.Len()
	w.Uint32(uint32(pn))
	return w.Bytes(), pnOffset
}

// AppendShortHeader appends a 1-RTT short header.
func AppendShortHeader(b []byte, dcid []byte, pn uint64) (out []byte, pnOffset int) {
	w := wire.WriterFor(b)
	w.Byte(0x40 | (pnLen - 1))
	w.Write(dcid)
	pnOffset = w.Len()
	w.Uint32(uint32(pn))
	return w.Bytes(), pnOffset
}

// AppendRetry appends a Retry packet (no packet number or payload
// protection; the integrity tag is the caller's responsibility and is
// simply appended after the token by higher layers).
func AppendRetry(b []byte, dcid, scid, token []byte) []byte {
	w := wire.WriterFor(b)
	w.Byte(0xC0 | 3<<4)
	w.Uint32(Version1)
	w.Byte(byte(len(dcid)))
	w.Write(dcid)
	w.Byte(byte(len(scid)))
	w.Write(scid)
	w.Write(token)
	return w.Bytes()
}

// AppendVersionNegotiation appends a Version Negotiation packet advertising
// the given versions.
func AppendVersionNegotiation(b []byte, dcid, scid []byte, versions []uint32) []byte {
	w := wire.WriterFor(b)
	w.Byte(0x80)
	w.Uint32(0)
	w.Byte(byte(len(dcid)))
	w.Write(dcid)
	w.Byte(byte(len(scid)))
	w.Write(scid)
	for _, v := range versions {
		w.Uint32(v)
	}
	return w.Bytes()
}

// ParseHeader parses the next packet header from data (which may contain a
// coalesced datagram; the caller slices data[hdr.PayloadEnd:] for the next
// packet). shortCIDLen is the connection-ID length the endpoint uses for
// short headers. For Retry packets Token holds the retry token plus
// integrity tag; for Version Negotiation Token holds the raw version list.
func ParseHeader(data []byte, shortCIDLen int) (Header, error) {
	if len(data) < 1 {
		return Header{}, ErrShortPacket
	}
	first := data[0]
	if first&0x80 == 0 {
		// Short header.
		if len(data) < 1+shortCIDLen+pnLen {
			return Header{}, ErrShortPacket
		}
		return Header{
			Type:       PacketShort,
			DCID:       data[1 : 1+shortCIDLen],
			PNOffset:   1 + shortCIDLen,
			PayloadEnd: len(data),
			FirstByte:  first,
		}, nil
	}
	r := wire.NewReader(data)
	r.Byte()
	version := r.Uint32()
	dcid := r.Bytes(int(r.Byte()))
	scid := r.Bytes(int(r.Byte()))
	if r.Err() != nil {
		return Header{}, ErrShortPacket
	}
	if version == 0 {
		return Header{
			Type: PacketVersionNegotiation, Version: version,
			DCID: dcid, SCID: scid,
			Token:      data[r.Offset():],
			PayloadEnd: len(data),
			FirstByte:  first,
		}, nil
	}
	if version != Version1 {
		return Header{}, ErrBadVersion
	}
	h := Header{Version: version, DCID: dcid, SCID: scid, FirstByte: first}
	switch (first >> 4) & 3 {
	case 0:
		h.Type = PacketInitial
		n := r.Varint()
		h.Token = r.Bytes(int(n))
	case 1:
		h.Type = PacketZeroRTT
	case 2:
		h.Type = PacketHandshake
	case 3:
		h.Type = PacketRetry
		h.Token = data[r.Offset():]
		h.PayloadEnd = len(data)
		if r.Err() != nil {
			return Header{}, ErrShortPacket
		}
		return h, nil
	}
	length := r.Varint()
	if r.Err() != nil {
		return Header{}, ErrShortPacket
	}
	h.PNOffset = r.Offset()
	end := h.PNOffset + int(length)
	if end > len(data) || length < pnLen {
		return Header{}, ErrShortPacket
	}
	h.PayloadEnd = end
	return h, nil
}

// LongHeaderCIDs extracts the version and connection IDs from a long
// header without judging the version — the invariant prefix of RFC 8999
// that every QUIC version shares. A server answering an unknown version
// with Version Negotiation parses only this much (ParseHeader has already
// rejected the packet with ErrBadVersion and kept nothing).
func LongHeaderCIDs(data []byte) (version uint32, dcid, scid []byte, err error) {
	if !IsLongHeader(data) {
		return 0, nil, nil, ErrBadPacketType
	}
	r := wire.NewReader(data)
	r.Byte()
	version = r.Uint32()
	dcid = r.Bytes(int(r.Byte()))
	scid = r.Bytes(int(r.Byte()))
	if r.Err() != nil {
		return 0, nil, nil, ErrShortPacket
	}
	return version, dcid, scid, nil
}

// IsLongHeader reports whether the datagram byte stream starts with a long
// header packet.
func IsLongHeader(data []byte) bool {
	return len(data) > 0 && data[0]&0x80 != 0
}
