// Package quicwire implements the QUIC native alphabet: variable-length
// integer framing, long and short packet headers, the seven packet types
// and twenty frame types of the paper's §6.2.1, encoding/decoding, and
// datagram coalescing. Packet payload protection lives in quiccrypto.
package quicwire

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/wire"
)

// FrameType identifies a QUIC frame (RFC 9000 §19 wire values).
type FrameType uint64

// The twenty QUIC frame types.
const (
	FramePadding            FrameType = 0x00
	FramePing               FrameType = 0x01
	FrameAck                FrameType = 0x02
	FrameResetStream        FrameType = 0x04
	FrameStopSending        FrameType = 0x05
	FrameCrypto             FrameType = 0x06
	FrameNewToken           FrameType = 0x07
	FrameStream             FrameType = 0x08 // base type; 0x08-0x0f with OFF/LEN/FIN bits
	FrameMaxData            FrameType = 0x10
	FrameMaxStreamData      FrameType = 0x11
	FrameMaxStreams         FrameType = 0x12
	FrameDataBlocked        FrameType = 0x14
	FrameStreamDataBlocked  FrameType = 0x15
	FrameStreamsBlocked     FrameType = 0x16
	FrameNewConnectionID    FrameType = 0x18
	FrameRetireConnectionID FrameType = 0x19
	FramePathChallenge      FrameType = 0x1a
	FramePathResponse       FrameType = 0x1b
	FrameConnectionClose    FrameType = 0x1c
	FrameHandshakeDone      FrameType = 0x1e
)

var frameNames = map[FrameType]string{
	FramePadding:            "PADDING",
	FramePing:               "PING",
	FrameAck:                "ACK",
	FrameResetStream:        "RESET_STREAM",
	FrameStopSending:        "STOP_SENDING",
	FrameCrypto:             "CRYPTO",
	FrameNewToken:           "NEW_TOKEN",
	FrameStream:             "STREAM",
	FrameMaxData:            "MAX_DATA",
	FrameMaxStreamData:      "MAX_STREAM_DATA",
	FrameMaxStreams:         "MAX_STREAMS",
	FrameDataBlocked:        "DATA_BLOCKED",
	FrameStreamDataBlocked:  "STREAM_DATA_BLOCKED",
	FrameStreamsBlocked:     "STREAMS_BLOCKED",
	FrameNewConnectionID:    "NEW_CONNECTION_ID",
	FrameRetireConnectionID: "RETIRE_CONNECTION_ID",
	FramePathChallenge:      "PATH_CHALLENGE",
	FramePathResponse:       "PATH_RESPONSE",
	FrameConnectionClose:    "CONNECTION_CLOSE",
	FrameHandshakeDone:      "HANDSHAKE_DONE",
}

// String returns the frame type's specification name.
func (t FrameType) String() string {
	if n, ok := frameNames[t]; ok {
		return n
	}
	return fmt.Sprintf("FRAME_%#x", uint64(t))
}

// Frame is one QUIC frame. Fields are interpreted per Type; unused fields
// are zero. This flat representation keeps encode/decode and the adapter's
// abstraction function simple.
type Frame struct {
	Type FrameType

	// Ack fields.
	AckLargest uint64
	AckDelay   uint64
	AckRange   uint64 // first (only) range length

	// Crypto and Stream fields.
	Offset   uint64
	Data     []byte
	StreamID uint64
	Fin      bool

	// Flow control and limit fields (MAX_DATA, MAX_STREAM_DATA, MAX_STREAMS,
	// DATA_BLOCKED, STREAM_DATA_BLOCKED, STREAMS_BLOCKED, RESET_STREAM,
	// STOP_SENDING).
	Limit     uint64
	ErrorCode uint64
	FinalSize uint64

	// NEW_CONNECTION_ID / RETIRE_CONNECTION_ID fields.
	SeqNumber    uint64
	RetirePrior  uint64
	ConnectionID []byte
	ResetToken   [16]byte

	// PATH_CHALLENGE / PATH_RESPONSE payload.
	PathData [8]byte

	// NEW_TOKEN / CONNECTION_CLOSE auxiliary data.
	Token        []byte
	ReasonPhrase string
	CloseFrame   uint64 // frame type that triggered a transport close
	AppClose     bool   // 0x1d application close variant
}

// Decode errors.
var (
	ErrTruncatedFrame = errors.New("quicwire: truncated frame")
	ErrUnknownFrame   = errors.New("quicwire: unknown frame type")
)

// AppendFrame serializes f onto b. It appends in place (capacity in b is
// reused), so steady-state encoding into a preallocated buffer performs no
// allocations.
func AppendFrame(b []byte, f Frame) []byte {
	w := wire.WriterFor(b)
	switch f.Type {
	case FramePadding, FramePing, FrameHandshakeDone:
		w.Varint(uint64(f.Type))
	case FrameAck:
		w.Varint(uint64(FrameAck))
		w.Varint(f.AckLargest)
		w.Varint(f.AckDelay)
		w.Varint(0) // additional range count
		w.Varint(f.AckRange)
	case FrameResetStream:
		w.Varint(uint64(FrameResetStream))
		w.Varint(f.StreamID)
		w.Varint(f.ErrorCode)
		w.Varint(f.FinalSize)
	case FrameStopSending:
		w.Varint(uint64(FrameStopSending))
		w.Varint(f.StreamID)
		w.Varint(f.ErrorCode)
	case FrameCrypto:
		w.Varint(uint64(FrameCrypto))
		w.Varint(f.Offset)
		w.Varint(uint64(len(f.Data)))
		w.Write(f.Data)
	case FrameNewToken:
		w.Varint(uint64(FrameNewToken))
		w.Varint(uint64(len(f.Token)))
		w.Write(f.Token)
	case FrameStream:
		// Always emit OFF and LEN bits; FIN as flagged.
		t := uint64(FrameStream) | 0x04 | 0x02
		if f.Fin {
			t |= 0x01
		}
		w.Varint(t)
		w.Varint(f.StreamID)
		w.Varint(f.Offset)
		w.Varint(uint64(len(f.Data)))
		w.Write(f.Data)
	case FrameMaxData:
		w.Varint(uint64(FrameMaxData))
		w.Varint(f.Limit)
	case FrameMaxStreamData:
		w.Varint(uint64(FrameMaxStreamData))
		w.Varint(f.StreamID)
		w.Varint(f.Limit)
	case FrameMaxStreams, FrameStreamsBlocked:
		w.Varint(uint64(f.Type))
		w.Varint(f.Limit)
	case FrameDataBlocked:
		w.Varint(uint64(FrameDataBlocked))
		w.Varint(f.Limit)
	case FrameStreamDataBlocked:
		w.Varint(uint64(FrameStreamDataBlocked))
		w.Varint(f.StreamID)
		w.Varint(f.Limit)
	case FrameNewConnectionID:
		w.Varint(uint64(FrameNewConnectionID))
		w.Varint(f.SeqNumber)
		w.Varint(f.RetirePrior)
		w.Byte(byte(len(f.ConnectionID)))
		w.Write(f.ConnectionID)
		w.Write(f.ResetToken[:])
	case FrameRetireConnectionID:
		w.Varint(uint64(FrameRetireConnectionID))
		w.Varint(f.SeqNumber)
	case FramePathChallenge, FramePathResponse:
		w.Varint(uint64(f.Type))
		w.Write(f.PathData[:])
	case FrameConnectionClose:
		t := uint64(FrameConnectionClose)
		if f.AppClose {
			t = 0x1d
		}
		w.Varint(t)
		w.Varint(f.ErrorCode)
		if !f.AppClose {
			w.Varint(f.CloseFrame)
		}
		w.Varint(uint64(len(f.ReasonPhrase)))
		w.Write([]byte(f.ReasonPhrase))
	default:
		panic(fmt.Sprintf("quicwire: cannot encode frame type %v", f.Type))
	}
	return w.Bytes()
}

// ParseFrames decodes all frames in a packet payload. Byte fields of the
// returned frames (Data, Token, ConnectionID) are copies, safe to retain
// after the payload buffer is reused.
func ParseFrames(payload []byte) ([]Frame, error) {
	return parseFrames(nil, payload, false)
}

// ParseFramesAppend is the zero-allocation decode path: parsed frames are
// appended to dst (pass dst[:0] to reuse its capacity), and byte fields of
// the returned frames alias payload instead of copying it. Callers that
// retain a frame — or reuse the payload buffer — past the next decode must
// copy; steady-state decoding with a reused dst and payload performs no
// allocations.
func ParseFramesAppend(dst []Frame, payload []byte) ([]Frame, error) {
	return parseFrames(dst, payload, true)
}

func parseFrames(dst []Frame, payload []byte, alias bool) ([]Frame, error) {
	r := wire.NewReader(payload)
	frames := dst
	for r.Len() > 0 {
		f, err := parseFrame(r, alias)
		if err != nil {
			return nil, err
		}
		// PADDING is structural filler; drop it from the logical frame list
		// but keep everything else, duplicates included.
		if f.Type != FramePadding {
			frames = append(frames, f)
		}
	}
	return frames, nil
}

// keep returns b aliased or copied per the alias flag, preserving the
// nil-for-empty convention of the copying path.
func keep(b []byte, alias bool) []byte {
	if len(b) == 0 {
		return nil
	}
	if alias {
		return b
	}
	return append([]byte(nil), b...)
}

func parseFrame(r *wire.Reader, alias bool) (Frame, error) {
	t := r.Varint()
	if r.Err() != nil {
		return Frame{}, ErrTruncatedFrame
	}
	var f Frame
	switch {
	case t == uint64(FramePadding), t == uint64(FramePing), t == uint64(FrameHandshakeDone):
		f.Type = FrameType(t)
	case t == uint64(FrameAck) || t == 0x03:
		f.Type = FrameAck
		f.AckLargest = r.Varint()
		f.AckDelay = r.Varint()
		count := r.Varint()
		f.AckRange = r.Varint()
		// Skip extra ranges, stopping at the first reader error: count is
		// attacker-controlled and may be far larger than the payload could
		// ever hold, so looping the declared count on an exhausted reader
		// would spin for ~2^62 no-op iterations.
		for i := uint64(0); i < count && r.Err() == nil; i++ {
			r.Varint()
			r.Varint()
		}
		if t == 0x03 { // ECN counts
			r.Varint()
			r.Varint()
			r.Varint()
		}
	case t == uint64(FrameResetStream):
		f.Type = FrameResetStream
		f.StreamID = r.Varint()
		f.ErrorCode = r.Varint()
		f.FinalSize = r.Varint()
	case t == uint64(FrameStopSending):
		f.Type = FrameStopSending
		f.StreamID = r.Varint()
		f.ErrorCode = r.Varint()
	case t == uint64(FrameCrypto):
		f.Type = FrameCrypto
		f.Offset = r.Varint()
		n := r.Varint()
		f.Data = keep(r.Bytes(int(n)), alias)
	case t == uint64(FrameNewToken):
		f.Type = FrameNewToken
		n := r.Varint()
		f.Token = keep(r.Bytes(int(n)), alias)
	case t >= 0x08 && t <= 0x0f: // STREAM with OFF/LEN/FIN bits
		f.Type = FrameStream
		f.Fin = t&0x01 != 0
		f.StreamID = r.Varint()
		if t&0x04 != 0 {
			f.Offset = r.Varint()
		}
		if t&0x02 != 0 {
			n := r.Varint()
			f.Data = keep(r.Bytes(int(n)), alias)
		} else {
			f.Data = keep(r.Rest(), alias)
		}
	case t == uint64(FrameMaxData):
		f.Type = FrameMaxData
		f.Limit = r.Varint()
	case t == uint64(FrameMaxStreamData):
		f.Type = FrameMaxStreamData
		f.StreamID = r.Varint()
		f.Limit = r.Varint()
	case t == uint64(FrameMaxStreams) || t == 0x13:
		f.Type = FrameMaxStreams
		f.Limit = r.Varint()
	case t == uint64(FrameDataBlocked):
		f.Type = FrameDataBlocked
		f.Limit = r.Varint()
	case t == uint64(FrameStreamDataBlocked):
		f.Type = FrameStreamDataBlocked
		f.StreamID = r.Varint()
		f.Limit = r.Varint()
	case t == uint64(FrameStreamsBlocked) || t == 0x17:
		f.Type = FrameStreamsBlocked
		f.Limit = r.Varint()
	case t == uint64(FrameNewConnectionID):
		f.Type = FrameNewConnectionID
		f.SeqNumber = r.Varint()
		f.RetirePrior = r.Varint()
		n := int(r.Byte())
		f.ConnectionID = keep(r.Bytes(n), alias)
		copy(f.ResetToken[:], r.Bytes(16))
	case t == uint64(FrameRetireConnectionID):
		f.Type = FrameRetireConnectionID
		f.SeqNumber = r.Varint()
	case t == uint64(FramePathChallenge), t == uint64(FramePathResponse):
		f.Type = FrameType(t)
		copy(f.PathData[:], r.Bytes(8))
	case t == uint64(FrameConnectionClose) || t == 0x1d:
		f.Type = FrameConnectionClose
		f.AppClose = t == 0x1d
		f.ErrorCode = r.Varint()
		if !f.AppClose {
			f.CloseFrame = r.Varint()
		}
		n := r.Varint()
		f.ReasonPhrase = string(r.Bytes(int(n)))
	default:
		return Frame{}, fmt.Errorf("%w: %#x", ErrUnknownFrame, t)
	}
	if r.Err() != nil {
		return Frame{}, ErrTruncatedFrame
	}
	return f, nil
}

// AppendFrameNames appends the sorted, de-duplicated frame-type names of
// a frame list in the paper's bracket notation (e.g. "ACK,CRYPTO"). The
// names sort alphabetically, which puts ACK first as in the paper's
// symbols. It allocates nothing for lists of up to eight distinct types.
func AppendFrameNames(b []byte, frames []Frame) []byte {
	names := make([]string, 0, 8)
	for _, f := range frames {
		if n := f.Type.String(); !slices.Contains(names, n) {
			names = append(names, n)
		}
	}
	slices.Sort(names)
	for i, n := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, n...)
	}
	return b
}

// AppendSymbol appends the abstract symbol of one packet, its type and
// its frame names in the form "TYPE(?,?)[F1,F2]".
func AppendSymbol(b []byte, t PacketType, frames []Frame) []byte {
	b = append(append(b, t.String()...), "(?,?)["...)
	return append(AppendFrameNames(b, frames), ']')
}
