package quicwire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFrameRoundTripAll(t *testing.T) {
	frames := []Frame{
		{Type: FramePing},
		{Type: FrameHandshakeDone},
		{Type: FrameAck, AckLargest: 9, AckDelay: 3, AckRange: 2},
		{Type: FrameResetStream, StreamID: 4, ErrorCode: 7, FinalSize: 100},
		{Type: FrameStopSending, StreamID: 8, ErrorCode: 2},
		{Type: FrameCrypto, Offset: 10, Data: []byte("hello")},
		{Type: FrameNewToken, Token: []byte{1, 2, 3}},
		{Type: FrameStream, StreamID: 0, Offset: 5, Data: []byte("data"), Fin: true},
		{Type: FrameStream, StreamID: 4, Offset: 0, Data: []byte("x")},
		{Type: FrameMaxData, Limit: 65536},
		{Type: FrameMaxStreamData, StreamID: 4, Limit: 1024},
		{Type: FrameMaxStreams, Limit: 100},
		{Type: FrameDataBlocked, Limit: 500},
		{Type: FrameStreamDataBlocked, StreamID: 4, Limit: 0},
		{Type: FrameStreamsBlocked, Limit: 1},
		{Type: FrameNewConnectionID, SeqNumber: 1, RetirePrior: 0,
			ConnectionID: []byte{9, 9, 9, 9}, ResetToken: [16]byte{1}},
		{Type: FrameRetireConnectionID, SeqNumber: 3},
		{Type: FramePathChallenge, PathData: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Type: FramePathResponse, PathData: [8]byte{8, 7, 6, 5, 4, 3, 2, 1}},
		{Type: FrameConnectionClose, ErrorCode: 0x0a, CloseFrame: 0x1e, ReasonPhrase: "protocol violation"},
		{Type: FrameConnectionClose, ErrorCode: 1, AppClose: true, ReasonPhrase: "bye"},
	}
	for _, f := range frames {
		buf := AppendFrame(nil, f)
		got, err := ParseFrames(buf)
		if err != nil {
			t.Fatalf("%v: %v", f.Type, err)
		}
		if len(got) != 1 {
			t.Fatalf("%v: parsed %d frames", f.Type, len(got))
		}
		if !reflect.DeepEqual(got[0], f) {
			t.Fatalf("%v round trip:\n got %+v\nwant %+v", f.Type, got[0], f)
		}
	}
}

func TestParseFramesSequence(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, Frame{Type: FrameAck, AckLargest: 3})
	buf = append(buf, 0, 0, 0) // PADDING frames
	buf = AppendFrame(buf, Frame{Type: FrameCrypto, Data: []byte("ch")})
	frames, err := ParseFrames(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 || frames[0].Type != FrameAck || frames[1].Type != FrameCrypto {
		t.Fatalf("frames = %v", frames)
	}
}

func TestParseFramesTruncated(t *testing.T) {
	buf := AppendFrame(nil, Frame{Type: FrameCrypto, Data: []byte("hello")})
	if _, err := ParseFrames(buf[:len(buf)-2]); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestParseFramesUnknownType(t *testing.T) {
	if _, err := ParseFrames([]byte{0x3f}); err == nil {
		t.Fatal("unknown frame type accepted")
	}
}

func TestFrameNames(t *testing.T) {
	frames := []Frame{
		{Type: FrameStream}, {Type: FrameAck}, {Type: FrameStream}, {Type: FrameMaxData},
	}
	if got := string(AppendFrameNames(nil, frames)); got != "ACK,MAX_DATA,STREAM" {
		t.Fatalf("AppendFrameNames = %q", got)
	}
	if got := AppendFrameNames(nil, nil); len(got) != 0 {
		t.Fatalf("AppendFrameNames(nil) = %q", got)
	}
	if got := string(AppendSymbol([]byte("x"), PacketHandshake, frames)); got != "xHANDSHAKE(?,?)[ACK,MAX_DATA,STREAM]" {
		t.Fatalf("AppendSymbol = %q", got)
	}
	buf := make([]byte, 0, 64)
	if avg := testing.AllocsPerRun(200, func() { buf = AppendSymbol(buf[:0], PacketShort, frames) }); avg != 0 {
		t.Fatalf("AppendSymbol allocates %.1f allocs/op, want 0", avg)
	}
}

func TestLongHeaderRoundTrip(t *testing.T) {
	dcid := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	scid := []byte{9, 10, 11, 12}
	body := make([]byte, 32) // sealed payload incl. tag
	buf, pnOffset := AppendLongHeader(nil, PacketInitial, dcid, scid, []byte("tok"), 42, len(body))
	buf = append(buf, body...)
	h, err := ParseHeader(buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != PacketInitial || !bytes.Equal(h.DCID, dcid) || !bytes.Equal(h.SCID, scid) {
		t.Fatalf("header = %+v", h)
	}
	if !bytes.Equal(h.Token, []byte("tok")) {
		t.Fatalf("token = %q", h.Token)
	}
	if h.PNOffset != pnOffset {
		t.Fatalf("pnOffset = %d, want %d", h.PNOffset, pnOffset)
	}
	if h.PayloadEnd != len(buf) {
		t.Fatalf("payloadEnd = %d, want %d", h.PayloadEnd, len(buf))
	}
	if pn := binary.BigEndian.Uint32(buf[h.PNOffset:]); pn != 42 {
		t.Fatalf("pn = %d", pn)
	}
}

func TestHandshakeHeaderNoToken(t *testing.T) {
	buf, _ := AppendLongHeader(nil, PacketHandshake, []byte{1}, []byte{2}, nil, 7, 20)
	buf = append(buf, make([]byte, 20)...)
	h, err := ParseHeader(buf, 1)
	if err != nil || h.Type != PacketHandshake {
		t.Fatalf("h=%+v err=%v", h, err)
	}
	if len(h.Token) != 0 {
		t.Fatal("handshake packets carry no token")
	}
}

func TestShortHeaderRoundTrip(t *testing.T) {
	dcid := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	buf, pnOffset := AppendShortHeader(nil, dcid, 1234)
	buf = append(buf, make([]byte, 24)...)
	h, err := ParseHeader(buf, len(dcid))
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != PacketShort || !bytes.Equal(h.DCID, dcid) {
		t.Fatalf("header = %+v", h)
	}
	if pn := binary.BigEndian.Uint32(buf[pnOffset:]); pn != 1234 {
		t.Fatalf("pn = %d", pn)
	}
}

func TestCoalescedDatagram(t *testing.T) {
	buf, _ := AppendLongHeader(nil, PacketInitial, []byte{1}, []byte{2}, nil, 0, 20)
	buf = append(buf, make([]byte, 20)...)
	firstEnd := len(buf)
	buf, _ = AppendLongHeader(buf, PacketHandshake, []byte{1}, []byte{2}, nil, 0, 24)
	buf = append(buf, make([]byte, 24)...)

	h1, err := ParseHeader(buf, 1)
	if err != nil || h1.Type != PacketInitial {
		t.Fatalf("h1=%+v err=%v", h1, err)
	}
	if h1.PayloadEnd != firstEnd {
		t.Fatalf("first packet end = %d, want %d", h1.PayloadEnd, firstEnd)
	}
	h2, err := ParseHeader(buf[h1.PayloadEnd:], 1)
	if err != nil || h2.Type != PacketHandshake {
		t.Fatalf("h2=%+v err=%v", h2, err)
	}
}

func TestRetryHeader(t *testing.T) {
	buf := AppendRetry(nil, []byte{1, 2}, []byte{3, 4}, []byte("retry-token-and-tag"))
	h, err := ParseHeader(buf, 2)
	if err != nil || h.Type != PacketRetry {
		t.Fatalf("h=%+v err=%v", h, err)
	}
	if string(h.Token) != "retry-token-and-tag" {
		t.Fatalf("token = %q", h.Token)
	}
}

func TestVersionNegotiationHeader(t *testing.T) {
	buf := AppendVersionNegotiation(nil, []byte{1}, []byte{2}, []uint32{Version1, 0xff00001d})
	h, err := ParseHeader(buf, 1)
	if err != nil || h.Type != PacketVersionNegotiation {
		t.Fatalf("h=%+v err=%v", h, err)
	}
	if len(h.Token) != 8 {
		t.Fatalf("version list length = %d", len(h.Token))
	}
}

func TestParseHeaderErrors(t *testing.T) {
	if _, err := ParseHeader(nil, 8); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := ParseHeader([]byte{0x40, 1, 2}, 8); err == nil {
		t.Fatal("short short-header accepted")
	}
	bad := []byte{0xC0, 0xde, 0xad, 0xbe, 0xef, 0} // unknown version, zero CIDs
	if _, err := ParseHeader(append(bad, 0), 8); err != ErrBadVersion {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestPropertyStreamFrameRoundTrip(t *testing.T) {
	f := func(id uint32, off uint32, data []byte, fin bool) bool {
		fr := Frame{Type: FrameStream, StreamID: uint64(id), Offset: uint64(off), Data: data, Fin: fin}
		got, err := ParseFrames(AppendFrame(nil, fr))
		if err != nil || len(got) != 1 {
			return false
		}
		g := got[0]
		return g.StreamID == fr.StreamID && g.Offset == fr.Offset &&
			g.Fin == fr.Fin && bytes.Equal(g.Data, fr.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
