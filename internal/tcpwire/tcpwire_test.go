package tcpwire

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

var (
	srcAddr = [4]byte{10, 0, 0, 1}
	dstAddr = [4]byte{10, 0, 0, 2}
)

func TestFlagsString(t *testing.T) {
	cases := map[Flags]string{
		0:               "NIL",
		SYN:             "SYN",
		SYN | ACK:       "SYN+ACK",
		ACK | PSH:       "ACK+PSH",
		FIN | ACK:       "ACK+FIN",
		RST:             "RST",
		ACK | RST:       "ACK+RST",
		SYN | ACK | FIN: "SYN+ACK+FIN",
	}
	for f, want := range cases {
		if got := f.String(); got != want {
			t.Errorf("Flags(%b).String() = %q, want %q", f, got, want)
		}
	}
}

func TestParseFlagsRoundTrip(t *testing.T) {
	for f := Flags(0); f < 64; f++ {
		got, err := ParseFlags(f.String())
		if err != nil {
			t.Fatalf("ParseFlags(%q): %v", f.String(), err)
		}
		if got != f {
			t.Fatalf("round trip %b -> %q -> %b", f, f.String(), got)
		}
	}
	if _, err := ParseFlags("SYN+BOGUS"); err == nil {
		t.Fatal("bogus flag accepted")
	}
}

func TestSegmentEncodeDecode(t *testing.T) {
	s := Segment{
		SourcePort:      40965,
		DestinationPort: 44344,
		SeqNumber:       48108,
		AckNumber:       7,
		Flags:           SYN | ACK,
		Window:          8192,
		Payload:         []byte("hello"),
	}
	buf := s.Encode(srcAddr, dstAddr)
	got, err := Decode(buf, srcAddr, dstAddr)
	if err != nil {
		t.Fatal(err)
	}
	if got.SourcePort != s.SourcePort || got.SeqNumber != s.SeqNumber ||
		got.Flags != s.Flags || !bytes.Equal(got.Payload, s.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, s)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	s := Segment{Flags: SYN, SeqNumber: 1}
	buf := s.Encode(srcAddr, dstAddr)
	buf[4] ^= 0xFF // corrupt seq number
	if _, err := Decode(buf, srcAddr, dstAddr); err != ErrBadChecksum {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestDecodeRejectsShort(t *testing.T) {
	if _, err := Decode(make([]byte, 10), srcAddr, dstAddr); err != ErrTooShort {
		t.Fatalf("err = %v, want ErrTooShort", err)
	}
}

func TestDecodeRejectsBadOffset(t *testing.T) {
	s := Segment{Flags: ACK}
	buf := s.Encode(srcAddr, dstAddr)
	buf[12] = 3 << 4 // offset 12 < 20
	// Recompute checksum so the offset error is what surfaces.
	buf[16], buf[17] = 0, 0
	sum := checksum(buf, srcAddr, dstAddr)
	buf[16], buf[17] = byte(sum>>8), byte(sum)
	if _, err := Decode(buf, srcAddr, dstAddr); err != ErrBadOffset {
		t.Fatalf("err = %v, want ErrBadOffset", err)
	}
}

func TestDecodeWrongPseudoHeader(t *testing.T) {
	s := Segment{Flags: SYN}
	buf := s.Encode(srcAddr, dstAddr)
	if _, err := Decode(buf, srcAddr, [4]byte{1, 2, 3, 4}); err != ErrBadChecksum {
		t.Fatalf("err = %v, want ErrBadChecksum (wrong addresses)", err)
	}
}

func TestSegmentJSONRoundTrip(t *testing.T) {
	s := Segment{SourcePort: 1, DestinationPort: 2, SeqNumber: 3, AckNumber: 4,
		Flags: ACK | PSH, Window: 5, Payload: []byte{0xAA}}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"flags":"ACK+PSH"`)) {
		t.Fatalf("JSON missing symbolic flags: %s", data)
	}
	var back Segment
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Flags != s.Flags || back.SeqNumber != s.SeqNumber || !bytes.Equal(back.Payload, s.Payload) {
		t.Fatalf("JSON round trip mismatch: %+v vs %+v", back, s)
	}
}

func TestAbstractNotation(t *testing.T) {
	s := Segment{Flags: ACK | PSH, Payload: []byte{1}}
	if got := s.Abstract(); got != "ACK+PSH(?,?,1)" {
		t.Fatalf("Abstract = %q", got)
	}
	s2 := Segment{Flags: SYN}
	if got := s2.Abstract(); got != "SYN(?,?,0)" {
		t.Fatalf("Abstract = %q", got)
	}
}

func TestPropertyEncodeDecode(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, window uint16, payload []byte) bool {
		s := Segment{
			SourcePort: sp, DestinationPort: dp,
			SeqNumber: seq, AckNumber: ack,
			Flags: Flags(flags & 0x3F), Window: window,
			Payload: payload,
		}
		got, err := Decode(s.Encode(srcAddr, dstAddr), srcAddr, dstAddr)
		if err != nil {
			return false
		}
		return got.SourcePort == s.SourcePort && got.DestinationPort == s.DestinationPort &&
			got.SeqNumber == s.SeqNumber && got.AckNumber == s.AckNumber &&
			got.Flags == s.Flags && got.Window == s.Window &&
			bytes.Equal(got.Payload, s.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestChecksumMatchesReference: the allocation-free checksum equals the
// reference wire.Checksum over the materialised IPv4 pseudo-header
// src ∥ dst ∥ {0, 6, len} ∥ segment, for segments of odd and even length.
func TestChecksumMatchesReference(t *testing.T) {
	f := func(segment []byte, src, dst [4]byte) bool {
		n := len(segment)
		pseudo := append(append(src[:], dst[:]...), 0, 6, byte(n>>8), byte(n))
		return checksum(segment, src, dst) == wire.Checksum(append(pseudo, segment...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
