// Package wire provides shared binary encoding helpers for the protocol
// substrates: QUIC-style variable-length integers (RFC 9000 §16), bounds-
// checked byte readers and writers, and the Internet checksum used by TCP.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortBuffer reports a read past the end of the input.
var ErrShortBuffer = errors.New("wire: short buffer")

// MaxVarint is the largest value representable as a QUIC varint (2^62 - 1).
const MaxVarint = (1 << 62) - 1

// AppendVarint appends v in QUIC variable-length encoding and returns the
// extended slice. It panics if v exceeds MaxVarint, which is always a
// programming error (protocol fields are range-checked at parse time).
func AppendVarint(b []byte, v uint64) []byte {
	switch {
	case v < 1<<6:
		return append(b, byte(v))
	case v < 1<<14:
		return append(b, byte(v>>8)|0x40, byte(v))
	case v < 1<<30:
		return append(b, byte(v>>24)|0x80, byte(v>>16), byte(v>>8), byte(v))
	case v <= MaxVarint:
		return append(b, byte(v>>56)|0xC0, byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	default:
		panic(fmt.Sprintf("wire: varint value %d out of range", v))
	}
}

// VarintLen returns the number of bytes AppendVarint would use for v.
func VarintLen(v uint64) int {
	switch {
	case v < 1<<6:
		return 1
	case v < 1<<14:
		return 2
	case v < 1<<30:
		return 4
	default:
		return 8
	}
}

// ReadVarint decodes a varint from the front of b, returning the value and
// the number of bytes consumed.
func ReadVarint(b []byte) (v uint64, n int, err error) {
	if len(b) == 0 {
		return 0, 0, ErrShortBuffer
	}
	n = 1 << (b[0] >> 6)
	if len(b) < n {
		return 0, 0, ErrShortBuffer
	}
	v = uint64(b[0] & 0x3F)
	for i := 1; i < n; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v, n, nil
}

// Reader is a bounds-checked cursor over a byte slice. The first decode
// error sticks: all subsequent reads fail fast, so parse code can defer a
// single error check to the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. The caller must not mutate b while the
// Reader is in use.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Offset returns the number of bytes consumed so far.
func (r *Reader) Offset() int { return r.off }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrShortBuffer
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uint16 reads a big-endian uint16.
func (r *Reader) Uint16() uint16 {
	if r.err != nil || r.off+2 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

// Uint32 reads a big-endian uint32.
func (r *Reader) Uint32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// Varint reads a QUIC varint.
func (r *Reader) Varint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n, err := ReadVarint(r.buf[r.off:])
	if err != nil {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Bytes reads exactly n bytes. The returned slice aliases the underlying
// buffer; callers that retain it must copy.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || r.err != nil || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Rest consumes and returns all unread bytes.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off:]
	r.off = len(r.buf)
	return b
}

// Writer accumulates big-endian binary data. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// WriterFor returns a Writer that appends to b in place, following Go's
// append semantics: existing capacity in b is reused, so encode paths that
// pass a preallocated buffer run without per-call allocations. The zero
// Writer plus Write(b) copies b instead — hot paths should use WriterFor.
func WriterFor(b []byte) Writer { return Writer{buf: b} }

// Bytes returns the accumulated buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written.
func (w *Writer) Len() int { return len(w.buf) }

// Byte appends one byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Uint16 appends a big-endian uint16.
func (w *Writer) Uint16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// Uint32 appends a big-endian uint32.
func (w *Writer) Uint32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// Varint appends a QUIC varint.
func (w *Writer) Varint(v uint64) { w.buf = AppendVarint(w.buf, v) }

// Write appends raw bytes.
func (w *Writer) Write(b []byte) { w.buf = append(w.buf, b...) }

// Checksum computes the 16-bit Internet checksum (RFC 1071) over data,
// as used in the TCP header.
func Checksum(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}
