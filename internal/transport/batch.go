package transport

import (
	"net"
	"sync"
	"time"
)

// Message is one datagram slot in a batched send or receive. Buf is the
// backing buffer (the caller allocates it once and reuses it across calls),
// N is the number of valid bytes, and Addr is the peer address — filled in
// on receive, used as the destination on send (ignored on connected
// sockets). Batch implementations reuse the Addr value across calls, so
// callers that retain an address past the next ReadBatch must copy it.
type Message struct {
	Buf  []byte
	N    int
	Addr *net.UDPAddr
}

// BatchConn sends and receives UDP datagrams in batches. On linux/amd64 it
// is backed by recvmmsg/sendmmsg — one syscall moves a whole burst — and
// everywhere else by a plain-syscall fallback with the same contract, so
// callers never branch on platform.
type BatchConn interface {
	// ReadBatch fills up to len(ms) messages, blocking (honouring the
	// socket's read deadline) until at least one datagram arrives. It
	// returns the number of messages filled.
	ReadBatch(ms []Message) (int, error)
	// TryReadBatch is like ReadBatch but does not wait for data: it
	// returns 0, nil when nothing is queued. Used to drain stale
	// datagrams before a fresh exchange. It may disturb the socket's
	// read deadline; callers should set their deadline afterwards.
	TryReadBatch(ms []Message) (int, error)
	// WriteBatch sends ms[i].Buf[:ms[i].N] for every message, returning
	// the number sent. Connected sockets ignore Addr.
	WriteBatch(ms []Message) (int, error)
	// Batched reports whether multi-message syscalls are in use (false
	// means the one-datagram-per-syscall fallback).
	Batched() bool
}

// NewBatchConn wraps conn in the best BatchConn available on this
// platform. Connected sockets (DialUDP) send without addresses; unconnected
// ones (ListenUDP) use Message.Addr.
func NewBatchConn(conn *net.UDPConn) BatchConn { return newMeasuredConn(conn) }

// batchImpl is a platform BatchConn with the two reads the QUIC server
// loop needs to discard a queue at reset.
type batchImpl interface {
	BatchConn
	// readLocked is ReadBatch that holds mu while it looks at the socket
	// and returns with mu still held when it read any datagram (err is
	// nil). So a goroutine holding mu finds every datagram either queued
	// or in the hands of a reader that holds mu itself.
	readLocked(ms []Message, mu *sync.Mutex) (int, error)
	// discard drops every queued datagram without waiting, even while
	// another goroutine waits in a read.
	discard()
}

// tryPoll is how long the fallback's TryReadBatch waits for queued data.
// The net package offers no non-blocking read, so "try" is approximated by
// a short deadline; an expired deadline would skip the read entirely.
const tryPoll = 200 * time.Microsecond

// simpleConn is the plain-syscall fallback: one datagram per Read/Write
// call through the portable net API.
type simpleConn struct {
	conn      *net.UDPConn
	connected bool
}

func (c *simpleConn) Batched() bool { return false }

// readLocked takes mu only once its read returns: the portable net API
// offers no look at the socket under a lock.
func (c *simpleConn) readLocked(ms []Message, mu *sync.Mutex) (int, error) {
	n, err := c.ReadBatch(ms)
	if err == nil {
		mu.Lock()
	}
	return n, err
}

// discard drops nothing: a second read would wait behind the one in
// progress.
func (c *simpleConn) discard() {}

func (c *simpleConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	n, addr, err := c.conn.ReadFromUDP(ms[0].Buf)
	if err != nil {
		return 0, err
	}
	ms[0].N, ms[0].Addr = n, addr
	return 1, nil
}

func (c *simpleConn) TryReadBatch(ms []Message) (int, error) {
	count := 0
	for count < len(ms) {
		c.conn.SetReadDeadline(time.Now().Add(tryPoll))
		n, addr, err := c.conn.ReadFromUDP(ms[count].Buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return count, nil
			}
			return count, err
		}
		ms[count].N, ms[count].Addr = n, addr
		count++
	}
	return count, nil
}

func (c *simpleConn) WriteBatch(ms []Message) (int, error) {
	for i := range ms {
		var err error
		if c.connected || ms[i].Addr == nil {
			_, err = c.conn.Write(ms[i].Buf[:ms[i].N])
		} else {
			_, err = c.conn.WriteToUDP(ms[i].Buf[:ms[i].N], ms[i].Addr)
		}
		if err != nil {
			return i, err
		}
	}
	return len(ms), nil
}
