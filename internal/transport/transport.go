// Package transport hosts the QUIC simulator on a real UDP socket and
// provides the matching client transport, so Prognosis can learn over an
// actual network path (loopback or otherwise) instead of in-process
// function calls.
//
// There is one datagram path. The server loop and the client exchange both
// move datagrams through a BatchConn — recvmmsg/sendmmsg where available —
// with preallocated message rings, and the client ends each exchange on
// RTT-adaptive response deadlines.
package transport

import (
	"net"
	"sync"
	"time"

	"repro/internal/quicsim"
)

// maxDatagram is the receive buffer size, comfortably above any packet the
// simulators emit.
const maxDatagram = 4096

// quiet is the ceiling — and the cold-start value — of the client's
// adaptive response waits (the simulators answer synchronously, so
// loopback responses arrive promptly or not at all).
const quiet = 30 * time.Millisecond

// batchSize is the message-ring depth for batched reads and writes.
const batchSize = 32

// ring allocates an n-slot message ring with maxDatagram buffers.
func ring(n int) []Message {
	ms := make([]Message, n)
	for i := range ms {
		ms[i].Buf = make([]byte, maxDatagram)
	}
	return ms
}

// srttTracker keeps a smoothed estimate of the time from sending a request
// datagram to the first response datagram, and derives the two waits the
// client path needs: how long to believe a response is still coming, and
// how long a silence means the burst is over. Both are clamped so a cold
// or noisy estimate degrades to the fixed 30ms quiet window, never below
// floors that absorb scheduler jitter.
type srttTracker struct {
	srtt time.Duration
}

// observe folds a new time-to-first-response sample in (EWMA, gain 1/4).
func (s *srttTracker) observe(d time.Duration) {
	if s.srtt == 0 {
		s.srtt = d
		return
	}
	s.srtt += (d - s.srtt) / 4
}

// firstWait is the deadline for the first response datagram of an exchange.
func (s *srttTracker) firstWait() time.Duration {
	return clampWait(16*s.srtt, 5*time.Millisecond)
}

// quietWait is the silence that ends an exchange once data has arrived.
func (s *srttTracker) quietWait() time.Duration {
	return clampWait(8*s.srtt, time.Millisecond)
}

func clampWait(d, floor time.Duration) time.Duration {
	if d <= 0 || d > quiet {
		return quiet
	}
	if d < floor {
		return floor
	}
	return d
}

// QUICServer hosts a quicsim server on a UDP socket.
type QUICServer struct {
	conn *net.UDPConn
	srv  *quicsim.Server
	wg   sync.WaitGroup
}

// ListenQUIC binds addr (e.g. "127.0.0.1:0") and serves the QUIC simulator
// on it. Close stops the server.
func ListenQUIC(addr string, srv *quicsim.Server) (*QUICServer, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	s := &QUICServer{conn: conn, srv: srv}
	s.wg.Add(1)
	go s.loop()
	return s, nil
}

// Addr returns the bound address.
func (s *QUICServer) Addr() string { return s.conn.LocalAddr().String() }

// Close stops serving.
func (s *QUICServer) Close() error {
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

func (s *QUICServer) loop() {
	defer s.wg.Done()
	bconn := NewBatchConn(s.conn)
	rms := ring(batchSize)
	wms := make([]Message, 0, batchSize)
	for {
		n, err := bconn.ReadBatch(rms)
		if err != nil {
			return
		}
		wms = wms[:0]
		for i := 0; i < n; i++ {
			// HandleDatagram copies anything it retains, so the ring
			// buffer goes in uncopied; its response buffers are fresh
			// and stay valid through the write batch.
			for _, out := range s.srv.HandleDatagram(rms[i].Addr.String(), rms[i].Buf[:rms[i].N]) {
				wms = append(wms, Message{Buf: out, N: len(out), Addr: rms[i].Addr})
			}
		}
		if len(wms) > 0 {
			if _, err := bconn.WriteBatch(wms); err != nil {
				return
			}
		}
	}
}

// QUICClientTransport is a reference.Transport over UDP. It honours the
// client's source-address changes (the Issue 3 bug) by rebinding its local
// socket whenever the src string changes.
type QUICClientTransport struct {
	server  string
	mu      sync.Mutex
	conn    *net.UDPConn
	bconn   BatchConn
	lastSrc string
	rtt     srttTracker
	rms     []Message
}

// NewQUICClientTransport returns a transport that dials the given server
// address, from a fresh local socket whenever the claimed source changes.
func NewQUICClientTransport(server string) *QUICClientTransport {
	return &QUICClientTransport{server: server}
}

// rebind ensures a socket bound for src, dialling a fresh ephemeral port
// when the claimed source changes. Callers hold t.mu.
func (t *QUICClientTransport) rebind(src string) bool {
	if t.conn != nil && src == t.lastSrc {
		return true
	}
	if t.conn != nil {
		t.conn.Close()
	}
	t.conn, t.bconn = nil, nil
	ra, err := net.ResolveUDPAddr("udp", t.server)
	if err != nil {
		return false
	}
	conn, err := net.DialUDP("udp", nil, ra) // fresh ephemeral port
	if err != nil {
		return false
	}
	t.conn, t.bconn = conn, NewBatchConn(conn)
	if t.rms == nil {
		// Allocated on first use, not in the constructor, so building a
		// transport (part of every experiment set-up) stays cheap.
		t.rms = ring(batchSize)
	}
	t.lastSrc = src
	return true
}

// Send implements reference.Transport: it drops stale datagrams from a
// prior exchange, sends datagram and collects the response burst.
func (t *QUICClientTransport) Send(src string, datagram []byte) [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.rebind(src) {
		return nil
	}
	t.bconn.TryReadBatch(t.rms) // drop stale datagrams from a prior exchange
	start := time.Now()
	if _, err := t.conn.Write(datagram); err != nil {
		return nil
	}
	var out [][]byte
	wait := t.rtt.firstWait()
	for {
		t.conn.SetReadDeadline(time.Now().Add(wait))
		n, err := t.bconn.ReadBatch(t.rms)
		if err != nil {
			break
		}
		if out == nil {
			t.rtt.observe(time.Since(start))
		}
		for i := 0; i < n; i++ {
			out = append(out, append([]byte(nil), t.rms[i].Buf[:t.rms[i].N]...))
		}
		wait = t.rtt.quietWait()
	}
	return out
}

// Close releases the client socket.
func (t *QUICClientTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conn != nil {
		return t.conn.Close()
	}
	return nil
}

// Loopback returns a loopback listen address with an ephemeral port.
func Loopback() string { return "127.0.0.1:0" }
