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

// granularity is RFC 6298's G for the response waits: the resolution of
// a read deadline. With nothing else runnable, the runtime's poller on
// Linux sleeps in epoll_wait, whose timeout is whole milliseconds, so a
// shorter deadline is not kept.
const granularity = time.Millisecond

// maxBackoff bounds the doublings late datagrams owe: G doubled five
// times is past the quiet ceiling already.
const maxBackoff = 5

// rto is RFC 6298's estimator (§2) over one kind of sample: a smoothed
// mean SRTT and a mean deviation RTTVAR, with gains 1/8 and 1/4.
type rto struct {
	srtt, rttvar time.Duration
	sampled      bool
}

func (r *rto) observe(d time.Duration) {
	if !r.sampled {
		r.srtt, r.rttvar, r.sampled = d, d/2, true
		return
	}
	dev := r.srtt - d
	if dev < 0 {
		dev = -dev
	}
	r.rttvar = (3*r.rttvar + dev) / 4
	r.srtt = (7*r.srtt + d) / 8
}

// timeout is SRTT + max(G, 4·RTTVAR).
func (r *rto) timeout() time.Duration {
	return r.srtt + max(granularity, 4*r.rttvar)
}

// srttTracker sizes the client's two response waits from the link, each
// with an RFC 6298 estimator. The first wait, for the first response
// datagram of an exchange, is the timeout over times to that datagram.
// The quiet wait, which ends an answered burst, is the timeout over
// bursts' spreads from their first datagram to their last. A cold
// estimator waits the full quiet ceiling.
//
// A late datagram shows a wait closed too early. Each one doubles both
// waits, as TCP backs off its timer, and each clean execution (see
// QUICClientTransport.BeginExecution) undoes one doubling. No wait
// exceeds the quiet ceiling.
type srttTracker struct {
	first, spread rto
	backoff       int
}

// firstWait is the deadline for the first response datagram of an exchange.
func (s *srttTracker) firstWait() time.Duration {
	if !s.first.sampled {
		return quiet
	}
	return s.backedOff(s.first.timeout())
}

// quietWait is the silence that ends an exchange once data has arrived.
func (s *srttTracker) quietWait() time.Duration {
	if !s.spread.sampled {
		return quiet
	}
	return s.backedOff(s.spread.timeout())
}

func (s *srttTracker) backedOff(d time.Duration) time.Duration {
	return min(d<<s.backoff, quiet)
}

// late backs both waits off for n late datagrams.
func (s *srttTracker) late(n int) { s.backoff = min(s.backoff+n, maxBackoff) }

// clean undoes one doubling after an execution no late datagram reached.
func (s *srttTracker) clean() { s.backoff = max(s.backoff-1, 0) }

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
//
// It also judges whole executions. BeginExecution and EndExecution bracket
// one; a datagram its drains find answered an exchange whose wait had
// closed, so the execution's outputs are incomplete and EndExecution
// reports it.
type QUICClientTransport struct {
	server  string
	mu      sync.Mutex
	conn    *net.UDPConn
	bconn   BatchConn
	lastSrc string
	rtt     srttTracker
	rms     []Message

	late     int  // late datagrams that void the current execution
	returned bool // the next drain is the first since an execution returned
	clean    bool // the last execution ended with no late datagram
	tally    Tally
}

// Tally counts what a client transport's exchanges have heard so far.
type Tally struct {
	// Datagrams counts the response datagrams the exchanges returned.
	Datagrams int
	// Cut counts the exchanges that ended on a wait short of the quiet
	// ceiling. What each heard is the target's whole answer or an answer
	// the wait cut short; only a comparison with another execution can
	// tell which.
	Cut int
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

// Send implements reference.Transport: it drains late datagrams from a
// prior exchange, sends datagram and collects the response burst.
func (t *QUICClientTransport) Send(src string, datagram []byte) [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.rebind(src) {
		return nil
	}
	t.drain()
	start := time.Now()
	if _, err := t.conn.Write(datagram); err != nil {
		return nil
	}
	var out [][]byte
	var first, last time.Time
	wait := t.rtt.firstWait()
	for ; ; wait = t.rtt.quietWait() {
		n, err := t.read(wait)
		if n == 0 {
			// Before calling the exchange over, give up the CPU once and
			// look again: the datagram may be queued already (an expired
			// deadline fails a read without looking), or its sender may
			// be waiting for this CPU to finish the burst.
			yield()
			n, err = t.read(0)
		}
		if err != nil || n == 0 {
			break
		}
		last = time.Now()
		if out == nil {
			first = last
			t.rtt.first.observe(first.Sub(start))
		}
		for i := 0; i < n; i++ {
			out = append(out, append([]byte(nil), t.rms[i].Buf[:t.rms[i].N]...))
		}
	}
	if out != nil {
		t.rtt.spread.observe(last.Sub(first))
	}
	t.tally.Datagrams += len(out)
	if wait < quiet {
		t.tally.Cut++
	}
	return out
}

// read waits up to wait for queued datagrams; a zero wait only takes what
// is queued already. Callers hold t.mu.
func (t *QUICClientTransport) read(wait time.Duration) (int, error) {
	if wait <= 0 {
		// An expired deadline fails a read before it looks at the queue,
		// so a non-blocking read clears the deadline first.
		t.conn.SetReadDeadline(time.Time{})
		return t.bconn.TryReadBatch(t.rms)
	}
	t.conn.SetReadDeadline(time.Now().Add(wait))
	return t.bconn.ReadBatch(t.rms)
}

// drain reads every queued datagram. Each answered an exchange after its wait had closed: it is counted, backs
// both waits off and voids the current execution. The first drain after
// an execution returned finds what that execution can no longer be voided
// for; its datagrams void the current one instead, because the target may
// have handled their requests after it was reset. Callers hold t.mu.
func (t *QUICClientTransport) drain() {
	n := 0
	for {
		k, err := t.read(0)
		n += k
		if err != nil || k < len(t.rms) {
			break
		}
	}
	if n > 0 {
		t.rtt.late(n)
		t.late += n
		if t.returned {
			metricLateReturned.Add(int64(n))
		} else {
			metricLateVoided.Add(int64(n))
		}
	}
	t.returned = false
}

// Tally returns what the exchanges so far have heard.
func (t *QUICClientTransport) Tally() Tally {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tally
}

// Backoff doubles both waits, as a late datagram does, for an exchange
// shown to have been cut short. The execution that heard it does not
// count as clean.
func (t *QUICClientTransport) Backoff() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rtt.late(1)
	t.clean = false
}

// BeginExecution starts an execution with no late datagrams against it.
// If the last one ended clean, it undoes one doubling of the waits.
func (t *QUICClientTransport) BeginExecution() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.clean {
		t.rtt.clean()
	}
	t.late, t.returned, t.clean = 0, true, false
}

// EndExecution ends an execution with one non-blocking drain and returns
// how many late datagrams reached it since BeginExecution. A non-zero
// count means its outputs are not a complete observation.
func (t *QUICClientTransport) EndExecution() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conn != nil {
		t.drain()
	}
	n := t.late
	t.late, t.returned, t.clean = 0, true, n == 0
	return n
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
