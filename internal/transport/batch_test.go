package transport

import (
	"fmt"
	"net"
	"testing"
	"time"
)

func udpPair(t *testing.T) (srv *net.UDPConn, cli *net.UDPConn) {
	t.Helper()
	srvConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	cliConn, err := net.DialUDP("udp", nil, srvConn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		srvConn.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srvConn.Close(); cliConn.Close() })
	return srvConn, cliConn
}

// TestBatchConnRoundTrip pushes a burst client→server and echoes it back,
// exercising WriteBatch on both connected and unconnected sockets and the
// address plumbing of ReadBatch.
func TestBatchConnRoundTrip(t *testing.T) {
	srvConn, cliConn := udpPair(t)
	srv, cli := NewBatchConn(srvConn), NewBatchConn(cliConn)

	const burst = 10
	wms := make([]Message, burst)
	for i := range wms {
		wms[i].Buf = []byte(fmt.Sprintf("dgram-%02d", i))
		wms[i].N = len(wms[i].Buf)
	}
	if n, err := cli.WriteBatch(wms); err != nil || n != burst {
		t.Fatalf("client WriteBatch = %d, %v", n, err)
	}

	rms := ring(burst)
	got := 0
	srvConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for got < burst {
		n, err := srv.ReadBatch(rms[got:])
		if err != nil {
			t.Fatalf("server ReadBatch after %d: %v", got, err)
		}
		for i := got; i < got+n; i++ {
			if rms[i].Addr == nil {
				t.Fatalf("message %d has no source address", i)
			}
			want := fmt.Sprintf("dgram-%02d", i)
			if string(rms[i].Buf[:rms[i].N]) != want {
				t.Fatalf("message %d = %q, want %q", i, rms[i].Buf[:rms[i].N], want)
			}
		}
		got += n
	}

	// Echo back through the unconnected socket using the captured addrs.
	for i := 0; i < burst; i++ {
		rms[i].Buf = rms[i].Buf[:rms[i].N]
	}
	if n, err := srv.WriteBatch(rms[:burst]); err != nil || n != burst {
		t.Fatalf("server WriteBatch = %d, %v", n, err)
	}
	back := ring(burst)
	got = 0
	cliConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for got < burst {
		n, err := cli.ReadBatch(back[got:])
		if err != nil {
			t.Fatalf("client ReadBatch after %d: %v", got, err)
		}
		got += n
	}
	for i := 0; i < burst; i++ {
		want := fmt.Sprintf("dgram-%02d", i)
		if string(back[i].Buf[:back[i].N]) != want {
			t.Fatalf("echo %d = %q, want %q", i, back[i].Buf[:back[i].N], want)
		}
	}
}

// TestBatchConnTryReadEmpty checks the drain path reports an empty queue
// without blocking for long.
func TestBatchConnTryReadEmpty(t *testing.T) {
	srvConn, _ := udpPair(t)
	srv := NewBatchConn(srvConn)
	start := time.Now()
	n, err := srv.TryReadBatch(ring(4))
	if err != nil || n != 0 {
		t.Fatalf("TryReadBatch on empty socket = %d, %v", n, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("TryReadBatch blocked for %v", d)
	}
}

// TestBatchConnDeadline checks a blocking ReadBatch honours the socket
// read deadline.
func TestBatchConnDeadline(t *testing.T) {
	srvConn, _ := udpPair(t)
	srv := NewBatchConn(srvConn)
	srvConn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	_, err := srv.ReadBatch(ring(1))
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("ReadBatch past deadline = %v, want timeout", err)
	}
}

// TestSrttTrackerWaits pins the RFC 6298 waits: the estimator's arithmetic
// on a fixed sample sequence for both waits, backoff doubling up to the
// quiet ceiling, and the decay back after clean exchanges.
func TestSrttTrackerWaits(t *testing.T) {
	var s srttTracker
	if s.firstWait() != quiet || s.quietWait() != quiet {
		t.Fatalf("cold tracker waits = %v/%v, want %v", s.firstWait(), s.quietWait(), quiet)
	}
	// SRTT = R, RTTVAR = R/2 on the first sample; then RTTVAR = (3·RTTVAR +
	// |SRTT − R|)/4 and SRTT = (7·SRTT + R)/8. The wait is SRTT + max(G,
	// 4·RTTVAR), so G floors it while the deviation is small.
	for _, step := range []struct {
		sample, srtt, rttvar, wait time.Duration
	}{
		{100 * time.Microsecond, 100_000, 50_000, 1_100_000},
		{200 * time.Microsecond, 112_500, 62_500, 1_112_500},
		{2 * time.Millisecond, 348_437, 518_750, 2_423_437},
	} {
		s.first.observe(step.sample)
		if s.first.srtt != step.srtt || s.first.rttvar != step.rttvar || s.firstWait() != step.wait {
			t.Fatalf("after %v: srtt %d rttvar %d wait %d, want %d %d %d", step.sample,
				s.first.srtt, s.first.rttvar, s.firstWait(), step.srtt, step.rttvar, step.wait)
		}
	}
	base := s.firstWait()

	// The quiet wait is the same estimator over bursts' spreads: G while
	// bursts arrive whole, more once one spreads out, and back to G as
	// whole bursts follow.
	s.spread.observe(0)
	if got := s.quietWait(); got != granularity {
		t.Fatalf("quietWait after a whole burst = %v, want %v", got, granularity)
	}
	s.spread.observe(2 * time.Millisecond) // srtt 250µs, rttvar 500µs
	if got, want := s.quietWait(), 2_250*time.Microsecond; got != want {
		t.Fatalf("quietWait after a 2ms spread = %v, want %v", got, want)
	}
	for i := 0; i < 200 && s.quietWait() != granularity; i++ {
		s.spread.observe(0)
	}
	if got := s.quietWait(); got != granularity {
		t.Fatalf("quietWait after 200 whole bursts = %v, want %v", got, granularity)
	}

	// Each late datagram doubles both waits, up to the quiet ceiling.
	for i, want := range []time.Duration{2 * base, 4 * base, 8 * base, quiet, quiet} {
		s.late(1)
		if got := s.firstWait(); got != want {
			t.Fatalf("firstWait after %d late datagrams = %v, want %v", i+1, got, want)
		}
	}
	if got := s.quietWait(); got != quiet {
		t.Fatalf("quietWait backed off = %v, want %v", got, quiet)
	}
	s.late(100)
	if s.backoff != maxBackoff {
		t.Fatalf("backoff = %d, want it capped at %d", s.backoff, maxBackoff)
	}
	// Clean exchanges undo one doubling each.
	for i := 0; i < maxBackoff; i++ {
		s.clean()
	}
	if s.firstWait() != base || s.quietWait() != granularity {
		t.Fatalf("waits after %d clean exchanges = %v/%v, want %v/%v", maxBackoff, s.firstWait(), s.quietWait(), base, granularity)
	}
	s.clean()
	if s.backoff != 0 {
		t.Fatalf("backoff went below zero: %d", s.backoff)
	}

	// Pathological samples never exceed the ceiling.
	for i := 0; i < 64; i++ {
		s.first.observe(time.Second)
		s.spread.observe(time.Second)
	}
	if s.firstWait() != quiet || s.quietWait() != quiet {
		t.Fatalf("waits after huge samples = %v/%v, want %v ceiling", s.firstWait(), s.quietWait(), quiet)
	}
}
