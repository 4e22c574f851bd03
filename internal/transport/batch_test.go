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

// TestSrttTrackerWaits pins the adaptive-wait clamps: cold start falls back
// to the fixed quiet window, fast loopback samples hit the floors, and the
// ceiling never exceeds quiet.
func TestSrttTrackerWaits(t *testing.T) {
	var s srttTracker
	if s.firstWait() != quiet || s.quietWait() != quiet {
		t.Fatalf("cold tracker waits = %v/%v, want %v", s.firstWait(), s.quietWait(), quiet)
	}
	s.observe(100 * time.Microsecond)
	if got := s.firstWait(); got != 5*time.Millisecond {
		t.Fatalf("firstWait after 100µs sample = %v, want 5ms floor", got)
	}
	if got := s.quietWait(); got != time.Millisecond {
		t.Fatalf("quietWait after 100µs sample = %v, want 1ms floor", got)
	}
	for i := 0; i < 64; i++ {
		s.observe(time.Second) // pathological samples must not exceed the ceiling
	}
	if s.firstWait() != quiet || s.quietWait() != quiet {
		t.Fatalf("waits after huge samples = %v/%v, want %v ceiling", s.firstWait(), s.quietWait(), quiet)
	}
	s = srttTracker{}
	s.observe(1 * time.Millisecond)
	if got := s.firstWait(); got != 16*time.Millisecond {
		t.Fatalf("firstWait after 1ms sample = %v, want 16ms", got)
	}
	if got := s.quietWait(); got != 8*time.Millisecond {
		t.Fatalf("quietWait after 1ms sample = %v, want 8ms", got)
	}
}
