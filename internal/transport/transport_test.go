package transport

import (
	"net"
	"testing"
	"time"

	"repro/internal/quicsim"
	"repro/internal/reference"
)

// TestQUICOverUDPLoopback drives the QUIC handshake over a real UDP socket
// pair and checks the abstract outputs match the in-memory path.
func TestQUICOverUDPLoopback(t *testing.T) {
	srv := quicsim.NewServer(quicsim.Config{Profile: quicsim.ProfileGoogle, Seed: 7})
	hosted, err := ListenQUIC(Loopback(), srv)
	if err != nil {
		t.Fatal(err)
	}
	defer hosted.Close()

	tr := NewQUICClientTransport(hosted.Addr())
	defer tr.Close()
	cli := reference.NewQUICClient(reference.QUICClientConfig{Seed: 11}, tr)

	srv.Reset()
	if err := cli.Reset(); err != nil {
		t.Fatal(err)
	}
	out1, err := cli.Step(quicsim.SymInitialCrypto)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := cli.Step(quicsim.SymHandshakeC)
	if err != nil {
		t.Fatal(err)
	}
	truth := quicsim.GroundTruth(quicsim.ProfileGoogle)
	want, _ := truth.Run([]string{quicsim.SymInitialCrypto, quicsim.SymHandshakeC})
	if out1 != want[0] || out2 != want[1] {
		t.Fatalf("UDP path diverges:\n got %q / %q\nwant %q / %q", out1, out2, want[0], want[1])
	}
}

// TestLearnQuicheOverUDP runs a complete learning session across UDP.
func TestLearnQuicheOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP learning session is slow in -short mode")
	}
	srv := quicsim.NewServer(quicsim.Config{Profile: quicsim.ProfileQuiche, Seed: 7})
	hosted, err := ListenQUIC(Loopback(), srv)
	if err != nil {
		t.Fatal(err)
	}
	defer hosted.Close()
	tr := NewQUICClientTransport(hosted.Addr())
	defer tr.Close()

	// Wire the reference client straight to the hosted server over the UDP
	// transport (the same seeds lab's UDP builder uses).
	cli := reference.NewQUICClient(reference.QUICClientConfig{Seed: 11}, tr)
	sul := &udpSUL{cli: cli, hosted: srv}
	out, err := runWord(sul, []string{quicsim.SymInitialCrypto, quicsim.SymHandshakeC, quicsim.SymShortStream})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := quicsim.GroundTruth(quicsim.ProfileQuiche).Run(
		[]string{quicsim.SymInitialCrypto, quicsim.SymHandshakeC, quicsim.SymShortStream})
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("step %d: got %q want %q", i, out[i], want[i])
		}
	}
}

type udpSUL struct {
	cli    *reference.QUICClient
	hosted *quicsim.Server
}

func (u *udpSUL) Reset() error {
	u.hosted.Reset()
	return u.cli.Reset()
}

func (u *udpSUL) Step(in string) (string, error) { return u.cli.Step(in) }

func runWord(s interface {
	Reset() error
	Step(string) (string, error)
}, word []string) ([]string, error) {
	if err := s.Reset(); err != nil {
		return nil, err
	}
	var out []string
	for _, in := range word {
		o, err := s.Step(in)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// TestQUICClientTransportRebindsOnSourceChange covers the Issue 3
// mechanism: a changed source string forces a fresh local socket.
func TestQUICClientTransportRebindsOnSourceChange(t *testing.T) {
	srv := quicsim.NewServer(quicsim.Config{Profile: quicsim.ProfileGoogle, Seed: 7, RetryRequired: true})
	hosted, err := ListenQUIC(Loopback(), srv)
	if err != nil {
		t.Fatal(err)
	}
	defer hosted.Close()
	tr := NewQUICClientTransport(hosted.Addr())
	defer tr.Close()

	// The buggy client changes its claimed source after a Retry; the real
	// token is bound to the actual UDP source address, so the server keeps
	// dropping the retried initials and the handshake never completes.
	cli := reference.NewQUICClient(reference.QUICClientConfig{Seed: 11, RetryFromNewPort: true}, tr)
	srv.Reset()
	if err := cli.Reset(); err != nil {
		t.Fatal(err)
	}
	out1, _ := cli.Step(quicsim.SymInitialCrypto)
	if out1 != "{RETRY(?,?)[]}" {
		t.Fatalf("first initial got %q", out1)
	}
	out2, _ := cli.Step(quicsim.SymInitialCrypto)
	if out2 != "{}" {
		t.Fatalf("retried initial from new port should be dropped, got %q", out2)
	}
}

// TestLateDatagramsVoidExecution drives the client transport against a
// peer that answers only after the socket's wait has closed. A datagram
// found while its execution runs voids it; one found by the first drain
// after its execution returned is counted apart and voids the current
// one. Each backs the waits off, and a clean execution undoes a doubling.
func TestLateDatagramsVoidExecution(t *testing.T) {
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	tr := NewQUICClientTransport(peer.LocalAddr().String())
	defer tr.Close()
	buf := make([]byte, 64)
	// answerLate reads the request the socket sent and answers it now,
	// after the socket stopped waiting.
	answerLate := func() {
		t.Helper()
		peer.SetReadDeadline(time.Now().Add(time.Second))
		_, addr, err := peer.ReadFromUDP(buf)
		if err == nil {
			_, err = peer.WriteToUDP([]byte("late"), addr)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	backoff := func() int {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return tr.rtt.backoff
	}
	check := func(step string, wantLate, wantVoided, wantReturned, wantBackoff int) {
		t.Helper()
		if n := tr.EndExecution(); n != wantLate {
			t.Fatalf("%s: EndExecution = %d late datagrams, want %d", step, n, wantLate)
		}
		if v, r := metricLateVoided.Value(), metricLateReturned.Value(); v != int64(wantVoided) || r != int64(wantReturned) {
			t.Fatalf("%s: late datagrams counted %d voided, %d returned; want %d, %d", step, v, r, wantVoided, wantReturned)
		}
		if b := backoff(); b != wantBackoff {
			t.Fatalf("%s: backoff = %d, want %d", step, b, wantBackoff)
		}
	}
	v0, r0 := int(metricLateVoided.Value()), int(metricLateReturned.Value())
	// A warm estimator: the first wait is about G, short of the ceiling,
	// so the silences below may be waits that closed too early.
	tr.rtt.first.observe(100 * time.Microsecond)

	// The answer arrives while its execution runs: the end drain finds it.
	tr.BeginExecution()
	if got := tr.Send("src", []byte("q1")); got != nil {
		t.Fatalf("silent peer answered %q", got)
	}
	answerLate()
	check("late within the execution", 1, v0+1, r0, 1)
	if got := tr.Tally(); got != (Tally{Cut: 1}) {
		t.Fatalf("tally = %+v, want one exchange cut short and no datagram", got)
	}

	// The answer arrives after its execution returned clean: the next
	// execution's first drain finds it, counts it apart and is voided.
	tr.BeginExecution()
	tr.Send("src", []byte("q2"))
	check("clean execution", 0, v0+1, r0, 1)
	answerLate()
	tr.BeginExecution() // q2's execution was clean: one doubling undone
	if b := backoff(); b != 0 {
		t.Fatalf("backoff after a clean execution = %d, want 0", b)
	}
	tr.Send("src", []byte("q3"))
	check("late after its execution returned", 1, v0+1, r0+1, 1)
}
