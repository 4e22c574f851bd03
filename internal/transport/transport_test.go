package transport

import (
	"fmt"
	"net"
	"strings"
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

// TestUntilEndsAtExpectedAnswer drives exchanges with a stop test against
// a peer the test answers for. The exchange goes on listening while what
// it heard is short of the expected answer and ends at the batch that
// completes it; an answer heard past the expectation in one look falls
// back to the quiet wait; and a datagram of the answer that arrives after
// an early end is late and voids the execution.
func TestUntilEndsAtExpectedAnswer(t *testing.T) {
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	tr := NewQUICClientTransport(peer.LocalAddr().String())
	defer tr.Close()
	buf := make([]byte, 64)
	var client *net.UDPAddr
	// answer reads the request the socket sent and answers it with one
	// datagram.
	answer := func(d string) {
		peer.SetReadDeadline(time.Now().Add(time.Second))
		n, addr, err := peer.ReadFromUDP(buf)
		if err == nil && string(buf[:n]) != "q" {
			err = fmt.Errorf("request %q", buf[:n])
		}
		if err == nil {
			client = addr
			_, err = peer.WriteToUDP([]byte(d), addr)
		}
		if err != nil {
			t.Error(err)
		}
	}
	send := func(d string) {
		if _, err := peer.WriteToUDP([]byte(d), client); err != nil {
			t.Error(err)
		}
	}
	heard := func(got [][]byte) string {
		var s []string
		for _, d := range got {
			s = append(s, string(d))
		}
		return strings.Join(s, ",")
	}
	expecting := func(want string) func([][]byte) bool {
		return func(h [][]byte) bool { return heard(h) == want }
	}
	exchange := func(name string, until func([][]byte) bool, serve func(), want string, early, cut int) {
		t.Helper()
		before := tr.Tally()
		done := make(chan struct{})
		go func() { defer close(done); serve() }()
		tr.Until(until)
		got := heard(tr.Send("src", []byte("q")))
		<-done
		after := tr.Tally()
		if got != want || after.Early-before.Early != early || after.Cut-before.Cut != cut {
			t.Fatalf("%s: heard %q, %d early, %d cut; want %q, %d, %d",
				name, got, after.Early-before.Early, after.Cut-before.Cut, want, early, cut)
		}
	}
	early0 := metricEarlyEnds.Value()
	tr.BeginExecution()

	// The first batch is short of the expectation: the stop test, asked
	// about it, has the peer send the rest, and the exchange ends there.
	more := make(chan struct{})
	exchange("completed in a second batch", func(h [][]byte) bool {
		if heard(h) == "a" {
			close(more)
		}
		return heard(h) == "a,b"
	}, func() { answer("a"); <-more; send("b") }, "a,b", 1, 0)

	// The expectation is "c", but the peer sends "d" as well before the
	// exchange's look without waiting: it waits on, on a quiet wait short
	// of the ceiling now that the waits are warm.
	sent := make(chan struct{})
	exchange("extended answer", func(h [][]byte) bool {
		<-sent
		return heard(h) == "c"
	}, func() { answer("c"); send("d"); close(sent) }, "c,d", 0, 1)

	// No stop test: the exchange ends on its waits, as before.
	exchange("no expectation", nil, func() { answer("e") }, "e", 0, 1)
	if n := tr.EndExecution(); n != 0 {
		t.Fatalf("%d late datagrams in a clean execution", n)
	}

	// The expectation is a truncation of the answer: the exchange ends
	// early, and the rest of the answer voids the execution.
	tr.BeginExecution()
	exchange("truncated expectation", expecting("f"), func() { answer("f") }, "f", 1, 0)
	send("g")
	if n := tr.EndExecution(); n != 1 {
		t.Fatalf("%d late datagrams after an early end, want 1", n)
	}
	if n := metricEarlyEnds.Value() - early0; n != 2 {
		t.Fatalf("prognosis_transport_early_ends_total grew by %d, want 2", n)
	}
}

// TestServerResetDiscardsQueuedRequests queues a stale Initial on the
// server socket, which the loop cannot take while the test holds the
// host's lock, and resets the host under it. The next execution's
// Initial is answered with the handshake, and no late datagram or packet
// for an earlier connection reaches it.
func TestServerResetDiscardsQueuedRequests(t *testing.T) {
	srv := quicsim.NewServer(quicsim.Config{Profile: quicsim.ProfileQuiche, Seed: 7})
	host, err := ListenQUIC(Loopback(), srv)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	tr := NewQUICClientTransport(host.Addr())
	defer tr.Close()
	cli := reference.NewQUICClient(reference.QUICClientConfig{Seed: 11}, tr)
	want, _ := quicsim.GroundTruth(quicsim.ProfileQuiche).Run([]string{quicsim.SymInitialCrypto})

	host.mu.Lock()
	tr.BeginExecution()
	cli.Reset()
	if out, _ := cli.Step(quicsim.SymInitialCrypto); out != "{}" {
		host.mu.Unlock()
		t.Fatalf("a server that cannot read answered %q", out)
	}
	tr.EndExecution()
	host.resetLocked()
	host.mu.Unlock()

	tr.BeginExecution()
	cli.Reset()
	out, _ := cli.Step(quicsim.SymInitialCrypto)
	if late := tr.EndExecution(); out != want[0] || late != 0 || cli.Foreign() != 0 {
		t.Fatalf("after the reset: heard %q, %d late datagrams, %d packets for an earlier connection; want %q, 0, 0",
			out, late, cli.Foreign(), want[0])
	}
}
