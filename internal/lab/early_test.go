package lab

import (
	"bytes"
	"net"
	"slices"
	"sync"
	"testing"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/quicsim"
	"repro/internal/reference"
	"repro/internal/transport"
)

// earlyPeer serves a quiche simulator on a UDP socket the test owns. It
// answers each request with the simulator's burst, one packet per
// datagram, or, when coalesce is set, with the whole burst in one
// datagram. When holdLast is set it keeps the last datagram of the next
// burst of several back until release.
type earlyPeer struct {
	conn *net.UDPConn
	srv  *quicsim.Server
	done chan struct{}
	held chan heldDatagram

	mu                 sync.Mutex
	coalesce, holdLast bool
}

type heldDatagram struct {
	d    []byte
	addr *net.UDPAddr
}

func (p *earlyPeer) serve() {
	defer close(p.done)
	buf := make([]byte, 4096)
	for {
		n, addr, err := p.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		out := p.srv.HandleDatagram(addr.String(), buf[:n])
		p.mu.Lock()
		if p.holdLast && len(out) > 1 {
			p.held <- heldDatagram{out[len(out)-1], addr}
			out, p.holdLast = out[:len(out)-1], false
		}
		if p.coalesce && len(out) > 1 {
			out = [][]byte{bytes.Join(out, nil)}
		}
		p.mu.Unlock()
		for _, d := range out {
			if _, err := p.conn.WriteToUDP(d, addr); err != nil {
				return
			}
		}
	}
}

// release sends the datagram held back, if any.
func (p *earlyPeer) release(t *testing.T) {
	select {
	case h := <-p.held:
		if _, err := p.conn.WriteToUDP(h.d, h.addr); err != nil {
			t.Error(err)
		}
	default:
	}
}

// newEarlySetup wires a QUIC setup over a UDP socket to an earlyPeer.
// Each exchange is followed by the peer's release, so a datagram it held
// back arrives after the exchange ended and before anything else reads
// the socket.
func newEarlySetup(t *testing.T) (*QUICSetup, *earlyPeer) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	srv := quicsim.NewServer(quicsim.Config{Profile: quicsim.ProfileQuiche, Seed: 7})
	p := &earlyPeer{conn: conn, srv: srv, done: make(chan struct{}), held: make(chan heldDatagram, 1)}
	go p.serve()
	sock := transport.NewQUICClientTransport(conn.LocalAddr().String())
	t.Cleanup(func() {
		sock.Close()
		conn.Close()
		<-p.done
	})
	tr := reference.TransportFunc(func(src string, d []byte) [][]byte {
		out := sock.Send(src, d)
		p.release(t)
		return out
	})
	cli := reference.NewQUICClient(reference.QUICClientConfig{Seed: 11}, tr)
	return &QUICSetup{Server: srv, Client: cli, Socket: sock}, p
}

// earlyWord is a handshake and one request; quiche answers each step
// with a burst (3, 4 and 1 datagrams).
var earlyWord = []string{quicsim.SymInitialCrypto, quicsim.SymHandshakeC, quicsim.SymShortStream}

// runExpecting runs word as one execution that expects want and returns
// its outputs, how many of its exchanges ended early and its Finish error.
func runExpecting(t *testing.T, s *QUICSetup, word, want []string) ([]string, int, error) {
	t.Helper()
	s.Expect(want)
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	before := s.Socket.Tally().Early
	var out []string
	for _, in := range word {
		o, err := s.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o)
	}
	early := s.Socket.Tally().Early - before
	return out, early, s.Finish()
}

// TestEarlyEndAtExpectedAnswer: each step whose burst abstracts to its
// expected output ends there, without a quiet wait, and the execution
// hears exactly what one without an expectation hears.
func TestEarlyEndAtExpectedAnswer(t *testing.T) {
	s, _ := newEarlySetup(t)
	truth, _ := quicsim.GroundTruth(quicsim.ProfileQuiche).Run(earlyWord)
	out, early, err := runExpecting(t, s, earlyWord, nil)
	if err != nil || !slices.Equal(out, truth) || early != 0 {
		t.Fatalf("without an expectation: %v, %v, %d early; want %v", out, err, early, truth)
	}
	out, early, err = runExpecting(t, s, earlyWord, truth)
	if err != nil || !slices.Equal(out, truth) || early != len(earlyWord) {
		t.Fatalf("expecting the truth: %v, %v, %d early; want %v, all %d early", out, err, early, truth, len(earlyWord))
	}
	if !slices.Equal(s.Short(), []bool{true, true, true}) {
		t.Fatalf("early-ended steps short = %v, want all short", s.Short())
	}
}

// TestEarlyEndExtendedAnswerWaits: an answer that goes past the expected
// output, heard in one look, is not ended early; the step waits on and
// hears the whole answer. An expected silence is no stop test either.
func TestEarlyEndExtendedAnswerWaits(t *testing.T) {
	s, p := newEarlySetup(t)
	truth, _ := quicsim.GroundTruth(quicsim.ProfileQuiche).Run(earlyWord[:1])
	p.mu.Lock()
	p.coalesce = true
	p.mu.Unlock()
	out, early, err := runExpecting(t, s, earlyWord[:1], []string{"{INITIAL(?,?)[ACK,CRYPTO]}"})
	if err != nil || !slices.Equal(out, truth) || early != 0 {
		t.Fatalf("expecting a truncation: %v, %v, %d early; want %v, none early", out, err, early, truth)
	}
	out, early, err = runExpecting(t, s, earlyWord[:1], []string{"{}"})
	if err != nil || !slices.Equal(out, truth) || early != 0 {
		t.Fatalf("expecting silence: %v, %v, %d early; want %v, none early", out, err, early, truth)
	}
}

// TestExpectedSilenceWaitsFirstWait: a step expected to be silent, on a
// cold socket, ends on the full first wait, the quiet ceiling: it is
// neither ended early nor cut short.
func TestExpectedSilenceWaitsFirstWait(t *testing.T) {
	s, _ := newEarlySetup(t)
	// A short-header request before the handshake: the target cannot
	// open it and stays silent.
	word := []string{quicsim.SymShortStream}
	before := s.Socket.Tally()
	out, _, err := runExpecting(t, s, word, []string{"{}"})
	after := s.Socket.Tally()
	if err != nil || !slices.Equal(out, []string{"{}"}) || after != before {
		t.Fatalf("expected silence: %v, %v, tally %+v -> %+v; want silence on the first wait", out, err, before, after)
	}
}

// TestEarlyEndTrailingDatagramRecast holds the guard's soundness through
// an early end on a wrong expectation. The hypothesis predicts the first
// two of the three datagrams quiche answers an Initial with, and the peer
// holds the third back until the exchange has ended on the prediction:
// the third is late, the execution is voided and cast again, and the
// query's later executions, expecting nothing, hear the whole answer.
func TestEarlyEndTrailingDatagramRecast(t *testing.T) {
	s, p := newEarlySetup(t)
	word := earlyWord[:1]
	truth, _ := quicsim.GroundTruth(quicsim.ProfileQuiche).Run(word)
	hyp := automata.NewMealy(quicsim.InputAlphabet())
	for _, in := range hyp.Inputs() {
		hyp.SetTransition(hyp.Initial(), in, hyp.Initial(), "{}")
	}
	hyp.SetTransition(hyp.Initial(), word[0], hyp.Initial(), "{INITIAL(?,?)[ACK,CRYPTO],HANDSHAKE(?,?)[CRYPTO]}")
	p.mu.Lock()
	p.holdLast = true
	p.mu.Unlock()

	var st core.GuardStats
	before := s.Socket.Tally().Early
	o := core.NewGuardian(core.DefaultGuard(), &st, nil).WrapTimed(core.Oracle(s), s)
	out, err := o.Query(learn.WithPrediction(bg, hyp), word)
	if err != nil || !slices.Equal(out, truth) {
		t.Fatalf("guarded query: %v, %v; want %v", out, err, truth)
	}
	if early := s.Socket.Tally().Early - before; st.Recasts != 1 || st.Votes != 2 || early != 1 {
		t.Fatalf("%d recasts, %d votes, %d early ends; want 1, 2, 1", st.Recasts, st.Votes, early)
	}
}
