package lab

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/learn"
	"repro/internal/quicsim"
	"repro/internal/reference"
	"repro/internal/transport"
)

// slowTarget is quiche whose every answer reaches the replica's UDP
// socket only after the socket's wait for it has closed (see slowLink).
const slowTarget = "slow-quiche"

func init() {
	Register(slowTarget, func(spec BuildSpec) (*System, error) {
		sys := &System{Alphabet: quicsim.InputAlphabet(), Truth: quicsim.GroundTruth(quicsim.ProfileQuiche)}
		for i := 0; i < spec.Replicas; i++ {
			peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				sys.Close()
				return nil, err
			}
			sys.AddCloser(peer.Close)
			sock := transport.NewQUICClientTransport(peer.LocalAddr().String())
			sys.AddCloser(sock.Close)
			srv := quicsim.NewServer(quicsim.Config{Profile: quicsim.ProfileQuiche, Seed: spec.Seed})
			link := &slowLink{srv: srv, sock: sock, peer: peer, buf: make([]byte, 4096)}
			cli := reference.NewQUICClient(reference.QUICClientConfig{Seed: spec.Seed + 4}, link)
			sys.SULs = append(sys.SULs, &QUICSetup{Server: srv, Client: cli, Socket: sock})
		}
		return sys, nil
	})
}

// slowLink is a replica's transport to a peer that answers every
// exchange late. It sends each datagram through the replica's UDP socket
// to the peer, which stays silent while the socket waits; no datagram
// ever arrives inside a wait, so the socket keeps its cold waits at the
// 30 ms quiet ceiling, the longest it ever waits. Only once the socket
// has stopped waiting does the peer send the simulator's answer.
type slowLink struct {
	srv  *quicsim.Server
	sock *transport.QUICClientTransport
	peer *net.UDPConn
	buf  []byte
}

func (l *slowLink) Send(src string, datagram []byte) [][]byte {
	if got := l.sock.Send(src, datagram); got != nil {
		panic(fmt.Sprintf("a peer that answers late answered %d datagrams in time", len(got)))
	}
	n, addr, err := l.peer.ReadFromUDP(l.buf)
	if err != nil {
		panic(err)
	}
	for _, d := range l.srv.HandleDatagram(src, l.buf[:n]) {
		if _, err := l.peer.WriteToUDP(d, addr); err != nil {
			panic(err)
		}
	}
	return nil
}

// TestAlwaysLateTargetFailsOnLateResponses learns through a target whose
// every answer arrives later than the longest wait the socket keeps.
// Every execution that asks for an answer is voided and cast again, and
// no wait can grow to catch the answer, so the learn must end in the
// guard's error, which names late responses, never in a model or a
// nondeterminism halt.
func TestAlwaysLateTargetFailsOnLateResponses(t *testing.T) {
	res, err := Run(bg, slowTarget, WithSeed(13))
	if err == nil {
		if res.Nondet != nil {
			t.Fatalf("halted on nondeterminism instead of failing on late responses: %v", res.Nondet)
		}
		t.Fatalf("learned a %d-state model through a target that always answers late", res.Machine.NumStates())
	}
	if !errors.Is(err, learn.ErrLateResponse) || !strings.Contains(err.Error(), "late") {
		t.Fatalf("learn failed with %v, want an error naming late responses", err)
	}
	t.Logf("learn failed: %v", err)
}
