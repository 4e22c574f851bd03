package lab

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/quicsim"
	"repro/internal/reference"
	"repro/internal/transport"
)

// lateTarget is quiche whose replicas answer in memory, except for a
// seeded share of answered exchanges whose answer arrives over UDP only
// after the socket's wait has closed (see lateLink).
const lateTarget = "late-quiche"

// lateShare is the share of answered exchanges a lateLink delays.
const lateShare = 0.05

// lateInjected tallies what the lateLinks delayed; builders read it at
// build time, tests reset it.
var lateInjected = &lateTally{}

type lateTally struct {
	mu         sync.Mutex
	datagrams  int // delayed response datagrams
	executions int // executions with at least one delayed response
	errs       []error
}

func (l *lateTally) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.datagrams, l.executions, l.errs = 0, 0, nil
}

func (l *lateTally) add(datagrams int, firstInExecution bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.datagrams += datagrams
	if firstInExecution {
		l.executions++
	}
	if err != nil {
		l.errs = append(l.errs, err)
	}
}

func init() {
	Register(lateTarget, func(spec BuildSpec) (*System, error) {
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
			link := &lateLink{
				srv: srv, sock: sock, peer: peer, buf: make([]byte, 4096),
				rng: rand.New(rand.NewSource(spec.Seed*31 + int64(i))),
			}
			cli := reference.NewQUICClient(reference.QUICClientConfig{Seed: spec.Seed + 4}, link)
			sys.SULs = append(sys.SULs, &lateSetup{
				QUICSetup: &QUICSetup{Server: srv, Client: cli, Socket: sock}, link: link,
			})
		}
		return sys, nil
	})
}

// lateLink is a replica's transport. It answers each datagram from the
// server in memory, except that a seeded share of answered exchanges goes
// through the replica's UDP socket to a peer that never answers: the
// socket hears silence, and only then does the peer send the server's
// answer, so the socket's next drain finds it late.
type lateLink struct {
	srv  *quicsim.Server
	sock *transport.QUICClientTransport
	peer *net.UDPConn
	buf  []byte
	rng  *rand.Rand
	held bool // this execution already had a response delayed
}

func (l *lateLink) Send(src string, datagram []byte) [][]byte {
	out := l.srv.HandleDatagram(src, datagram)
	if len(out) == 0 || l.rng.Float64() >= lateShare {
		return out
	}
	var err error
	if got := l.sock.Send(src, datagram); got != nil {
		err = fmt.Errorf("a peer that never answers answered %d datagrams", len(got))
	}
	_, addr, rerr := l.peer.ReadFromUDP(l.buf)
	for _, d := range out {
		if rerr == nil {
			_, rerr = l.peer.WriteToUDP(d, addr)
		}
	}
	if err == nil {
		err = rerr
	}
	lateInjected.add(len(out), !l.held, err)
	l.held = true
	return nil
}

// lateSetup marks each execution's start for its lateLink.
type lateSetup struct {
	*QUICSetup
	link *lateLink
}

func (s *lateSetup) Reset() error {
	s.link.held = false
	return s.QUICSetup.Reset()
}

// TestLateResponsesVoidedAndRecast delays a seeded set of responses past
// the socket's wait. Every execution a delayed response reached is voided
// and cast again, the late counter equals the datagrams delayed, and the
// learned model and live queries, net of the voided executions, equal the
// in-memory run's.
func TestLateResponsesVoidedAndRecast(t *testing.T) {
	lateCounter := func(label string) int64 {
		return metrics.Default().CounterWith("prognosis_transport_late_datagrams_total", "",
			[]string{"execution"}, []string{label}).Value()
	}
	opts := []Option{WithSeed(13), WithWorkers(2), WithPerfectEquivalence()}
	mem := learnT(t, TargetQuiche, opts...)

	lateInjected.reset()
	voided, returned := lateCounter("voided"), lateCounter("returned")
	res := learnT(t, lateTarget, opts...)
	voided, returned = lateCounter("voided")-voided, lateCounter("returned")-returned
	inj := lateInjected
	if len(inj.errs) > 0 {
		t.Fatalf("delaying responses: %v", inj.errs)
	}
	if inj.executions == 0 {
		t.Fatal("no response was delayed")
	}
	if res.Nondet != nil {
		t.Fatalf("learn halted on nondeterminism: %v", res.Nondet)
	}
	recasts := res.Metrics().Guard.Recasts
	if recasts != int64(inj.executions) {
		t.Errorf("%d executions re-cast, %d had a delayed response", recasts, inj.executions)
	}
	if voided != int64(inj.datagrams) || returned != 0 {
		t.Errorf("late datagrams counted: %d voided, %d returned; delayed %d", voided, returned, inj.datagrams)
	}
	if eq, ce := mem.Machine.Equivalent(res.Machine); !eq {
		t.Fatalf("model with delayed responses differs from in-memory on %v", ce)
	}
	if res.Stats.Queries-recasts != mem.Stats.Queries {
		t.Errorf("live queries: %d minus %d voided, in-memory %d", res.Stats.Queries, recasts, mem.Stats.Queries)
	}
	t.Logf("%d datagrams delayed in %d executions; %d live queries (%d voided), in-memory %d",
		inj.datagrams, inj.executions, res.Stats.Queries, recasts, mem.Stats.Queries)
}
