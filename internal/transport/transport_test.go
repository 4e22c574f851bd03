package transport

import (
	"testing"

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
