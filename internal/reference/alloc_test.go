package reference_test

import (
	"testing"

	"repro/internal/quicsim"
	"repro/internal/testutil"
)

// raceEnabled is set by race_test.go: the race detector adds allocations
// of its own, so the pins below hold for plain builds only.
var raceEnabled bool

// TestStepAllocs pins one reset plus the first step per target: the
// handshake opener INITIAL[CRYPTO] for every QUIC profile (the client's
// Initial keys, the server's session keys and a whole server flight) and
// a SYN for TCP. Each connection's keys are derived once for both ends,
// nothing is recorded, and the packet path works in the endpoints'
// scratch: what remains is key derivation and one buffer per response
// datagram.
func TestStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, c := range []struct {
		profile quicsim.Profile
		max     float64
	}{
		{quicsim.ProfileGoogle, 37},
		{quicsim.ProfileGoogleFixed, 37},
		{quicsim.ProfileQuiche, 36},
		{quicsim.ProfileMvfst, 36},
		{quicsim.ProfileLossyRetransmit, 37},
	} {
		pair := testutil.NewQUICPair(c.profile, nil)
		avg := testing.AllocsPerRun(200, func() {
			pair.Server.Reset()
			_ = pair.Client.Reset()
			if _, err := pair.Client.Step(quicsim.SymInitialCrypto); err != nil {
				t.Fatal(err)
			}
		})
		if avg > c.max {
			t.Errorf("%v: reset + %s allocates %.0f allocs/op, want <= %.0f", c.profile, quicsim.SymInitialCrypto, avg, c.max)
		}
	}
	cli, srv := newTCPPair(t)
	avg := testing.AllocsPerRun(200, func() {
		srv.Reset()
		_ = cli.Reset()
		if _, err := cli.Step("SYN(?,?,0)"); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 19 {
		t.Errorf("tcp: reset + SYN allocates %.0f allocs/op, want <= 19", avg)
	}
}

// TestSteadyStepAllocs pins one post-handshake exchange on an established
// google connection: the client builds and seals its packet in its send
// buffer, the server opens, parses and abstracts it in its scratch, and
// the client opens, parses and labels the response in its own, returning
// an interned output. What remains is the server's response datagram and
// the slice that carries it.
func TestSteadyStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	pair := testutil.NewQUICPair(quicsim.ProfileGoogle, nil)
	var want string
	for _, sym := range []string{quicsim.SymInitialCrypto, quicsim.SymHandshakeC,
		quicsim.SymShortStream, quicsim.SymShortStream, quicsim.SymShortStream} {
		out, err := pair.Client.Step(sym)
		if err != nil {
			t.Fatal(err)
		}
		want = out
	}
	if want == "{}" {
		t.Fatal("the established connection answers nothing")
	}
	avg := testing.AllocsPerRun(200, func() {
		if out, err := pair.Client.Step(quicsim.SymShortStream); err != nil || out != want {
			t.Fatalf("step: %q, %v; want %q", out, err, want)
		}
	})
	if avg > 2 {
		t.Errorf("established %s allocates %.1f allocs/op, want <= 2", quicsim.SymShortStream, avg)
	}
}
