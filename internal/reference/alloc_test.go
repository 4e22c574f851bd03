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
// and nothing is recorded.
func TestStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, c := range []struct {
		profile quicsim.Profile
		max     float64
	}{
		{quicsim.ProfileGoogle, 320},
		{quicsim.ProfileGoogleFixed, 320},
		{quicsim.ProfileQuiche, 298},
		{quicsim.ProfileMvfst, 298},
		{quicsim.ProfileLossyRetransmit, 320},
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
