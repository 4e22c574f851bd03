package netem

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/quicsim"
	"repro/internal/reference"
	"repro/internal/testutil"
)

// bg is the default context for tests that never cancel.
var bg = context.Background()

// lossySUL builds a QUIC SUL whose transport injects faults, on the shared
// test fixture.
func lossySUL(profile quicsim.Profile, cfg Config) (core.SUL, *Link) {
	var link *Link
	pair := testutil.NewQUICPair(profile, func(tr reference.Transport) reference.Transport {
		link = New(tr, cfg)
		return link
	})
	return pair, link
}

func TestCleanLinkIsTransparent(t *testing.T) {
	s, link := lossySUL(quicsim.ProfileQuiche, Config{Seed: 1})
	out, err := core.Oracle(s).Query(bg, []string{quicsim.SymInitialCrypto, quicsim.SymHandshakeC})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := quicsim.GroundTruth(quicsim.ProfileQuiche).Run(
		[]string{quicsim.SymInitialCrypto, quicsim.SymHandshakeC})
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("step %d: %q vs %q", i, out[i], want[i])
		}
	}
	st := link.Stats()
	if st.DroppedClient+st.DroppedServer+st.Duplicated != 0 {
		t.Fatal("clean link injected faults")
	}
}

// TestLossCausesObservableNondeterminism: with 30% response loss the same
// query produces different answers across runs, which a guard that takes
// the link for clean reports.
func TestLossCausesObservableNondeterminism(t *testing.T) {
	s, _ := lossySUL(quicsim.ProfileQuiche, Config{LossServer: 0.3, Seed: 2})
	guarded := core.Guard(core.Oracle(s), core.GuardConfig{MinVotes: 3, MaxVotes: 12})
	_, err := guarded.Query(bg, []string{quicsim.SymInitialCrypto, quicsim.SymHandshakeC, quicsim.SymShortStream})
	if _, ok := core.IsNondeterminism(err); !ok {
		t.Fatalf("expected nondeterminism under heavy loss, got %v", err)
	}
}

// TestGuardOutvotesRareLoss: with very light loss, a guard that knows the
// link's fault rate lets the majority answer win, and learning-style
// queries still succeed (§5's environmental-glitch scenario).
func TestGuardOutvotesRareLoss(t *testing.T) {
	cfg := Config{LossServer: 0.01, Seed: 3}
	s, _ := lossySUL(quicsim.ProfileQuiche, cfg)
	guarded := core.NewGuardian(core.GuardConfig{MinVotes: 3, MaxVotes: 60}, cfg.FaultRate(), nil, nil).Wrap(core.Oracle(s))
	word := []string{quicsim.SymInitialCrypto, quicsim.SymHandshakeC}
	want, _ := quicsim.GroundTruth(quicsim.ProfileQuiche).Run(word)
	for i := 0; i < 10; i++ {
		out, err := guarded.Query(bg, word)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		for j := range want {
			if out[j] != want[j] {
				t.Fatalf("majority answer corrupted at step %d: %q", j, out[j])
			}
		}
	}
}

// TestDuplicationIsHarmlessForAbstraction: duplicated response datagrams
// change the abstract output (the duplicate packet is observed), which is
// exactly the retransmission-induced nondeterminism §3.2's record-keeping
// exists to surface.
func TestDuplicationChangesAbstraction(t *testing.T) {
	clean, _ := lossySUL(quicsim.ProfileQuiche, Config{Seed: 4})
	dup, link := lossySUL(quicsim.ProfileQuiche, Config{Duplicate: 1.0, Seed: 4})
	word := []string{quicsim.SymInitialCrypto}
	a, err := core.Oracle(clean).Query(bg, word)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Oracle(dup).Query(bg, word)
	if err != nil {
		t.Fatal(err)
	}
	if link.Stats().Duplicated == 0 {
		t.Fatal("no duplication happened")
	}
	if a[0] == b[0] {
		t.Fatalf("duplicate delivery should be visible in the abstraction: %q", b[0])
	}
}

// TestReorderingCounter exercises the reorder path.
func TestReorderingCounter(t *testing.T) {
	s, link := lossySUL(quicsim.ProfileGoogle, Config{Reorder: 1.0, Seed: 6})
	if _, err := core.Oracle(s).Query(bg, []string{quicsim.SymInitialCrypto}); err != nil {
		t.Fatal(err)
	}
	if link.Stats().Reordered == 0 {
		t.Fatal("flight of 4 datagrams should have been reordered")
	}
}

// countingTransport records how many datagrams flowed through.
type countingTransport struct{ n int }

func (c *countingTransport) Send(src string, d []byte) [][]byte {
	c.n++
	return [][]byte{d, d, d}
}

// TestPerDirectionStreamsIndependent: client-side loss must not change
// which server->client datagrams are dropped. Each surviving response
// consumes server-direction coins in order, so the drop pattern *by
// response ordinal* is a pure function of the seed — toggling client loss
// only removes whole exchanges, it never shifts the server coin stream.
// (With the old single shared stream, every client coin shifted all later
// server decisions.)
func TestPerDirectionStreamsIndependent(t *testing.T) {
	dropOrdinals := func(cfg Config) []int {
		link := New(&countingTransport{}, cfg)
		var pattern []int
		for i := 0; i < 400; i++ {
			before := link.Stats()
			link.Send("src", []byte{byte(i)})
			after := link.Stats()
			for d := before.DroppedServer; d < after.DroppedServer; d++ {
				pattern = append(pattern, after.SentServer)
			}
		}
		return pattern
	}
	base := Config{LossServer: 0.2, Seed: 42}
	withClient := base
	withClient.LossClient = 0.5
	a, b := dropOrdinals(base), dropOrdinals(withClient)
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("loss patterns empty; rates too low for the sample size")
	}
	// Run b sees fewer responses (half its requests are eaten), so compare
	// the prefix both runs observed.
	n := len(b)
	if len(a) < n {
		n = len(a)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			t.Fatalf("server drop pattern shifted by client loss at %d: ordinal %d vs %d", i, a[i], b[i])
		}
	}
}

// TestForWorkerStreamsDiffer: per-worker configs derive distinct fault
// streams from the same base seed, and the derivation is stable.
func TestForWorkerStreamsDiffer(t *testing.T) {
	base := Config{LossServer: 0.2, Seed: 9}
	if base.ForWorker(0).Seed == base.ForWorker(1).Seed {
		t.Fatal("workers 0 and 1 share a fault stream")
	}
	if base.ForWorker(3).Seed != base.ForWorker(3).Seed {
		t.Fatal("ForWorker is not deterministic")
	}
	if base.ForWorker(0).LossServer != base.LossServer {
		t.Fatal("ForWorker changed the fault rates")
	}
}

// TestConfigEnabledAndLabel covers the option-plumbing helpers.
func TestConfigEnabledAndLabel(t *testing.T) {
	if (Config{Seed: 3}).Enabled() {
		t.Fatal("zero-rate config reports enabled")
	}
	if !(Config{Duplicate: 0.01}).Enabled() {
		t.Fatal("duplication config reports disabled")
	}
	got := Config{LossClient: 0.05, LossServer: 0.05, Duplicate: 0.01}.Label()
	if got != "loss=5%,dup=1%,reorder=0%" {
		t.Fatalf("label = %q", got)
	}
	asym := Config{LossClient: 0.01, LossServer: 0.05}.Label()
	if asym != "loss=1%/5%,dup=0%,reorder=0%" {
		t.Fatalf("asymmetric label = %q", asym)
	}
}

// TestSendFiltersInPlace pins the forwarding path at zero allocations:
// dropped responses are filtered out of the burst the inner transport
// returned, and only a drawn duplicate would need a new slice.
func TestSendFiltersInPlace(t *testing.T) {
	a, b, c := []byte("a"), []byte("b"), []byte("c")
	var burst [][]byte
	inner := reference.TransportFunc(func(string, []byte) [][]byte {
		burst = append(burst[:0], a, b, c)
		return burst
	})
	l := New(inner, Config{LossServer: 0.5, Reorder: 0.5, Seed: 1})
	kept := 0
	if avg := testing.AllocsPerRun(200, func() {
		kept += len(l.Send("client", nil))
	}); avg != 0 {
		t.Fatalf("Send allocates %.1f allocs/op on a link without duplication, want 0", avg)
	}
	if st := l.Stats(); kept != st.SentServer-st.DroppedServer {
		t.Fatalf("forwarded %d responses, stats say %d sent and %d dropped", kept, st.SentServer, st.DroppedServer)
	}
}

// TestSendDuplicateKeepsOrder: a duplicate lands right after its
// original and leaves the rest of the burst intact, wherever in the
// burst it is drawn.
func TestSendDuplicateKeepsOrder(t *testing.T) {
	inner := reference.TransportFunc(func(string, []byte) [][]byte {
		return [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	})
	l := New(inner, Config{Duplicate: 0.3, Seed: 3})
	for i := 0; i < 50; i++ {
		var got []string
		for _, d := range l.Send("client", nil) {
			if n := len(got); n > 0 && got[n-1] == string(d) {
				continue // a duplicate of the previous datagram
			}
			got = append(got, string(d))
		}
		if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
			t.Fatalf("exchange %d: forwarded %v, want a, b, c with duplicates adjacent", i, got)
		}
	}
	if l.Stats().Duplicated == 0 {
		t.Fatal("no duplicate drawn: the test is vacuous")
	}
}
