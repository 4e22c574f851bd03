package reference_test

import (
	"strings"
	"testing"

	"repro/internal/quicsim"
	"repro/internal/reference"
	"repro/internal/tcpsim"
	"repro/internal/tcpwire"
	"repro/internal/testutil"
)

// newQUICPair wires a client to an in-process server via the shared
// fixture.
func newQUICPair(t *testing.T, profile quicsim.Profile) (*reference.QUICClient, *quicsim.Server) {
	t.Helper()
	p := testutil.NewQUICPair(profile, nil)
	return p.Client, p.Server
}

// run sends a word of abstract symbols, resetting first.
func run(t *testing.T, cli *reference.QUICClient, srv *quicsim.Server, word ...string) []string {
	t.Helper()
	var out []string
	for _, ex := range runExchanges(t, cli, srv, word...) {
		out = append(out, ex.AbstractOut)
	}
	return out
}

// runExchanges is run returning each step's whole exchange.
func runExchanges(t *testing.T, cli *reference.QUICClient, srv *quicsim.Server, word ...string) []reference.Exchange {
	t.Helper()
	if err := cli.Reset(); err != nil {
		t.Fatal(err)
	}
	srv.Reset()
	trace := make([]reference.Exchange, 0, len(word))
	for _, sym := range word {
		ex, err := cli.StepExchange(sym)
		if err != nil {
			t.Fatalf("step %q: %v", sym, err)
		}
		trace = append(trace, ex)
	}
	return trace
}

// TestQUICWirePathMatchesGroundTruth drives the real packet path (encode,
// HKDF/AES-GCM protection, header protection, parsing) end to end and
// checks the abstract I/O equals the profile's specification machine.
func TestQUICWirePathMatchesGroundTruth(t *testing.T) {
	words := [][]string{
		{quicsim.SymInitialCrypto, quicsim.SymHandshakeC, quicsim.SymShortStream},
		{quicsim.SymInitialCrypto, quicsim.SymHandshakeC, quicsim.SymShortStream, quicsim.SymShortStream,
			quicsim.SymShortFC, quicsim.SymShortFC, quicsim.SymShortStream},
		{quicsim.SymInitialHD, quicsim.SymInitialCrypto, quicsim.SymHandshakeC},
		{quicsim.SymInitialCrypto, quicsim.SymInitialCrypto},
		{quicsim.SymInitialCrypto, quicsim.SymHandshakeHD, quicsim.SymHandshakeC},
		{quicsim.SymHandshakeC, quicsim.SymShortStream, quicsim.SymInitialCrypto},
		{quicsim.SymInitialCrypto, quicsim.SymShortStream, quicsim.SymHandshakeC, quicsim.SymShortFC},
		{quicsim.SymInitialCrypto, quicsim.SymHandshakeC, quicsim.SymShortHD, quicsim.SymShortStream},
	}
	for _, profile := range []quicsim.Profile{quicsim.ProfileGoogle, quicsim.ProfileQuiche} {
		truth := quicsim.GroundTruth(profile)
		cli, srv := newQUICPair(t, profile)
		for _, word := range words {
			want, ok := truth.Run(word)
			if !ok {
				t.Fatalf("%v: ground truth has no run for %v", profile, word)
			}
			got := run(t, cli, srv, word...)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v: word %v step %d:\n got %q\nwant %q", profile, word, i, got[i], want[i])
				}
			}
		}
	}
}

// TestQUICHandshakeCompletes sanity-checks the happy path output labels.
func TestQUICHandshakeCompletes(t *testing.T) {
	cli, srv := newQUICPair(t, quicsim.ProfileGoogle)
	out := run(t, cli, srv, quicsim.SymInitialCrypto, quicsim.SymHandshakeC)
	if !strings.Contains(out[0], "INITIAL(?,?)[ACK,CRYPTO]") ||
		!strings.Contains(out[0], "HANDSHAKE(?,?)[CRYPTO]") ||
		!strings.Contains(out[0], "SHORT(?,?)[STREAM]") {
		t.Fatalf("flight = %q", out[0])
	}
	if out[1] != "{SHORT(?,?)[CRYPTO],SHORT(?,?)[HANDSHAKE_DONE]}" {
		t.Fatalf("done flight = %q", out[1])
	}
}

// TestQUICDeterministicAcrossResets: the same query yields the same answer
// after reset — the property the whole learning stack depends on.
func TestQUICDeterministicAcrossResets(t *testing.T) {
	cli, srv := newQUICPair(t, quicsim.ProfileGoogle)
	word := []string{quicsim.SymInitialCrypto, quicsim.SymHandshakeC, quicsim.SymShortStream, quicsim.SymShortFC}
	a := run(t, cli, srv, word...)
	b := run(t, cli, srv, word...)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d differs across resets: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestMvfstNondeterministicReset reproduces Issue 2: after the close, the
// same probe sometimes draws a stateless RESET and sometimes silence.
func TestMvfstNondeterministicReset(t *testing.T) {
	cli, srv := newQUICPair(t, quicsim.ProfileMvfst)
	resets, silent := 0, 0
	const trials = 200
	for i := 0; i < trials; i++ {
		out := run(t, cli, srv,
			quicsim.SymInitialCrypto, quicsim.SymHandshakeHD, quicsim.SymShortHD)
		switch out[2] {
		case "{RESET(?,?)[]}":
			resets++
		case "{}":
			silent++
		default:
			t.Fatalf("unexpected post-close response %q", out[2])
		}
	}
	if resets == 0 || silent == 0 {
		t.Fatalf("no nondeterminism observed: resets=%d silent=%d", resets, silent)
	}
	rate := float64(resets) / float64(trials)
	if rate < 0.70 || rate > 0.92 {
		t.Fatalf("reset rate %.2f outside the expected ~0.82 band", rate)
	}
}

// TestRetryAddressValidation covers Issue 3 end to end: a correct client
// completes the retry dance; the buggy client (new port per retry) can
// never establish a connection.
func TestRetryAddressValidation(t *testing.T) {
	srv := quicsim.NewServer(quicsim.Config{Profile: quicsim.ProfileGoogle, Seed: 7, RetryRequired: true})
	good := reference.NewQUICClient(reference.QUICClientConfig{Seed: 11}, reference.ServerTransport(srv))

	out := run(t, good, srv, quicsim.SymInitialCrypto, quicsim.SymInitialCrypto, quicsim.SymHandshakeC)
	if out[0] != "{RETRY(?,?)[]}" {
		t.Fatalf("first initial should draw a Retry, got %q", out[0])
	}
	if !strings.Contains(out[1], "INITIAL(?,?)[ACK,CRYPTO]") {
		t.Fatalf("validated retry should yield the flight, got %q", out[1])
	}
	if out[2] != "{SHORT(?,?)[CRYPTO],SHORT(?,?)[HANDSHAKE_DONE]}" {
		t.Fatalf("handshake should complete after retry, got %q", out[2])
	}

	bad := reference.NewQUICClient(reference.QUICClientConfig{Seed: 11, RetryFromNewPort: true}, reference.ServerTransport(srv))
	out = run(t, bad, srv, quicsim.SymInitialCrypto, quicsim.SymInitialCrypto, quicsim.SymHandshakeC)
	if out[0] != "{RETRY(?,?)[]}" {
		t.Fatalf("first initial should draw a Retry, got %q", out[0])
	}
	if out[1] != "{}" {
		t.Fatalf("token from the wrong port must be dropped, got %q", out[1])
	}
	if out[2] != "{}" {
		t.Fatalf("handshake must be impossible for the buggy client, got %q", out[2])
	}
}

// TestIssue4StreamDataBlockedField checks the synthesis experiment's raw
// signal: Google's STREAM_DATA_BLOCKED carries Maximum Stream Data 0; the
// fixed profile carries the real limit.
func TestIssue4StreamDataBlockedField(t *testing.T) {
	for _, c := range []struct {
		profile quicsim.Profile
		want    uint64
	}{
		{quicsim.ProfileGoogle, 0},
		{quicsim.ProfileGoogleFixed, quicsim.Chunk},
	} {
		cli, srv := newQUICPair(t, c.profile)
		trace := runExchanges(t, cli, srv,
			quicsim.SymInitialCrypto, quicsim.SymHandshakeC,
			quicsim.SymShortStream, quicsim.SymShortStream)
		var found bool
		for _, ex := range trace {
			for _, cp := range ex.ConcreteOut {
				for _, f := range cp.Frames {
					if f.Type.String() == "STREAM_DATA_BLOCKED" {
						found = true
						if f.Limit != c.want {
							t.Fatalf("%v: Maximum Stream Data = %d, want %d", c.profile, f.Limit, c.want)
						}
					}
				}
			}
		}
		if !found {
			t.Fatalf("%v: no STREAM_DATA_BLOCKED observed", c.profile)
		}
	}
}

// TestOracleTableRecordsConcretePackets checks Adapter property (4).
func TestOracleTableRecordsConcretePackets(t *testing.T) {
	cli, srv := newQUICPair(t, quicsim.ProfileGoogle)
	trace := runExchanges(t, cli, srv, quicsim.SymInitialCrypto, quicsim.SymHandshakeC)
	if len(trace) != 2 {
		t.Fatalf("trace length %d, want 2", len(trace))
	}
	if trace[0].AbstractIn != quicsim.SymInitialCrypto {
		t.Fatalf("abstract in = %q", trace[0].AbstractIn)
	}
	if len(trace[0].ConcreteIn) != 1 || len(trace[0].ConcreteIn[0].Frames) == 0 {
		t.Fatal("concrete input not recorded")
	}
	if len(trace[0].ConcreteOut) != 4 {
		t.Fatalf("flight should record 4 concrete packets, got %d", len(trace[0].ConcreteOut))
	}
	// Server packet numbers are recoverable for synthesis.
	if trace[0].ConcreteOut[0].PacketNumber != 0 {
		t.Fatalf("first server initial pn = %d, want 0", trace[0].ConcreteOut[0].PacketNumber)
	}
}

// TestPlaceholderKeysPacketsDropped: symbols whose keys are underivable
// still produce well-formed packets that the server drops.
func TestPlaceholderKeysPacketsDropped(t *testing.T) {
	cli, srv := newQUICPair(t, quicsim.ProfileGoogle)
	out := run(t, cli, srv, quicsim.SymHandshakeC, quicsim.SymShortStream)
	if out[0] != "{}" || out[1] != "{}" {
		t.Fatalf("pre-connection packets must be dropped, got %v", out)
	}
}

// --- TCP reference client ---

func newTCPPair(t *testing.T) (*reference.TCPClient, *tcpsim.Server) {
	t.Helper()
	srv := tcpsim.NewServer(tcpsim.Config{Port: 44344, Seed: 5, StrictAckCheck: true})
	src := [4]byte{10, 0, 0, 2}
	dst := [4]byte{10, 0, 0, 1}
	tr := reference.TransportFunc(func(_ string, raw []byte) [][]byte {
		seg, err := tcpwire.Decode(raw, src, dst)
		if err != nil {
			t.Fatalf("server received corrupt segment: %v", err)
		}
		var out [][]byte
		for _, resp := range srv.Handle(seg) {
			out = append(out, resp.Encode(dst, src))
		}
		return out
	})
	cli := reference.NewTCPClient(reference.TCPClientConfig{Seed: 3, DstPort: 44344, SrcAddr: src, DstAddr: dst}, tr)
	return cli, srv
}

func runTCP(t *testing.T, cli *reference.TCPClient, srv *tcpsim.Server, word ...string) []string {
	t.Helper()
	var out []string
	for _, ex := range runTCPExchanges(t, cli, srv, word...) {
		out = append(out, ex.AbstractOut)
	}
	return out
}

// runTCPExchanges is runTCP returning each step's whole exchange.
func runTCPExchanges(t *testing.T, cli *reference.TCPClient, srv *tcpsim.Server, word ...string) []reference.TCPExchange {
	t.Helper()
	if err := cli.Reset(); err != nil {
		t.Fatal(err)
	}
	srv.Reset()
	trace := make([]reference.TCPExchange, 0, len(word))
	for _, sym := range word {
		ex, err := cli.StepExchange(sym)
		if err != nil {
			t.Fatalf("step %q: %v", sym, err)
		}
		trace = append(trace, ex)
	}
	return trace
}

func TestTCPHandshakeThroughWire(t *testing.T) {
	cli, srv := newTCPPair(t)
	out := runTCP(t, cli, srv, "SYN(?,?,0)", "ACK(?,?,0)", "ACK+PSH(?,?,1)")
	want := []string{"SYN+ACK(?,?,0)", "NIL", "ACK(?,?,0)"}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("step %d = %q, want %q (full: %v)", i, out[i], want[i], out)
		}
	}
	if srv.State().String() != "ESTABLISHED" {
		t.Fatalf("server state %v", srv.State())
	}
}

func TestTCPFullCloseSequence(t *testing.T) {
	cli, srv := newTCPPair(t)
	out := runTCP(t, cli, srv,
		"SYN(?,?,0)", "ACK(?,?,0)", "ACK+FIN(?,?,0)", "ACK(?,?,0)", "ACK(?,?,0)", "SYN(?,?,0)")
	want := []string{"SYN+ACK(?,?,0)", "NIL", "ACK(?,?,0)", "ACK+FIN(?,?,0)", "NIL", "ACK+RST(?,?,0)"}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("step %d = %q, want %q (full: %v)", i, out[i], want[i], out)
		}
	}
}

func TestTCPSymbolParsing(t *testing.T) {
	flags, n, err := reference.ParseTCPSymbol("ACK+PSH(?,?,1)")
	if err != nil || flags != tcpwire.ACK|tcpwire.PSH || n != 1 {
		t.Fatalf("parse: %v %d %v", flags, n, err)
	}
	if _, _, err := reference.ParseTCPSymbol("garbage"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, _, err := reference.ParseTCPSymbol("XYZ(?,?,0)"); err == nil {
		t.Fatal("unknown flags accepted")
	}
	for _, sym := range reference.TCPAlphabet() {
		if _, _, err := reference.ParseTCPSymbol(sym); err != nil {
			t.Fatalf("alphabet symbol %q does not parse: %v", sym, err)
		}
	}
}

func TestTCPOracleTableRecordsNumbers(t *testing.T) {
	cli, srv := newTCPPair(t)
	trace := runTCPExchanges(t, cli, srv, "SYN(?,?,0)", "ACK(?,?,0)")
	if len(trace) != 2 {
		t.Fatalf("trace length %d", len(trace))
	}
	synAck := trace[0].ConcreteOut
	if len(synAck) != 1 {
		t.Fatal("no SYN-ACK recorded")
	}
	// The final ACK must acknowledge the server's ISS+1 — the register
	// relationship (r = sn+1) that Fig. 3(c) synthesizes.
	if trace[1].ConcreteIn.AckNumber != synAck[0].SeqNumber+1 {
		t.Fatalf("ack %d does not track server seq %d", trace[1].ConcreteIn.AckNumber, synAck[0].SeqNumber)
	}
}

func TestTCPDeterministicAcrossResets(t *testing.T) {
	cli, srv := newTCPPair(t)
	a := runTCP(t, cli, srv, "SYN(?,?,0)", "ACK(?,?,0)", "ACK+FIN(?,?,0)")
	b := runTCP(t, cli, srv, "SYN(?,?,0)", "ACK(?,?,0)", "ACK+FIN(?,?,0)")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestQUICForeignPacketsCounted: a server packet addressed to an earlier
// connection — a late answer to an earlier execution — is counted and
// abstracts to nothing, since no key of the current connection opens it.
func TestQUICForeignPacketsCounted(t *testing.T) {
	srv := quicsim.NewServer(quicsim.Config{Profile: quicsim.ProfileGoogle, Seed: 7})
	inner := reference.ServerTransport(srv)
	var last [][]byte
	replay := false
	cli := reference.NewQUICClient(reference.QUICClientConfig{Seed: 11},
		reference.TransportFunc(func(src string, d []byte) [][]byte {
			if replay {
				return last
			}
			last = inner.Send(src, d)
			return last
		}))
	srv.Reset()
	cli.Reset()
	if out, _ := cli.Step(quicsim.SymInitialCrypto); out == "{}" || cli.Foreign() != 0 {
		t.Fatalf("first connection: out %q, foreign %d", out, cli.Foreign())
	}
	srv.Reset()
	cli.Reset()
	replay = true // the next step hears only the first connection's answer
	if out, _ := cli.Step(quicsim.SymInitialCrypto); out != "{}" {
		t.Fatalf("stale answer abstracted to %q, want {}", out)
	}
	if cli.Foreign() != len(last) {
		t.Fatalf("foreign = %d, want %d", cli.Foreign(), len(last))
	}
}

// TestQUICTruncates pins which outputs are another cut short: a strict
// prefix of its packet list, never a packet that merely starts the same.
func TestQUICTruncates(t *testing.T) {
	cli := reference.NewQUICClient(reference.QUICClientConfig{Seed: 11}, nil)
	for _, tc := range []struct {
		a, b string
		want bool
	}{
		{"{}", "{SHORT(?,?)[ACK]}", true},
		{"{}", "{}", false},
		{"{SHORT(?,?)[CRYPTO]}", "{SHORT(?,?)[CRYPTO],SHORT(?,?)[HANDSHAKE_DONE]}", true},
		{"{SHORT(?,?)[ACK]}", "{SHORT(?,?)[ACK,STREAM]}", false},
		{"{SHORT(?,?)[ACK]}", "{SHORT(?,?)[ACK]}", false},
		{"{SHORT(?,?)[ACK],SHORT(?,?)[ACK]}", "{SHORT(?,?)[ACK]}", false},
		{"{HANDSHAKE(?,?)[CRYPTO]}", "{SHORT(?,?)[CRYPTO],HANDSHAKE(?,?)[CRYPTO]}", false},
	} {
		if got := cli.Truncates(tc.a, tc.b); got != tc.want {
			t.Errorf("Truncates(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
