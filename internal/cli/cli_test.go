package cli

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

const (
	goldenGoogle = "../analysis/testdata/google.json"
	goldenLossy  = "../analysis/testdata/lossy-retransmit.json"
)

func TestCheckCleanModelFile(t *testing.T) {
	out, err := capture(t, func() error {
		return Check([]string{"-model", goldenGoogle})
	})
	if err != nil {
		t.Fatalf("clean google flagged: %v\n%s", err, out)
	}
	if !strings.Contains(out, "all properties hold") || strings.Contains(out, "FAIL") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestCheckFlagsLossyModelFile(t *testing.T) {
	out, err := capture(t, func() error {
		return Check([]string{"-model", goldenLossy})
	})
	if err == nil {
		t.Fatalf("violations not reported as an error:\n%s", out)
	}
	if !strings.Contains(err.Error(), "2 properties violated") {
		t.Fatalf("err = %v", err)
	}
	for _, want := range []string{"FAIL close-is-terminal", "PASS", "CONNECTION_CLOSE"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCheckExtraLTLProperty(t *testing.T) {
	out, err := capture(t, func() error {
		return Check([]string{"-model", goldenGoogle,
			"-property", `G(!outHas("CONNECTION_CLOSE"))`, "-depth", "3"})
	})
	if err == nil || !strings.Contains(out, "FAIL G(") {
		t.Fatalf("false LTL property not flagged (err=%v):\n%s", err, out)
	}
}

func TestCheckArgumentValidation(t *testing.T) {
	if _, err := capture(t, func() error { return Check(nil) }); err == nil {
		t.Fatal("missing -target/-model accepted")
	}
	if _, err := capture(t, func() error {
		return Check([]string{"-target", "google", "-model", goldenGoogle})
	}); err == nil {
		t.Fatal("both -target and -model accepted")
	}
}

func TestExportMinimizedFromModelFile(t *testing.T) {
	dir := t.TempDir()
	dot := filepath.Join(dir, "m.dot")
	jsonPath := filepath.Join(dir, "m.json")
	out, err := capture(t, func() error {
		return Export([]string{"-model", goldenGoogle, "-min", "-dot", dot, "-json", jsonPath})
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	orig, err := analysis.LoadModel(goldenGoogle)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{dot, jsonPath} {
		m, err := analysis.LoadModel(path)
		if err != nil {
			t.Fatal(err)
		}
		if eq, ce := m.Equivalent(orig); !eq {
			t.Fatalf("%s: exported model diverged on %v", path, ce)
		}
	}
}

func TestExportDOTToStdout(t *testing.T) {
	out, err := capture(t, func() error {
		return Export([]string{"-model", goldenLossy})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "digraph") {
		t.Fatalf("stdout export is not dot:\n%.80s", out)
	}
}

// TestDiffEndToEnd is the acceptance workflow: `prognosis diff google
// lossy-retransmit` learns both targets through the default lossy link,
// emits a witness word, and replays it against both live targets,
// reproducing the divergent outputs on the wire. (-conformance 0 keeps the
// test fast; the divergence — doubled flights — shows on every state.)
func TestDiffEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error {
		return Diff([]string{"-conformance", "0", "-witnesses", "2", "-seed", "13",
			"-export", dir, "google", "lossy-retransmit"})
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{
		"NOT equivalent",
		"witness 1",
		"replaying witness",
		"CONFIRMED: live outputs diverge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	for _, file := range []string{"google.json", "google.dot", "lossy-retransmit.json", "lossy-retransmit.dot"} {
		if _, err := analysis.LoadModel(filepath.Join(dir, file)); err != nil {
			t.Fatalf("export %s: %v", file, err)
		}
	}
}

func TestDiffNeedsTwoTargets(t *testing.T) {
	if _, err := capture(t, func() error { return Diff([]string{"google"}) }); err == nil {
		t.Fatal("one target accepted")
	}
}

// writeManifest writes a regress manifest with the given entries into dir.
func writeManifest(t *testing.T, dir, body string) string {
	t.Helper()
	path := filepath.Join(dir, "regress.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegressUnchangedTargetPasses(t *testing.T) {
	dir := t.TempDir()
	golden, err := analysis.LoadModel("../analysis/testdata/tcp.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.Save(filepath.Join(dir, "tcp.json")); err != nil {
		t.Fatal(err)
	}
	manifest := writeManifest(t, dir,
		`{"version":1,"targets":[{"name":"tcp","golden":"tcp.json","seed":13,"conformance":2}]}`)
	out, err := capture(t, func() error { return Regress([]string{"-manifest", manifest}) })
	if err != nil {
		t.Fatalf("unchanged target drifted: %v\n%s", err, out)
	}
	if !strings.Contains(out, "regress tcp: OK") || !strings.Contains(out, "0 drifted") {
		t.Fatalf("output:\n%s", out)
	}
}

// TestRegressMutatedTargetFailsWithWitness is the gate's purpose: a target
// whose behaviour no longer matches its golden must fail the run with a
// non-empty shortest witness, written to -witness-dir for CI to upload.
func TestRegressMutatedTargetFailsWithWitness(t *testing.T) {
	dir := t.TempDir()
	golden, err := analysis.LoadModel("../analysis/testdata/tcp.json")
	if err != nil {
		t.Fatal(err)
	}
	// The "old version" golden: same shape, one transition output mutated —
	// as if the implementation changed behaviour since the golden was cut.
	mutated := golden.Mealy().Clone()
	s := mutated.Initial()
	to, _, ok := mutated.Step(s, mutated.Inputs()[0])
	if !ok {
		t.Fatal("golden has no transition on first input")
	}
	mutated.SetTransition(s, mutated.Inputs()[0], to, "MUTATED-OUTPUT")
	if err := analysis.NewModel("tcp", mutated).Save(filepath.Join(dir, "tcp.json")); err != nil {
		t.Fatal(err)
	}
	manifest := writeManifest(t, dir,
		`{"version":1,"targets":[{"name":"tcp","golden":"tcp.json","seed":13,"conformance":2}]}`)
	witnessDir := filepath.Join(dir, "witnesses")
	out, err := capture(t, func() error {
		return Regress([]string{"-manifest", manifest, "-witness-dir", witnessDir})
	})
	if err == nil || !strings.Contains(err.Error(), "drifted from golden: tcp") {
		t.Fatalf("mutated target passed the gate (err=%v):\n%s", err, out)
	}
	if !strings.Contains(out, "DRIFT") || !strings.Contains(out, "shortest witness") {
		t.Fatalf("output:\n%s", out)
	}
	witness, err := os.ReadFile(filepath.Join(witnessDir, "tcp.witness.txt"))
	if err != nil || len(witness) == 0 {
		t.Fatalf("no witness artifact: %v", err)
	}
	if !strings.Contains(string(witness), "MUTATED-OUTPUT") {
		t.Fatalf("witness does not show the divergence:\n%s", witness)
	}
	if _, err := analysis.LoadModel(filepath.Join(witnessDir, "tcp.learned.json")); err != nil {
		t.Fatalf("learned-model artifact unreadable: %v", err)
	}
}

func TestRegressExpectNondet(t *testing.T) {
	dir := t.TempDir()
	manifest := writeManifest(t, dir,
		`{"version":1,"targets":[{"name":"mvfst","expect":"nondet","seed":13}]}`)
	out, err := capture(t, func() error { return Regress([]string{"-manifest", manifest}) })
	if err != nil {
		t.Fatalf("mvfst nondeterminism not treated as the golden outcome: %v\n%s", err, out)
	}
	if !strings.Contains(out, "regress mvfst: OK") {
		t.Fatalf("output:\n%s", out)
	}
}

// TestRegressWarmStoreCutsLiveQueries: a second regress run sharing the
// -store directory must relearn warm and issue fewer live queries.
func TestRegressWarmStoreCutsLiveQueries(t *testing.T) {
	dir := t.TempDir()
	golden, err := analysis.LoadModel("../analysis/testdata/tcp.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.Save(filepath.Join(dir, "tcp.json")); err != nil {
		t.Fatal(err)
	}
	manifest := writeManifest(t, dir,
		`{"version":1,"targets":[{"name":"tcp","golden":"tcp.json","seed":13,"conformance":2}]}`)
	store := filepath.Join(dir, "store")
	queries := func(out string) int {
		var n, targets, drifted int
		if _, err := fmt.Sscanf(out[strings.LastIndex(out, "regress total:"):],
			"regress total: %d live queries across %d targets, %d drifted", &n, &targets, &drifted); err != nil {
			t.Fatalf("unparseable total (%v):\n%s", err, out)
		}
		return n
	}
	coldOut, err := capture(t, func() error { return Regress([]string{"-manifest", manifest, "-store", store}) })
	if err != nil {
		t.Fatal(err)
	}
	warmOut, err := capture(t, func() error { return Regress([]string{"-manifest", manifest, "-store", store}) })
	if err != nil {
		t.Fatal(err)
	}
	cold, warm := queries(coldOut), queries(warmOut)
	if warm >= cold {
		t.Fatalf("warm regress (%d live queries) not cheaper than cold (%d)", warm, cold)
	}
}

func TestRegressManifestValidation(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"no-targets":        `{"version":1,"targets":[]}`,
		"bad-version":       `{"version":9,"targets":[{"name":"tcp","golden":"x.json"}]}`,
		"nameless":          `{"version":1,"targets":[{"golden":"x.json"}]}`,
		"goldenless":        `{"version":1,"targets":[{"name":"tcp"}]}`,
		"nondet-and-golden": `{"version":1,"targets":[{"name":"mvfst","expect":"nondet","golden":"x.json"}]}`,
		"bad-expect":        `{"version":1,"targets":[{"name":"tcp","expect":"maybe"}]}`,
	} {
		manifest := writeManifest(t, t.TempDir(), body)
		if _, err := capture(t, func() error { return Regress([]string{"-manifest", manifest}) }); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// -targets must reject names outside the manifest.
	manifest := writeManifest(t, dir,
		`{"version":1,"targets":[{"name":"tcp","golden":"tcp.json"}]}`)
	if _, err := capture(t, func() error {
		return Regress([]string{"-manifest", manifest, "-targets", "nope"})
	}); err == nil || !strings.Contains(err.Error(), "not in manifest") {
		t.Errorf("unknown -targets selection accepted: %v", err)
	}
}

// TestRegressManifestCoversAllRegistryTargets keeps the checked-in
// manifest honest: every registered in-process target must appear in it (a
// new target without a regression entry would silently escape the CI
// gate). External targets are exempt — their behaviour is the wrapped
// command's, so no fixed golden can cover them.
func TestRegressManifestCoversAllRegistryTargets(t *testing.T) {
	m, err := LoadRegressManifest("../analysis/testdata/regress.json")
	if err != nil {
		t.Fatal(err)
	}
	missing, unknown := m.CoverageGap()
	if len(missing) > 0 {
		t.Errorf("registry target(s) missing from the regression manifest: %s\n"+
			"add an entry (with a checked-in golden, or expect \"nondet\") for each to internal/analysis/testdata/regress.json",
			strings.Join(missing, ", "))
	}
	if len(unknown) > 0 {
		t.Errorf("manifest entr(ies) naming no registry target: %s\n"+
			"remove them from internal/analysis/testdata/regress.json or register the target",
			strings.Join(unknown, ", "))
	}
}

func TestMainDispatch(t *testing.T) {
	var errBuf bytes.Buffer
	if code := Main([]string{"bogus-subcommand"}, &errBuf); code != 2 {
		t.Fatalf("unknown subcommand exit %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "unknown subcommand") {
		t.Fatalf("stderr: %s", errBuf.String())
	}
	errBuf.Reset()
	if code := Main([]string{"help"}, &errBuf); code != 0 {
		t.Fatalf("help exit %d", code)
	}
	for _, verb := range []string{"prognosis learn", "prognosis monitor", "prognosis reproduce"} {
		if !strings.Contains(errBuf.String(), verb) {
			t.Fatalf("usage missing %q: %s", verb, errBuf.String())
		}
	}
	errBuf.Reset()
	if code := Main([]string{"monitor", "-h"}, &errBuf); code != 0 {
		t.Fatalf("monitor -h exit %d: %s", code, errBuf.String())
	}
	if strings.Contains(errBuf.String(), "unknown subcommand") {
		t.Fatalf("monitor not dispatched: %s", errBuf.String())
	}
	errBuf.Reset()
	if code := Main([]string{"reproduce", "-h"}, &errBuf); code != 0 {
		t.Fatalf("reproduce -h exit %d: %s", code, errBuf.String())
	}
	if strings.Contains(errBuf.String(), "unknown subcommand") {
		t.Fatalf("reproduce not dispatched: %s", errBuf.String())
	}
	errBuf.Reset()
	if code := Main([]string{"reproduce", "extra"}, &errBuf); code != 1 {
		t.Fatalf("reproduce with a positional argument exit %d, want 1", code)
	}
	if code := Main(nil, &errBuf); code != 2 {
		t.Fatal("empty invocation must fail with usage")
	}
}
