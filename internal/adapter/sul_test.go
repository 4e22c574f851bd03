package adapter

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/testutil"
)

// adapterScript writes a /bin/sh adapter into a temp dir and returns
// the Config.Command that runs it. The script sees its own directory in
// $dir (for marker/boot files) via a cd preamble.
func adapterScript(t *testing.T, body string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "adapter.sh")
	script := "#!/bin/sh\ncd \"$(dirname \"$0\")\" || exit 1\n" + body
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return "/bin/sh " + path
}

// echoAdapter is the well-behaved reference script: alphabet {a, b},
// every query answered "got-<sym>".
const echoAdapter = `
while read -r line; do
  set -- $line
  case $1 in
    HELLO) echo "HELLO 1 a b" ;;
    RESET) echo "OK" ;;
    QUERY) echo "OUT got-$2" ;;
    *) echo "ERR unknown" ;;
  esac
done
`

func TestSULHappyPath(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := New(Config{Command: adapterScript(t, echoAdapter)})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Alphabet(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("alphabet = %v, want [a b]", got)
	}
	for _, in := range []string{"a", "b", "a"} {
		out, err := s.Step(in)
		if err != nil {
			t.Fatalf("Step(%s): %v", in, err)
		}
		if want := "got-" + in; out != want {
			t.Fatalf("Step(%s) = %q, want %q", in, out, want)
		}
	}
	if err := s.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if out, err := s.Step("b"); err != nil || out != "got-b" {
		t.Fatalf("Step after Reset = %q, %v", out, err)
	}
	if n := s.Restarts(); n != 0 {
		t.Fatalf("healthy run recorded %d restarts", n)
	}
	s.Close()
	testutil.WaitForGoroutines(t, base)
}

// TestSULQueryDeadline drives an adapter that never answers QUERY: the
// deadline voids the execution and tears the subprocess down, the next
// Reset spawns a fresh one, and a subprocess that dies in more than
// MaxRestarts executions in a row fails with ErrRestartsExhausted. Every
// error carries ErrDeadline.
func TestSULQueryDeadline(t *testing.T) {
	base := runtime.NumGoroutine()
	cmd := adapterScript(t, `
while read -r line; do
  set -- $line
  case $1 in
    HELLO) echo "HELLO 1 a" ;;
    RESET) echo "OK" ;;
    QUERY) : ;;
  esac
done
`)
	s, err := New(Config{Command: cmd, QueryTimeout: 100 * time.Millisecond, MaxRestarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out, err := s.Step("a")
	if err == nil {
		t.Fatalf("Step on a silent adapter answered %q", out)
	}
	if !errors.Is(err, learn.ErrVoided) || errors.Is(err, ErrRestartsExhausted) {
		t.Errorf("first deadline: %v, want a voided execution", err)
	}
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("error %v does not wrap ErrDeadline", err)
	}
	var ae *Error
	if !errors.As(err, &ae) {
		t.Fatalf("error %T is not an *Error", err)
	}
	if s.Restarts() != 1 {
		t.Errorf("Restarts() = %d, want 1", s.Restarts())
	}
	// The subprocess answers RESET promptly, so a fresh one starts.
	if err := s.Reset(); err != nil {
		t.Fatalf("Reset after a deadline: %v", err)
	}
	// The second execution in a row to die exceeds MaxRestarts.
	_, err = s.Step("a")
	if !errors.Is(err, ErrRestartsExhausted) || !errors.Is(err, ErrDeadline) || errors.Is(err, learn.ErrVoided) {
		t.Errorf("second deadline in a row: %v, want ErrRestartsExhausted over ErrDeadline", err)
	}
	if s.Restarts() != 1 {
		t.Errorf("Restarts() after giving up = %d, want 1", s.Restarts())
	}
	if err := s.Reset(); err != nil {
		t.Fatalf("Reset after giving up: %v", err)
	}
	s.Close()
	testutil.WaitForGoroutines(t, base)
}

// TestSULGarbageOutput drives an adapter that answers QUERY with a line
// that is not protocol: the result must be a typed error carrying the
// *ProtoError cause — never a made-up answer.
func TestSULGarbageOutput(t *testing.T) {
	base := runtime.NumGoroutine()
	cmd := adapterScript(t, `
while read -r line; do
  set -- $line
  case $1 in
    HELLO) echo "HELLO 1 a" ;;
    RESET) echo "OK" ;;
    QUERY) echo "BANANAS ???" ;;
  esac
done
`)
	s, err := New(Config{Command: cmd, QueryTimeout: time.Second, MaxRestarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Step("a")
	if err == nil {
		t.Fatalf("Step on a garbage adapter answered %q", out)
	}
	var pe *ProtoError
	if !errors.As(err, &pe) {
		t.Errorf("error %v does not carry a *ProtoError cause", err)
	}
	if !errors.Is(err, learn.ErrVoided) {
		t.Errorf("error %v does not void the execution", err)
	}
	s.Close()
	testutil.WaitForGoroutines(t, base)
}

// TestSULErrAnswerIsNotARestart: an ERR reply is the adapter answering,
// not dying — it must surface as Op == OpAnswer with zero restarts, and
// the session must keep working afterwards.
func TestSULErrAnswerIsNotARestart(t *testing.T) {
	base := runtime.NumGoroutine()
	cmd := adapterScript(t, `
while read -r line; do
  set -- $line
  case $1 in
    HELLO) echo "HELLO 1 a bad" ;;
    RESET) echo "OK" ;;
    QUERY)
      if [ "$2" = "bad" ]; then echo "ERR boom"; else echo "OUT got-$2"; fi ;;
  esac
done
`)
	s, err := New(Config{Command: cmd})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step("bad"); err == nil {
		t.Fatal("ERR reply did not surface as an error")
	} else {
		var ae *Error
		if !errors.As(err, &ae) || ae.Op != OpAnswer {
			t.Errorf("ERR reply surfaced as %v, want Op %q", err, OpAnswer)
		}
		if !strings.Contains(err.Error(), "boom") {
			t.Errorf("ERR message lost: %v", err)
		}
	}
	if s.Restarts() != 0 {
		t.Errorf("ERR reply cost %d restarts, want 0", s.Restarts())
	}
	if out, err := s.Step("a"); err != nil || out != "got-a" {
		t.Fatalf("session dead after an ERR answer: %q, %v", out, err)
	}
	s.Close()
	testutil.WaitForGoroutines(t, base)
}

// crashingAdapter exits on its first boot's third query after a RESET
// and marks every answer with its boot number and its position in the
// word, so an answer stitched from two subprocesses shows.
const crashingAdapter = `
boot=$(cat boot 2>/dev/null || echo 0)
boot=$((boot+1))
echo "$boot" > boot
n=0
while read -r line; do
  set -- $line
  case $1 in
    HELLO) echo "HELLO 1 a b" ;;
    RESET) n=0; echo "OK" ;;
    QUERY)
      n=$((n+1))
      if [ "$boot" = "1" ] && [ "$n" = "3" ]; then exit 3; fi
      echo "OUT b$boot-n$n" ;;
  esac
done
`

// TestSULCrashRestartAndReplay: a crash mid-word voids the execution,
// the §5 guard casts it again, and the next Reset restarts the
// subprocess, so the guard replays the whole word on one boot. The
// answer never stitches the dead boot's outputs to the fresh one's.
func TestSULCrashRestartAndReplay(t *testing.T) {
	base := runtime.NumGoroutine()
	var gotRestarts int
	var gotReason string
	s, err := New(Config{
		Command: adapterScript(t, crashingAdapter),
		OnRestart: func(restarts int, reason string) {
			gotRestarts, gotReason = restarts, reason
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var st core.GuardStats
	out, err := core.NewGuardian(core.DefaultGuard(), 0, &st, nil).Wrap(core.Oracle(s)).
		Query(context.Background(), []string{"a", "a", "b"})
	if err != nil {
		t.Fatalf("guarded query across the crash: %v", err)
	}
	if want := []string{"b2-n1", "b2-n2", "b2-n3"}; !slices.Equal(out, want) {
		t.Fatalf("answer = %v, want %v from one boot", out, want)
	}
	if st.Recasts != 1 || st.Votes != 2 {
		t.Errorf("guard stats %+v, want 1 recast and 2 votes", st)
	}
	if s.Restarts() != 1 {
		t.Errorf("Restarts() = %d, want 1", s.Restarts())
	}
	if gotRestarts != 1 || gotReason == "" {
		t.Errorf("OnRestart saw (%d, %q), want (1, non-empty reason)", gotRestarts, gotReason)
	}
	s.Close()
	testutil.WaitForGoroutines(t, base)
}

// TestSULCrashOnResetRevives: a subprocess that dies on RESET voids the
// execution it was to start, and the next Reset revives it.
func TestSULCrashOnResetRevives(t *testing.T) {
	base := runtime.NumGoroutine()
	cmd := adapterScript(t, `
boot=$(cat boot 2>/dev/null || echo 0)
boot=$((boot+1))
echo "$boot" > boot
while read -r line; do
  set -- $line
  case $1 in
    HELLO) echo "HELLO 1 a" ;;
    RESET)
      # Boot 1 dies on its second RESET (the first is New's handshake).
      if [ "$boot" = "1" ] && [ -f resetonce ]; then exit 7; fi
      touch resetonce
      echo "OK" ;;
    QUERY) echo "OUT b$boot" ;;
  esac
done
`)
	restartsBefore := restartsTotal.Value()
	s, err := New(Config{Command: cmd})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); !errors.Is(err, learn.ErrVoided) {
		t.Fatalf("Reset on a dying subprocess: %v, want a voided execution", err)
	}
	if err := s.Reset(); err != nil {
		t.Fatalf("Reset after a crash: %v", err)
	}
	if s.Restarts() != 1 {
		t.Errorf("Restarts() = %d, want 1", s.Restarts())
	}
	if got := restartsTotal.Value() - restartsBefore; got < 1 {
		t.Errorf("prognosis_adapter_restarts_total moved by %d, want >= 1", got)
	}
	if out, err := s.Step("a"); err != nil || out != "b2" {
		t.Fatalf("Step after revive = %q, %v; want b2", out, err)
	}
	s.Close()
	testutil.WaitForGoroutines(t, base)
}

func TestSULStartFailures(t *testing.T) {
	base := runtime.NumGoroutine()
	cases := []struct {
		name string
		cmd  string
		want string
	}{
		{"empty command", "   ", "empty adapter command"},
		{"missing binary", "/nonexistent/adapter-binary", "spawning adapter"},
		{"wrong version", adapterScript(t, `
while read -r line; do
  set -- $line
  case $1 in
    HELLO) echo "HELLO 2 a" ;;
    *) echo "OK" ;;
  esac
done
`), "version"},
		{"no alphabet", adapterScript(t, `
while read -r line; do
  echo "HELLO 1"
done
`), "alphabet"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(Config{Command: c.cmd, QueryTimeout: 2 * time.Second})
			if err == nil {
				s.Close()
				t.Fatal("New succeeded against a broken adapter")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %v does not mention %q", err, c.want)
			}
		})
	}
	testutil.WaitForGoroutines(t, base)
}
