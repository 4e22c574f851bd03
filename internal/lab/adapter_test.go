package lab

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/learn"
	"repro/internal/netem"
	"repro/internal/quicsim"
)

var refadapterOnce struct {
	sync.Once
	bin string
	err error
}

// refadapterBin builds cmd/refadapter once per test binary and returns
// its path. The Go build cache makes repeat builds cheap, but sharing
// one artifact keeps the suite snappy.
func refadapterBin(t *testing.T) string {
	t.Helper()
	refadapterOnce.Do(func() {
		dir, err := os.MkdirTemp("", "refadapter")
		if err != nil {
			refadapterOnce.err = err
			return
		}
		bin := filepath.Join(dir, "refadapter")
		out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/refadapter").CombinedOutput()
		if err != nil {
			refadapterOnce.err = fmt.Errorf("go build: %v\n%s", err, out)
			os.RemoveAll(dir)
			return
		}
		refadapterOnce.bin = bin
	})
	if refadapterOnce.err != nil {
		t.Fatalf("building refadapter: %v", refadapterOnce.err)
	}
	return refadapterOnce.bin
}

// requireSameAsGoogle holds an adapter-learned model to the in-process
// google target: its JSON must equal, byte for byte, the model an
// in-process google learn produces with the same options, and it must
// not drift from the checked-in google golden. The golden is compared
// behaviourally because the learner may reach it along another path and
// number its states differently.
func requireSameAsGoogle(t *testing.T, res *Result, opts ...Option) {
	t.Helper()
	got, err := res.Model().JSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := learnT(t, TargetGoogle, opts...).Model().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("adapter-learned model differs from the in-process google learn (%d vs %d bytes)",
			len(got), len(want))
	}
	golden, err := analysis.LoadModel(filepath.Join("..", "analysis", "testdata", "google.json"))
	if err != nil {
		t.Fatal(err)
	}
	drift, err := analysis.CompareGolden(res.Model(), golden, 1)
	if err != nil {
		t.Fatal(err)
	}
	if drift != nil {
		t.Fatalf("adapter-learned model drifted from the google golden:\n%s", drift)
	}
}

// TestAdapterLearnsGoogleByteIdentical is the adapter boundary's acceptance test:
// learning the refadapter subprocess over the stdio protocol must
// produce a model byte-identical to an in-process google learn with the
// same options, and equivalent to the checked-in golden — the adapter
// boundary adds no behaviour.
func TestAdapterLearnsGoogleByteIdentical(t *testing.T) {
	opts := []Option{WithSeed(13), WithConformance(2)}
	res := learnT(t, TargetAdapter, append(opts, WithAdapterCommand(refadapterBin(t)))...)
	if res.Nondet != nil {
		t.Fatalf("nondeterminism over the adapter protocol: %v", res.Nondet)
	}
	requireSameAsGoogle(t, res, opts...)
}

// TestAdapterCrashMidLearnRecovers: a subprocess that exits every 200
// queries voids the execution it cuts short, which the §5 guard casts
// again on a fresh subprocess. The run surfaces typed AdapterRestarted
// events and still converges to the model a crash-free in-process learn
// produces — the crash-recovery path may cost time, never correctness.
func TestAdapterCrashMidLearnRecovers(t *testing.T) {
	var restarts atomic.Int64
	res := learnT(t, TargetAdapter,
		WithSeed(13), WithConformance(2),
		WithAdapterCommand(refadapterBin(t)+" -crash-after 200"),
		WithObserver(learn.ObserverFunc(func(e learn.Event) {
			if r, ok := e.(learn.AdapterRestarted); ok {
				restarts.Add(1)
				if r.Reason == "" {
					t.Error("AdapterRestarted event with empty reason")
				}
			}
		})))
	if res.Nondet != nil {
		t.Fatalf("nondeterminism across crashes: %v", res.Nondet)
	}
	if restarts.Load() == 0 {
		t.Fatal("the adapter never crashed: -crash-after did not bite, the test is vacuous")
	}
	requireSameAsGoogle(t, res, WithSeed(13), WithConformance(2))
}

// TestAdapterCrashUnderGuardDoesNotPoisonCache drives the full adverse
// stack at once — lossy impaired link, §5 voting guard, a crashing
// subprocess, and a persistent store — and then relearns warm from the
// same store: a crash landing mid-guard-vote must never leave a
// poisoned answer behind, so both the cold and the warm model must
// match the clean ground truth.
func TestAdapterCrashUnderGuardDoesNotPoisonCache(t *testing.T) {
	truth := quicsim.GroundTruth(quicsim.ProfileGoogle)
	dir := t.TempDir()
	opts := []Option{
		WithSeed(13), WithWorkers(4),
		WithAdapterCommand(refadapterBin(t) + " -crash-after 200"),
		WithImpairment(netem.Config{LossClient: 0.02, LossServer: 0.02, Seed: 7}),
		WithEquivalence(&learn.ModelOracle{Model: truth}),
		WithStore(dir),
	}
	var restarts atomic.Int64
	cold := learnT(t, TargetAdapter, append(opts,
		WithObserver(learn.ObserverFunc(func(e learn.Event) {
			if _, ok := e.(learn.AdapterRestarted); ok {
				restarts.Add(1)
			}
		})))...)
	if cold.Nondet != nil {
		t.Fatalf("guard gave up: %v", cold.Nondet)
	}
	if restarts.Load() == 0 {
		t.Fatal("no crashes under guard: the test is vacuous")
	}
	if eq, ce := truth.Equivalent(cold.Machine); !eq {
		t.Fatalf("cold crash-and-loss learn diverged from ground truth, witness %v", ce)
	}
	// Warm relearn from the store the crashes wrote through: any answer
	// poisoned by a mid-vote crash would resurface here.
	warm := learnT(t, TargetAdapter, opts...)
	if warm.Nondet != nil {
		t.Fatalf("warm relearn flagged nondeterminism: %v", warm.Nondet)
	}
	if eq, ce := truth.Equivalent(warm.Machine); !eq {
		t.Fatalf("warm relearn from the crash-written store diverged, witness %v", ce)
	}
}

// TestAdapterCrashDuringWarmupBuilds: a subprocess that dies in a warmup
// word over an impaired link does not fail the experiment: the word counts
// as driven, and the next reset starts a fresh subprocess.
func TestAdapterCrashDuringWarmupBuilds(t *testing.T) {
	var restarts atomic.Int64
	exp, err := NewExperiment(TargetAdapter,
		WithSeed(13), WithWarmup(3),
		WithAdapterCommand(refadapterBin(t)+" -crash-after 15"),
		WithImpairment(netem.Config{LossClient: 0.02, LossServer: 0.02, Seed: 7}),
		WithObserver(learn.ObserverFunc(func(e learn.Event) {
			if _, ok := e.(learn.AdapterRestarted); ok {
				restarts.Add(1)
			}
		})))
	if err != nil {
		t.Fatalf("a crash during warmup failed the experiment: %v", err)
	}
	defer exp.Close()
	if restarts.Load() == 0 {
		t.Fatal("the adapter never crashed during warmup: the test is vacuous")
	}
	if _, err := exp.Oracle().Query(bg, []string{quicsim.SymInitialCrypto}); err != nil {
		t.Fatalf("query after a warmup crash: %v", err)
	}
}
