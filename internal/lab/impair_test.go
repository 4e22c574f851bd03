package lab

import (
	"context"
	"sync"
	"testing"

	"repro/internal/netem"
	"repro/internal/quicsim"
	"repro/internal/reference"
)

// TestCampaignLearnsGoogleUnderLoss is the headline adverse-network
// scenario: a pooled Google-profile learn through a 5%-loss link (both
// directions) must converge to the clean ground-truth model, with the
// guard paying votes only where the link bites.
func TestCampaignLearnsGoogleUnderLoss(t *testing.T) {
	camp := &Campaign{Runs: []RunSpec{{
		Name:   "google@5%loss",
		Target: TargetGoogle,
		Options: []Option{
			WithSeed(13), WithWorkers(4), WithPerfectEquivalence(),
			WithImpairment(netem.Config{LossClient: 0.05, LossServer: 0.05, Seed: 7}),
		},
	}}}
	results, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Result.Nondet != nil {
		t.Fatalf("guard gave up under 5%% loss: %v", res.Result.Nondet)
	}
	truth := quicsim.GroundTruth(quicsim.ProfileGoogle)
	if eq, ce := truth.Equivalent(res.Result.Machine); !eq {
		t.Fatalf("lossy learn diverged from clean ground truth, witness %v", ce)
	}
	if res.Result.Metrics().Faults.DroppedClient+res.Result.Metrics().Faults.DroppedServer == 0 {
		t.Fatal("no datagrams dropped: the link was not impaired")
	}
	if res.Result.Metrics().Guard.RetriedQueries == 0 || res.Result.Metrics().Guard.WastedVotes == 0 {
		t.Fatalf("no guard effort recorded over a 5%%-loss link: %+v", res.Result.Metrics().Guard)
	}
}

// TestImpairedLearnIsReproducible: identical seeds (experiment and fault
// streams) must reproduce the run. With one worker the whole trace is
// deterministic — identical model *and* identical fault counters. With a
// pool, scheduling decides which queries land on which shard, so the
// per-link coin consumption varies; what the per-worker derived streams
// guarantee is that each worker's fault pattern depends only on (seed,
// worker index) — and the learned model stays identical run to run.
func TestImpairedLearnIsReproducible(t *testing.T) {
	run := func(workers int) *Result {
		t.Helper()
		res, err := Run(context.Background(), TargetQuiche,
			WithSeed(13), WithWorkers(workers), WithPerfectEquivalence(),
			WithImpairment(netem.Config{LossServer: 0.02, Seed: 21}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Nondet != nil {
			t.Fatalf("nondet: %v", res.Nondet)
		}
		return res
	}
	a, b := run(1), run(1)
	if eq, _ := a.Machine.Equivalent(b.Machine); !eq {
		t.Fatal("same seeds learned different models")
	}
	am, bm := a.Metrics(), b.Metrics()
	if am.Faults != bm.Faults {
		t.Fatalf("same seeds, different fault patterns: %+v vs %+v", am.Faults, bm.Faults)
	}
	if a.Stats.Queries != b.Stats.Queries || am.Guard != bm.Guard {
		t.Fatalf("same seeds, different costs: %+v/%+v vs %+v/%+v", a.Stats, am.Guard, b.Stats, bm.Guard)
	}
	p, q := run(4), run(4)
	if eq, _ := p.Machine.Equivalent(q.Machine); !eq {
		t.Fatal("pooled runs with the same seeds learned different models")
	}
}

// TestWithLinkMiddleware: the middleware must see every worker's live
// traffic, outside the impairment link, with the right worker indices.
func TestWithLinkMiddleware(t *testing.T) {
	var mu sync.Mutex
	sends := map[int]int{}
	mw := func(worker int, tr reference.Transport) reference.Transport {
		return reference.TransportFunc(func(src string, d []byte) [][]byte {
			mu.Lock()
			sends[worker]++
			mu.Unlock()
			return tr.Send(src, d)
		})
	}
	res, err := Run(context.Background(), TargetQuiche,
		WithSeed(13), WithWorkers(2), WithPerfectEquivalence(), WithLinkMiddleware(mw))
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.NumStates() != 8 {
		t.Fatalf("middleware perturbed learning: %d states", res.Machine.NumStates())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sends) != 2 || sends[0] == 0 || sends[1] == 0 {
		t.Fatalf("middleware missed workers: %v", sends)
	}
}

// TestImpairmentAppliesToTCP: the TCP target's segment path rides the same
// fault-injection interface; a lossy link must show dropped segments while
// the guard still recovers the model.
func TestImpairmentAppliesToTCP(t *testing.T) {
	res, err := Run(context.Background(), TargetTCP,
		WithSeed(13),
		WithImpairment(netem.Config{LossServer: 0.01, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Nondet != nil {
		t.Fatalf("nondet: %v", res.Nondet)
	}
	if res.Machine.NumStates() != 6 {
		t.Fatalf("lossy TCP learn: %d states, want 6", res.Machine.NumStates())
	}
	if res.Metrics().Faults.SentClient == 0 {
		t.Fatal("no segments flowed through the link")
	}
}

// TestImpairmentGridShape: the grid helper crosses levels with the clean
// baseline first and no duplicate clean cells.
func TestImpairmentGridShape(t *testing.T) {
	cells := ImpairmentGrid([]float64{0, 0.01}, []float64{0, 0.02}, nil)
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4 (clean + 3 impaired)", len(cells))
	}
	if !cells[0].Clean() {
		t.Fatalf("cell 0 not clean: %+v", cells[0])
	}
	for _, c := range cells[1:] {
		if c.Clean() {
			t.Fatalf("duplicate clean cell: %+v", c)
		}
	}
	if got := cells[len(cells)-1].Name(); got != "loss=1%,dup=2%,reorder=0%" {
		t.Fatalf("cell name = %q", got)
	}
}

// TestImpairmentMatrixSummarizes runs a two-cell matrix end to end on the
// quiche target and checks the verdict wiring (model comparison, query
// inflation, fault accounting).
func TestImpairmentMatrixSummarizes(t *testing.T) {
	cells := []ImpairmentCell{{}, {Loss: 0.02}}
	m, err := RunImpairmentMatrix(context.Background(), TargetQuiche,
		[]Option{WithSeed(13), WithPerfectEquivalence()}, cells, 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	if m.Baseline.Err != nil || m.Baseline.Result.Machine == nil {
		t.Fatalf("baseline broken: %+v", m.Baseline)
	}
	if len(m.Cells) != 1 {
		t.Fatalf("got %d verdicts, want 1", len(m.Cells))
	}
	v := m.Cells[0]
	if !v.Learned || v.Nondet {
		t.Fatalf("2%% loss should learn: %+v", v)
	}
	if !v.MatchesBaseline {
		t.Fatal("2% loss diverged from the clean baseline")
	}
	if v.QueryInflation <= 1 {
		t.Fatalf("loss cost nothing? inflation %f", v.QueryInflation)
	}
}

// TestSummarizeMatrixValidation covers the error paths.
func TestSummarizeMatrixValidation(t *testing.T) {
	if _, err := SummarizeMatrix([]ImpairmentCell{{}}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := SummarizeMatrix([]ImpairmentCell{{Loss: 0.1}}, []RunResult{{}}); err == nil {
		t.Fatal("missing clean baseline accepted")
	}
}
