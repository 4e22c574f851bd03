package learn

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/automata"
)

// bg is the default context for tests that never cancel.
var bg = context.Background()

// tcpModel is the 6-state-style fragment used as ground truth in tests.
func tcpModel() *automata.Mealy {
	m := automata.NewMealy([]string{"SYN", "ACK", "FIN"})
	s0 := m.Initial()
	s1 := m.AddState()
	s2 := m.AddState()
	s3 := m.AddState()
	m.SetTransition(s0, "SYN", s1, "SYN+ACK")
	m.SetTransition(s0, "ACK", s0, "RST")
	m.SetTransition(s0, "FIN", s0, "RST")
	m.SetTransition(s1, "SYN", s1, "NIL")
	m.SetTransition(s1, "ACK", s2, "NIL")
	m.SetTransition(s1, "FIN", s0, "RST")
	m.SetTransition(s2, "SYN", s2, "ACK")
	m.SetTransition(s2, "ACK", s2, "NIL")
	m.SetTransition(s2, "FIN", s3, "ACK+FIN")
	m.SetTransition(s3, "SYN", s3, "NIL")
	m.SetTransition(s3, "ACK", s3, "NIL")
	m.SetTransition(s3, "FIN", s3, "NIL")
	return m
}

type learner interface {
	Learn(context.Context, EquivalenceOracle) (*automata.Mealy, error)
}

func learners(o Oracle, inputs []string) map[string]learner {
	return map[string]learner{
		"lstar": NewLStar(o, inputs),
		"dtree": NewDTLearner(o, inputs),
	}
}

func TestLearnersRecoverTCPModel(t *testing.T) {
	truth := tcpModel()
	for name, l := range learners(MealyOracle(truth), truth.Inputs()) {
		t.Run(name, func(t *testing.T) {
			hyp, err := l.Learn(bg, &ModelOracle{Model: truth})
			if err != nil {
				t.Fatal(err)
			}
			if hyp.NumStates() != truth.NumStates() {
				t.Fatalf("learned %d states, want %d", hyp.NumStates(), truth.NumStates())
			}
			if eq, ce := truth.Equivalent(hyp); !eq {
				t.Fatalf("learned model differs on %v", ce)
			}
		})
	}
}

func TestLearnersWithRandomEquivalence(t *testing.T) {
	truth := tcpModel()
	for name, mk := range map[string]func(Oracle) learner{
		"lstar": func(o Oracle) learner { return NewLStar(o, truth.Inputs()) },
		"dtree": func(o Oracle) learner { return NewDTLearner(o, truth.Inputs()) },
	} {
		t.Run(name, func(t *testing.T) {
			o := MealyOracle(truth)
			hyp, err := mk(o).Learn(bg, NewRandomWordsOracle(o, truth.Inputs(), 7))
			if err != nil {
				t.Fatal(err)
			}
			if eq, ce := truth.Equivalent(hyp); !eq {
				t.Fatalf("learned model differs on %v", ce)
			}
		})
	}
}

func TestLearnersWithWpMethod(t *testing.T) {
	truth := tcpModel()
	o := MealyOracle(truth)
	eqo := &WpMethodOracle{Oracle: o, Inputs: truth.Inputs(), Depth: 2}
	for name, l := range learners(o, truth.Inputs()) {
		t.Run(name, func(t *testing.T) {
			hyp, err := l.Learn(bg, eqo)
			if err != nil {
				t.Fatal(err)
			}
			if eq, ce := truth.Equivalent(hyp); !eq {
				t.Fatalf("learned model differs on %v", ce)
			}
		})
	}
}

func randomTotalMealy(r *rand.Rand, states int, inputs, outputs []string) *automata.Mealy {
	m := automata.NewMealy(inputs)
	for m.NumStates() < states {
		m.AddState()
	}
	for s := 0; s < states; s++ {
		for _, in := range inputs {
			m.SetTransition(automata.State(s), in, automata.State(r.Intn(states)), outputs[r.Intn(len(outputs))])
		}
	}
	return m
}

// Property: both learners recover any random machine exactly (up to
// minimality) when driven by a perfect equivalence oracle.
func TestPropertyLearnersExact(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%6) + 2
		truth := randomTotalMealy(r, n, []string{"a", "b"}, []string{"0", "1"}).Minimize()
		for _, mk := range []func(Oracle) learner{
			func(o Oracle) learner { return NewLStar(o, truth.Inputs()) },
			func(o Oracle) learner { return NewDTLearner(o, truth.Inputs()) },
		} {
			hyp, err := mk(MealyOracle(truth)).Learn(bg, &ModelOracle{Model: truth})
			if err != nil {
				return false
			}
			if hyp.NumStates() != truth.NumStates() {
				return false
			}
			if eq, _ := truth.Equivalent(hyp); !eq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheAvoidsRepeatQueries(t *testing.T) {
	truth := tcpModel()
	var st Stats
	counted := Counting(MealyOracle(truth), &st)
	cached := NewCache(counted, &st)

	w := []string{"SYN", "ACK", "FIN"}
	first, err := cached.Query(bg, w)
	if err != nil {
		t.Fatal(err)
	}
	live := st.Queries
	second, err := cached.Query(bg, w)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != live {
		t.Fatalf("second identical query hit the oracle (%d -> %d)", live, st.Queries)
	}
	if st.Hits != 1 {
		t.Fatalf("hits = %d, want 1", st.Hits)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cache returned different answer: %v vs %v", first, second)
	}
	// A prefix of a cached word is also served from cache.
	if _, err := cached.Query(bg, w[:2]); err != nil {
		t.Fatal(err)
	}
	if st.Queries != live {
		t.Fatal("prefix query hit the oracle")
	}
	if cached.Size() != 3 {
		t.Fatalf("cache size = %d, want 3", cached.Size())
	}
}

func TestCachedLearningReducesLiveQueries(t *testing.T) {
	truth := tcpModel()
	var raw, cachedStats Stats

	_, err := NewLStar(Counting(MealyOracle(truth), &raw), truth.Inputs()).
		Learn(bg, &ModelOracle{Model: truth})
	if err != nil {
		t.Fatal(err)
	}

	cached := NewCache(Counting(MealyOracle(truth), &cachedStats), &cachedStats)
	_, err = NewLStar(cached, truth.Inputs()).Learn(bg, &ModelOracle{Model: truth})
	if err != nil {
		t.Fatal(err)
	}
	if cachedStats.Queries >= raw.Queries {
		t.Fatalf("cache did not reduce live queries: %d (cached) vs %d (raw)", cachedStats.Queries, raw.Queries)
	}
}

func TestShortOutputRejected(t *testing.T) {
	bad := OracleFunc(func(ctx context.Context, word []string) ([]string, error) {
		return []string{"only-one"}, nil
	})
	_, err := query(bg, bad, []string{"a", "b"})
	if err == nil {
		t.Fatal("short output word must be rejected")
	}
}

func TestRandomOracleFindsInjectedDifference(t *testing.T) {
	truth := tcpModel()
	hyp := truth.Clone()
	hyp.SetTransition(2, "FIN", 3, "WRONG")
	eqo := NewRandomWordsOracle(MealyOracle(truth), truth.Inputs(), 3)
	ce, err := eqo.FindCounterexample(bg, hyp)
	if err != nil {
		t.Fatal(err)
	}
	if ce == nil {
		t.Fatal("random oracle missed a reachable difference")
	}
	sys, _ := truth.Run(ce)
	hout, _ := hyp.Run(ce)
	if reflect.DeepEqual(sys, hout) {
		t.Fatalf("returned word %v is not a counterexample", ce)
	}
}

func TestChainOracleOrder(t *testing.T) {
	truth := tcpModel()
	hyp := truth.Clone()
	hyp.SetTransition(0, "SYN", 1, "WRONG")
	calls := 0
	probe := eqFunc(func(h *automata.Mealy) ([]string, error) {
		calls++
		return nil, nil
	})
	model := &ModelOracle{Model: truth}
	ce, err := ChainOracle{probe, model}.FindCounterexample(bg, hyp)
	if err != nil || ce == nil {
		t.Fatalf("chain failed: ce=%v err=%v", ce, err)
	}
	if calls != 1 {
		t.Fatalf("first oracle called %d times, want 1", calls)
	}
}

type eqFunc func(*automata.Mealy) ([]string, error)

func (f eqFunc) FindCounterexample(ctx context.Context, h *automata.Mealy) ([]string, error) {
	return f(h)
}

// Ablation-relevant check: with the query cache in front (the deployment
// configuration), the discrimination-tree learner needs no more live
// queries than L* on the same target.
func TestDTreeNotWorseThanLStarCached(t *testing.T) {
	truth := tcpModel()
	var lsStats, dtStats Stats
	lsOracle := NewCache(Counting(MealyOracle(truth), &lsStats), &lsStats)
	if _, err := NewLStar(lsOracle, truth.Inputs()).
		Learn(bg, &ModelOracle{Model: truth}); err != nil {
		t.Fatal(err)
	}
	dtOracle := NewCache(Counting(MealyOracle(truth), &dtStats), &dtStats)
	if _, err := NewDTLearner(dtOracle, truth.Inputs()).
		Learn(bg, &ModelOracle{Model: truth}); err != nil {
		t.Fatal(err)
	}
	if dtStats.Queries > lsStats.Queries {
		t.Fatalf("cached dtree used more live queries than cached lstar: %d vs %d", dtStats.Queries, lsStats.Queries)
	}
	t.Logf("live queries: lstar=%d dtree=%d", lsStats.Queries, dtStats.Queries)
}
