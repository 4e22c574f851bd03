package analysis

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/learn"
)

// The detection contract: what each equivalence configuration the
// learner uses catches. Every row seeds faults into a golden model and
// asks each configuration, with the golden as the hypothesis and the
// faulty machine as the system, for a counterexample. The counts are
// pinned byte for byte in testdata/detection.txt, so a change that cuts
// equivalence queries cannot cut detection unnoticed.

const (
	// detectionSeed is the regress manifest's seed; the lab seeds its
	// random words with seed+1.
	detectionSeed = 13
	// mutantsPerClass caps each extra-state class; smaller spaces are
	// enumerated in full.
	mutantsPerClass = 400
	// nondetTrials and nondetRate shape the nondeterministic rows: each
	// trial flips one seeded transition's output with this probability
	// per crossing, behind the default §5 guard.
	nondetTrials = 20
	nondetRate   = 0.05
)

var detectionGoldens = []string{"tcp", "quiche", "google"}

// The table's columns: random words and Wp at depth 1 and 2 alone, then
// the lab's chain in either order.
var detectionColumns = [...]string{"rw", "wp1", "wp2", "rw,wp2", "wp2,rw"}

const (
	colRW = iota
	colWp1
	colWp2
	colRWWp
	colWpRW
)

// outcome is how one equivalence check ended.
type outcome int

const (
	passed outcome = iota // no counterexample
	found                 // a counterexample
	halted                // the §5 guard reported nondeterminism
)

func classify(ce []string, err error) outcome {
	if _, nd := core.IsNondeterminism(err); nd {
		return halted
	}
	if ce != nil {
		return found
	}
	return passed
}

// recorded is a chain member that keeps its outcome. A chain always asks
// its first member, so running both chain orders also yields each
// member's standalone outcome; the second member is asked only when the
// first passed.
type recorded struct {
	learn.EquivalenceOracle
	asked bool
	out   outcome
}

func (r *recorded) FindCounterexample(ctx context.Context, hyp *automata.Mealy) ([]string, error) {
	ce, err := r.EquivalenceOracle.FindCounterexample(ctx, hyp)
	r.asked, r.out = true, classify(ce, err)
	return ce, err
}

// check runs every column against g as the hypothesis, with a fresh
// system from newSys for each of its three checks: Wp d=1 alone and the
// chain in each order. The members are built as lab.Experiment builds
// them (300 random words of length 3..12 seeded with seed+1; Wp at
// depth 2) and share one system per chain, as they share the lab's
// cache. A deterministic system must give each member the same outcome
// in either chain position.
func check(t *testing.T, g *automata.Mealy, newSys func() learn.Oracle, deterministic bool) [len(detectionColumns)]outcome {
	t.Helper()
	ins := g.Inputs()
	rw := func(sys learn.Oracle) *recorded {
		return &recorded{EquivalenceOracle: learn.NewRandomWordsOracle(sys, ins, detectionSeed+1)}
	}
	wp := func(sys learn.Oracle, depth int) *recorded {
		return &recorded{EquivalenceOracle: &learn.WpMethodOracle{Oracle: sys, Inputs: ins, Depth: depth}}
	}
	run := func(eq learn.EquivalenceOracle) outcome {
		ce, err := eq.FindCounterexample(context.Background(), g)
		o := classify(ce, err)
		if err != nil && o != halted {
			t.Fatal(err)
		}
		return o
	}
	// Chain A asks random words first, chain B the Wp suite first.
	sys := newSys()
	rwA, wpA := rw(sys), wp(sys, 2)
	rwFirst := run(learn.ChainOracle{rwA, wpA})
	sys = newSys()
	wpB, rwB := wp(sys, 2), rw(sys)
	wpFirst := run(learn.ChainOracle{wpB, rwB})
	if deterministic && ((wpA.asked && wpA.out != wpB.out) || (rwB.asked && rwB.out != rwA.out)) {
		t.Fatalf("a chain member's outcome depends on its position: rw %v then %v, wp2 %v then %v",
			rwA.out, rwB.out, wpB.out, wpA.out)
	}
	return [len(detectionColumns)]outcome{
		colRW:   rwA.out,
		colWp1:  run(wp(newSys(), 1)),
		colWp2:  wpB.out,
		colRWWp: rwFirst,
		colWpRW: wpFirst,
	}
}

// mutator seeds faults into a golden machine g (minimal, every state
// reachable).
type mutator struct {
	g       *automata.Mealy
	outputs []string // g's output alphabet, sorted
}

func newMutator(g *automata.Mealy) *mutator {
	seen := map[string]bool{}
	for s := automata.State(0); int(s) < g.NumStates(); s++ {
		for _, in := range g.Inputs() {
			if _, out, ok := g.Step(s, in); ok {
				seen[out] = true
			}
		}
	}
	mu := &mutator{g: g}
	for out := range seen {
		mu.outputs = append(mu.outputs, out)
	}
	sort.Strings(mu.outputs)
	return mu
}

// flip returns the next output after out in the sorted output alphabet.
func (mu *mutator) flip(out string) string {
	i := sort.SearchStrings(mu.outputs, out)
	return mu.outputs[(i+1)%len(mu.outputs)]
}

// mutate clones g, redirects transition (s, path[0]) into a chain of
// len(path)-1 fresh copies of the states it passes through, following
// path[1:len(path)-1], and flips the output of the last copy on the last
// input. A one-symbol path is a plain output flip of (s, path[0]); a
// two-symbol path (i, j) adds one state x that behaves like δ(s,i)
// except on j. Every mutant differs from g on access(s)·path.
func (mu *mutator) mutate(s automata.State, path []string) *automata.Mealy {
	m := mu.g.Clone()
	from, orig := s, s
	for _, in := range path[:len(path)-1] {
		to, out, _ := mu.g.Step(orig, in)
		x := m.AddState()
		for _, next := range mu.g.Inputs() {
			t, o, _ := mu.g.Step(to, next)
			m.SetTransition(x, next, t, o)
		}
		m.SetTransition(from, in, x, out)
		from, orig = x, to
	}
	last := path[len(path)-1]
	to, out, _ := mu.g.Step(orig, last)
	m.SetTransition(from, last, to, mu.flip(out))
	return m
}

// mutantClass names a deterministic class and its mutants.
type mutantClass struct {
	name    string
	mutants []*automata.Mealy
}

// classes builds the three deterministic classes: every output flip, and
// the one- and two-extra-state mutants, sampled down to mutantsPerClass
// with a seeded shuffle when the space is larger.
func (mu *mutator) classes() []mutantClass {
	type spec struct {
		s    automata.State
		path []string
	}
	ins := mu.g.Inputs()
	var flips, one, two []spec
	for s := automata.State(0); int(s) < mu.g.NumStates(); s++ {
		for _, i := range ins {
			flips = append(flips, spec{s, []string{i}})
			for _, j := range ins {
				one = append(one, spec{s, []string{i, j}})
				for _, k := range ins {
					two = append(two, spec{s, []string{i, j, k}})
				}
			}
		}
	}
	build := func(specs []spec, sample bool) []*automata.Mealy {
		if sample {
			rng := rand.New(rand.NewSource(detectionSeed))
			rng.Shuffle(len(specs), func(a, b int) { specs[a], specs[b] = specs[b], specs[a] })
			specs = specs[:min(len(specs), mutantsPerClass)]
		}
		out := make([]*automata.Mealy, len(specs))
		for n, sp := range specs {
			out[n] = mu.mutate(sp.s, sp.path)
		}
		return out
	}
	return []mutantClass{
		{"output flip", build(flips, false)},
		{"1 extra state", build(one, true)},
		{"2 extra states", build(two, true)},
	}
}

// flakyTransition answers like g, except that each crossing of
// transition (s, in) flips its output with probability p.
type flakyTransition struct {
	mu  *mutator
	s   automata.State
	in  string
	p   float64
	rng *rand.Rand
}

func (f *flakyTransition) Query(_ context.Context, word []string) ([]string, error) {
	g := f.mu.g
	s := g.Initial()
	out := make([]string, len(word))
	for n, in := range word {
		to, o, ok := g.Step(s, in)
		if !ok {
			return nil, fmt.Errorf("no run for %v", word)
		}
		if s == f.s && in == f.in && f.rng.Float64() < f.p {
			o = f.mu.flip(o)
		}
		out[n], s = o, to
	}
	return out, nil
}

// TestDetectionGolden measures every column on every mutant, checks the
// contract's invariants per mutant, and pins the counts in
// testdata/detection.txt. The invariants: both chain orders detect
// exactly the mutants detected by random words or by Wp d=2; Wp d=1
// catches every output flip; and Wp d=2 catches every one-extra-state
// mutant, the d−1 bound of learn.WpMethodOracle.Suite.
func TestDetectionGolden(t *testing.T) {
	var b strings.Builder
	fmt.Fprintf(&b, "# Equivalence checks against seeded faults: golden as hypothesis, faulty\n")
	fmt.Fprintf(&b, "# golden as system. rw = 300 random words of length 3..12 (seed %d);\n", detectionSeed+1)
	fmt.Fprintf(&b, "# wpN = Wp-method of depth N; rw,wp2 and wp2,rw = the lab's chain in each order.\n")
	fmt.Fprintf(&b, "# p=%.2f rows: %d trials flipping one transition with that probability,\n", nondetRate, nondetTrials)
	fmt.Fprintf(&b, "# behind the default §5 guard; a trial ends in a counterexample or a halt.\n")
	fmt.Fprintf(&b, "%-8s %-16s %7s", "golden", "mutants", "count")
	for _, col := range detectionColumns {
		fmt.Fprintf(&b, " %7s", col)
	}
	b.WriteString("\n")

	// The goldens are measured in parallel; their rows are joined in
	// detectionGoldens order.
	rows := make([]strings.Builder, len(detectionGoldens))
	t.Run("goldens", func(t *testing.T) {
		for i, name := range detectionGoldens {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				measureDetection(t, name, &rows[i])
			})
		}
	})
	for i := range rows {
		b.WriteString(rows[i].String())
	}

	got := b.String()
	want, err := os.ReadFile(filepath.Join("testdata", "detection.txt"))
	if err != nil {
		t.Fatalf("%v\nmeasured:\n%s", err, got)
	}
	if got != string(want) {
		t.Fatalf("detection counts differ from testdata/detection.txt\nmeasured:\n%s", got)
	}
}

// measureDetection writes one golden's rows of the detection table to b
// and checks the contract's invariants on each of its mutants.
func measureDetection(t *testing.T, name string, b *strings.Builder) {
	row := func(class string, n int, counts [len(detectionColumns)]int) {
		fmt.Fprintf(b, "%-8s %-16s %7d", name, class, n)
		for _, c := range counts {
			fmt.Fprintf(b, " %7d", c)
		}
		b.WriteString("\n")
	}
	gm, err := LoadModel(filepath.Join("testdata", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	g := gm.Mealy().Minimize()
	mu := newMutator(g)
	for _, class := range mu.classes() {
		var counts [len(detectionColumns)]int
		for n, m := range class.mutants {
			if eq, _ := g.Equivalent(m); eq {
				t.Fatalf("%s %s #%d: mutant is equivalent to the golden", name, class.name, n)
			}
			out := check(t, g, func() learn.Oracle { return learn.MealyOracle(m) }, true)
			for c, o := range out {
				if o == found {
					counts[c]++
				}
			}
			union := out[colRW] == found || out[colWp2] == found
			if (out[colRWWp] == found) != union || (out[colWpRW] == found) != union {
				t.Errorf("%s %s #%d: rw %v, wp2 %v, but rw,wp2 %v and wp2,rw %v",
					name, class.name, n, out[colRW], out[colWp2], out[colRWWp], out[colWpRW])
			}
			if class.name == "output flip" && out[colWp1] != found {
				t.Errorf("%s output flip #%d escaped Wp d=1", name, n)
			}
			if class.name == "1 extra state" && out[colWp2] != found {
				t.Errorf("%s 1 extra state #%d escaped Wp d=2", name, n)
			}
		}
		row(class.name, len(class.mutants), counts)
	}

	var ce, halt [len(detectionColumns)]int
	ins := g.Inputs()
	for trial := 0; trial < nondetTrials; trial++ {
		pick := rand.New(rand.NewSource(int64(trial)))
		s, in := automata.State(pick.Intn(g.NumStates())), ins[pick.Intn(len(ins))]
		out := check(t, g, func() learn.Oracle {
			sys := &flakyTransition{mu: mu, s: s, in: in, p: nondetRate, rng: rand.New(rand.NewSource(int64(trial)))}
			return core.NewGuardian(core.DefaultGuard(), &core.GuardStats{}, nil).Wrap(sys)
		}, false)
		for c, o := range out {
			switch o {
			case found:
				ce[c]++
			case halted:
				halt[c]++
			}
		}
	}
	row(fmt.Sprintf("p=%.2f ce", nondetRate), nondetTrials, ce)
	row(fmt.Sprintf("p=%.2f halt", nondetRate), nondetTrials, halt)
}
