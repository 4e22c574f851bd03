package learn

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/automata"
)

// learnWithStore runs one DT learn of truth through a counting, cached,
// store-attached oracle and returns the learned model plus the live query
// count. warm is the hypothesis to warm-start from (nil = cold). seal
// completes the log for the next warm start, as lab.Experiment.Learn does
// after success.
func learnWithStore(t *testing.T, truth *automata.Mealy, dir, key string, warm *automata.Mealy) (*automata.Mealy, int64) {
	t.Helper()
	st, err := OpenStore(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var stats Stats
	cached := NewCache(Counting(MealyOracle(truth), &stats), &stats)
	cached.UseStore(st)
	d := NewDTLearner(cached, truth.Inputs())
	d.Warm = warm
	model, err := d.Learn(bg, &ModelOracle{Model: truth})
	if err != nil {
		t.Fatal(err)
	}
	if err := cached.SealWarm(bg, model, truth.Inputs(), false); err != nil {
		t.Fatalf("seal: %v", err)
	}
	if err := st.SaveModel(model.Minimize()); err != nil {
		t.Fatal(err)
	}
	return model, atomic.LoadInt64(&stats.Queries)
}

// TestStoreWarmRelearnZeroLiveQueries is the round-trip contract: a cold
// learn populates the store; reopening it and relearning the unchanged
// target warm issues zero live membership queries and reproduces the model
// byte for byte (canonical form), because the perfect equivalence oracle
// adds no live traffic and everything the warm rebuild asks was sealed.
func TestStoreWarmRelearnZeroLiveQueries(t *testing.T) {
	truth := tcpModel()
	dir := t.TempDir()
	cold, coldQ, warmModel := func() (*automata.Mealy, int64, *automata.Mealy) {
		m, q := learnWithStore(t, truth, dir, "tcp", nil)
		st, err := OpenStore(dir, "tcp")
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		w, err := st.LoadModel()
		if err != nil || w == nil {
			t.Fatalf("no model snapshot after cold learn: %v", err)
		}
		return m, q, w
	}()
	if coldQ == 0 {
		t.Fatal("cold learn issued no live queries")
	}
	relearned, warmQ := learnWithStore(t, truth, dir, "tcp", warmModel)
	if warmQ != 0 {
		t.Fatalf("warm relearn of an unchanged target issued %d live queries, want 0", warmQ)
	}
	if eq, ce := cold.Equivalent(relearned); !eq {
		t.Fatalf("warm relearn diverged on %v", ce)
	}
	a, _ := json.Marshal(cold.Minimize())
	b, _ := json.Marshal(relearned.Minimize())
	if string(a) != string(b) {
		t.Fatalf("warm relearn not byte-identical:\n%s\n%s", a, b)
	}
}

// TestStoreWarmRelearnChangedTarget: warm state from one machine must not
// leak into the model of a changed one — the learner resumes from the old
// structure but every divergent answer is re-derived live.
func TestStoreWarmRelearnChangedTarget(t *testing.T) {
	truth := tcpModel()
	dir := t.TempDir()
	learnWithStore(t, truth, dir, "tcp", nil)

	// The "new version": one output changed deep in the machine.
	changed := truth.Clone()
	s, ok := changed.StateAfter([]string{"SYN", "ACK"})
	if !ok {
		t.Fatal("bad test machine")
	}
	to, _, _ := changed.Step(s, "FIN")
	changed.SetTransition(s, "FIN", to, "FIN+ACK")

	st, err := OpenStore(dir, "tcp")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	warm, err := st.LoadModel()
	if err != nil || warm == nil {
		t.Fatal("missing snapshot")
	}
	var stats Stats
	cached := NewCache(Counting(MealyOracle(changed), &stats), &stats)
	cached.UseStore(st)
	// The stale log disagrees with the changed target exactly on the
	// changed cell: the cache answers it, from the log, with the old
	// output.
	cell := []string{"SYN", "ACK", "FIN"}
	want, _ := changed.Run(cell)
	if out, err := cached.Query(bg, cell); err != nil || stats.Queries != 0 || slices.Equal(out, want) {
		t.Fatalf("stale log does not hold the changed cell (out %v, live queries %d, err %v); test is vacuous",
			out, stats.Queries, err)
	}
	// Relearning must repair it through the live oracle: without the
	// cache-repair policy the stale answer would loop the MAT rounds
	// forever.
	model, err := cached.LearnRepairing(bg, &ModelOracle{Model: changed}, func(eq EquivalenceOracle) (*automata.Mealy, error) {
		d := NewDTLearner(cached, changed.Inputs())
		d.Warm = warm
		return d.Learn(bg, eq)
	})
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := changed.Equivalent(model); !eq {
		t.Fatalf("stale warm state leaked into the relearned model (diverges on %v)", ce)
	}
	if out, err := cached.Query(bg, cell); err != nil || !slices.Equal(out, want) {
		t.Fatalf("changed cell still answers %v after the relearn, want %v (err %v)", out, want, err)
	}
}

// TestStoreRecoversTruncatedAndCorruptedLog: a crash mid-append (partial
// final line) or plain corruption must cost only the bad tail — every
// complete entry before it survives and new appends continue cleanly.
func TestStoreRecoversTruncatedAndCorruptedLog(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		mangle
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-7] }},
		{"garbage-tail", func(b []byte) []byte { return append(b, []byte("{\"in\": [\"SY")...) }},
		{"binary-junk", func(b []byte) []byte { return append(b, 0xFF, 0x00, 0x17) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := "log-" + tc.name
			st, err := OpenStore(dir, key)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				word := []string{"a", fmt.Sprint(i)}
				if err := st.Append(word, []string{"x", "y"}); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, key+".log")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err = OpenStore(dir, key)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer st.Close()
			want := 10
			if tc.name == "truncated" {
				want = 9 // the mangled final line is discarded
			}
			if got := st.Entries(); got != want {
				t.Fatalf("%d entries survived, want %d", got, want)
			}
			// The store must keep working after recovery, and a clean
			// reopen must see the repaired log plus the new entry.
			if err := st.Append([]string{"fresh"}, []string{"z"}); err != nil {
				t.Fatal(err)
			}
			st.Close()
			st, err = OpenStore(dir, key)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if got := st.Entries(); got != want+1 {
				t.Fatalf("%d entries after repair+append, want %d", got, want+1)
			}
		})
	}
}

type mangle func([]byte) []byte

// TestStoreDiscardsUnterminatedFinalLine: a final line that parses but
// lacks its trailing newline is a crashed append — accepting it would
// make the next append glue two records onto one line, losing both (and
// everything after) on the load after that.
func TestStoreDiscardsUnterminatedFinalLine(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, "unterm")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Append([]string{"a", fmt.Sprint(i)}, []string{"x", "y"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "unterm.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Strip only the final newline: the last record still parses as JSON.
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = OpenStore(dir, "unterm")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Entries(); got != 4 {
		t.Fatalf("%d entries survived, want 4 (unterminated final record discarded)", got)
	}
	// Appending after recovery must yield a log whose next load sees
	// exactly the surviving entries plus the new one — no glued lines.
	if err := st.Append([]string{"fresh"}, []string{"z"}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st, err = OpenStore(dir, "unterm")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Entries(); got != 5 {
		t.Fatalf("%d entries after repair+append, want 5", got)
	}
}

// TestOpenStoreSharesInstance: two opens of the same key in one process
// must share one refcounted Store — separate handles would append at
// overlapping offsets and truncate each other's live writes on load.
func TestOpenStoreSharesInstance(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenStore(dir, "shared")
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenStore(dir, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same key opened twice produced two instances")
	}
	if err := a.Append([]string{"w"}, []string{"o"}); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil { // b still holds the store open
		t.Fatal(err)
	}
	if err := b.Append([]string{"w2"}, []string{"o2"}); err != nil {
		t.Fatalf("append after sibling close: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir, "shared")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st == a {
		t.Fatal("fully closed store was not evicted from the registry")
	}
	if got := st.Entries(); got != 2 {
		t.Fatalf("reloaded %d entries, want 2", got)
	}
}

// TestStoreRejectsForeignHeader: a file that is not a v<=current query log
// is discarded rather than misread.
func TestStoreRejectsForeignHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k.log")
	future := fmt.Sprintf("{\"format\":%q,\"version\":%d}\n{\"in\":[\"a\"],\"out\":[\"x\"]}\n",
		storeFormat, storeVersion+1)
	if err := os.WriteFile(path, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Entries() != 0 {
		t.Fatalf("entries from a future-version log were read: %d", st.Entries())
	}
}

// TestStoreConcurrentAppend exercises the append path from many goroutines
// under -race: every line must land complete, and a reload must see every
// entry.
func TestStoreConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, "conc")
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				word := []string{fmt.Sprintf("w%d", w), fmt.Sprint(i)}
				if err := st.Append(word, []string{"o1", "o2"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenStore(dir, "conc")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Entries(); got != writers*perWriter {
		t.Fatalf("reloaded %d entries, want %d", got, writers*perWriter)
	}
}

// TestStoreConcurrentQueriesPersist drives a store-attached cache from
// concurrent batch queries (the pooled-learner shape) under -race and
// checks the persisted log answers a fresh cache.
func TestStoreConcurrentQueriesPersist(t *testing.T) {
	truth := tcpModel()
	dir := t.TempDir()
	st, err := OpenStore(dir, "pool")
	if err != nil {
		t.Fatal(err)
	}
	cached := NewCache(MealyOracle(truth), nil)
	cached.UseStore(st)
	rng := rand.New(rand.NewSource(11))
	var words [][]string
	for i := 0; i < 120; i++ {
		w := make([]string, 1+rng.Intn(6))
		for j := range w {
			w[j] = truth.Inputs()[rng.Intn(len(truth.Inputs()))]
		}
		words = append(words, w)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := cached.QueryBatch(bg, words[g*20:(g+1)*20]); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = OpenStore(dir, "pool")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var live Stats
	fresh := NewCache(Counting(MealyOracle(truth), &live), nil)
	fresh.UseStore(st)
	for _, w := range words {
		out, err := fresh.Query(bg, w)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := truth.Run(w)
		if strings.Join(out, ",") != strings.Join(want, ",") {
			t.Fatalf("reloaded answer for %v = %v, want %v", w, out, want)
		}
	}
	if atomic.LoadInt64(&live.Queries) != 0 {
		t.Fatalf("%d live queries against a fully persisted word set", live.Queries)
	}
}

// lossyLink wraps an oracle in a seeded lossy link at the answer level:
// with probability loss per query, the final response symbol is replaced
// by the empty flight "{}" — the observable shape of the link eating the
// response datagram. Deterministic in the seed, like netem's fault
// streams.
type lossyLink struct {
	mu    sync.Mutex
	inner Oracle
	rng   *rand.Rand
	loss  float64
}

func newLossyLink(inner Oracle, loss float64, seed int64) *lossyLink {
	return &lossyLink{inner: inner, rng: rand.New(rand.NewSource(seed)), loss: loss}
}

func (l *lossyLink) Query(ctx context.Context, word []string) ([]string, error) {
	out, err := l.inner.Query(ctx, word)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	drop := l.rng.Float64() < l.loss
	l.mu.Unlock()
	if drop && len(out) > 0 {
		out = append([]string(nil), out...)
		out[len(out)-1] = "{}"
	}
	return out, nil
}

// TestStorePoisonedVoteDoesNotSurviveRepair is the regression test for the
// persistent half of the cache-poison repair: an answer corrupted by a
// seeded lossy link that made it past the guard is written to the store;
// Refresh must overwrite it both in the cache and in the log, and Clear
// must reset the log — otherwise the poison is resurrected by the next
// warm run's preload.
func TestStorePoisonedVoteDoesNotSurviveRepair(t *testing.T) {
	truth := tcpModel()
	word := []string{"SYN", "ACK", "FIN"}
	clean, _ := truth.Run(word)
	dir := t.TempDir()

	// A 100%-loss first query deterministically poisons the word's cached
	// and persisted answer; the link then goes clean (seeded stream: the
	// first draw decides).
	st, err := OpenStore(dir, "poison")
	if err != nil {
		t.Fatal(err)
	}
	link := newLossyLink(MealyOracle(truth), 1, 42)
	cached := NewCache(link, nil)
	cached.UseStore(st)
	poisoned, err := cached.Query(bg, word)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(poisoned, ",") == strings.Join(clean, ",") {
		t.Fatal("link did not poison the answer; test is vacuous")
	}
	link.loss = 0 // the link recovers; future votes are clean

	// Without repair, the poison would now be permanent in cache and log.
	// Refresh re-votes live and must fix both.
	if _, err := cached.Refresh(bg, word); err != nil {
		t.Fatal(err)
	}
	if out, ok := cached.cache.lookup(word); !ok || strings.Join(out, ",") != strings.Join(clean, ",") {
		t.Fatalf("cache after Refresh = %v, want %v", out, clean)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The next warm run preloads the log: the repaired answer must win.
	st, err = OpenStore(dir, "poison")
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewCache(MealyOracle(truth), nil)
	fresh.UseStore(st)
	if out, ok := fresh.cache.lookup(word); !ok || strings.Join(out, ",") != strings.Join(clean, ",") {
		t.Fatalf("poisoned vote survived into the warm run: %v (want %v)", out, clean)
	}

	// Clear is the repair of last resort: it must take the log with it.
	fresh.Clear()
	if got := st.Entries(); got != 0 {
		t.Fatalf("store kept %d entries across Clear", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenStore(dir, "poison")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Entries(); got != 0 {
		t.Fatalf("cleared log resurrected %d entries on reload", got)
	}
}

// TestWarmLearnersMatchColdModels: warm-started learners (both kinds) must
// learn the exact target model, whether the warm hypothesis is the target
// itself, an unrelated machine over the same alphabet, or over a different
// alphabet (ignored).
func TestWarmLearnersMatchColdModels(t *testing.T) {
	truth := tcpModel()
	other := automata.NewMealy(truth.Inputs())
	other.SetTransition(other.Initial(), "SYN", other.Initial(), "WAT")
	other.SetTransition(other.Initial(), "ACK", other.Initial(), "WAT")
	other.SetTransition(other.Initial(), "FIN", other.Initial(), "WAT")
	foreign := automata.NewMealy([]string{"X"})
	foreign.SetTransition(foreign.Initial(), "X", foreign.Initial(), "Y")
	for _, warm := range []*automata.Mealy{nil, truth, other, foreign} {
		for _, kind := range []string{"lstar", "ttt"} {
			var model *automata.Mealy
			var err error
			if kind == "lstar" {
				l := NewLStar(MealyOracle(truth), truth.Inputs())
				l.Warm = warm
				model, err = l.Learn(bg, &ModelOracle{Model: truth})
			} else {
				d := NewDTLearner(MealyOracle(truth), truth.Inputs())
				d.Warm = warm
				model, err = d.Learn(bg, &ModelOracle{Model: truth})
			}
			if err != nil {
				t.Fatalf("%s warm=%v: %v", kind, warm != nil, err)
			}
			if eq, ce := truth.Equivalent(model); !eq {
				t.Fatalf("%s: warm-started learn diverged on %v", kind, ce)
			}
		}
	}
}
