package learn

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unicode/utf8"

	"repro/internal/automata"
	"repro/internal/testutil"
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

// raceEnabled is set by race_test.go: the race detector allocates on its
// own, so allocation pins hold for plain builds only.
var raceEnabled bool

// TestStoreTornWriteAtEveryOffset cuts a store log at every byte. Its
// entries mix lines the hand decoder reads with lines only encoding/json
// reads (escapes, HTML characters, non-ASCII). OpenStore must keep exactly
// the complete entries before the cut, with their answers, and a fresh
// append must read back after a reopen.
func TestStoreTornWriteAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	words := [][]string{
		{"SYN", "ACK"},
		{`a"quoted"`, `back\slash`},
		{"INITIAL(?,?)[CRYPTO]", "SHORT(?,?)[ACK,STREAM]", "FIN"},
		{"<html>&"},
		{"é", "RST"},
		{"tab\there", "{}"},
		{"HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]"},
	}
	outs := make([][]string, len(words))
	st, err := OpenStore(dir, "full")
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		for j := range w {
			outs[i] = append(outs[i], w[len(w)-1-j]+"/out")
		}
		if err := st.Append(w, outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "full.log"))
	if err != nil {
		t.Fatal(err)
	}
	// Both decoder paths must be exercised: true is the hand decoder.
	paths := map[bool]int{}
	for _, line := range bytes.SplitAfter(data, []byte("\n"))[1:] {
		if len(line) > 0 {
			d := entryDecoder{syms: map[string]string{}}
			_, fast := d.fast(line)
			paths[fast]++
		}
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Fatalf("%d entries hand-decoded and %d not; want both paths", paths[true], paths[false])
	}
	cutPath := filepath.Join(dir, "cut.log")
	testutil.TornWrites(t, data, len(words), cutPath, func(cut, records int) {
		st, err := OpenStore(dir, "cut")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := st.Entries(); got != records {
			t.Fatalf("cut %d: %d entries, want the %d complete ones", cut, got, records)
		}
		for i, w := range words {
			out, ok := st.Answer(w)
			if ok != (i < records) || (ok && !slices.Equal(out, outs[i])) {
				t.Fatalf("cut %d: Answer(%q) = %q, %v; want %q, %v", cut, w, out, ok, outs[i], i < records)
			}
		}
		fresh := []string{"fresh", fmt.Sprint(cut)}
		if err := st.Append(fresh, []string{"z", "z"}); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = OpenStore(dir, "cut")
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		out, ok := st.Answer(fresh)
		if got := st.Entries(); got != records+1 || !ok || !slices.Equal(out, []string{"z", "z"}) {
			t.Fatalf("cut %d: after an append, %d entries and Answer = %q, %v; want %d and [z z]", cut, got, out, ok, records+1)
		}
		st.Close()
	})
}

// TestStoreLoadAllocs pins the warm open: replaying a log of QUIC-style
// words costs a few allocations per entry (one array for the entry's
// symbols plus amortised growth), not a reflective decode's dozens.
func TestStoreLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	inputs := []string{
		"INITIAL(?,?)[CRYPTO]", "INITIAL(?,?)[ACK,HANDSHAKE_DONE]",
		"HANDSHAKE(?,?)[ACK,CRYPTO]", "HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]",
		"SHORT(?,?)[ACK,MAX_DATA,MAX_STREAM_DATA]", "SHORT(?,?)[ACK,STREAM]",
		"SHORT(?,?)[ACK,HANDSHAKE_DONE]",
	}
	outputs := []string{
		"{}", "{INITIAL(?,?)[ACK,CRYPTO],HANDSHAKE(?,?)[CRYPTO],HANDSHAKE(?,?)[CRYPTO]}",
		"{SHORT(?,?)[ACK]}", "{SHORT(?,?)[ACK,STREAM]}", "{SHORT(?,?)[HANDSHAKE_DONE]}",
	}
	const entries = 1000
	dir := t.TempDir()
	st, err := OpenStore(dir, "allocs")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < entries; i++ {
		word, out := make([]string, 8), make([]string, 8)
		for j := range word {
			word[j], out[j] = inputs[rng.Intn(len(inputs))], outputs[rng.Intn(len(outputs))]
		}
		if err := st.Append(word, out); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	loaded := 0
	avg := testing.AllocsPerRun(5, func() {
		st, err := OpenStore(dir, "allocs")
		if err != nil {
			t.Fatal(err)
		}
		loaded = st.Entries()
		st.Close()
	})
	if loaded != entries {
		t.Fatalf("loaded %d entries, want %d", loaded, entries)
	}
	per := avg / entries
	t.Logf("%.2f allocations per entry", per)
	if per > 4 {
		t.Fatalf("opening the store allocates %.2f times per entry, want at most 4", per)
	}
}

// FuzzStoreLine is the store decoder's differential fuzz gate, registered
// in CI's fuzz-smoke. A line the hand decoder accepts must decode to the
// same entry through json.Unmarshal, and a word Append writes, whatever
// its symbols, must load back as encoding/json reads it: equal to the
// word itself whenever its symbols are valid UTF-8 (json.Marshal writes
// invalid bytes as U+FFFD).
func FuzzStoreLine(f *testing.F) {
	for _, seed := range []struct{ line, a, b string }{
		{`{"in":["SYN","ACK"],"out":["SYN+ACK","NIL"]}` + "\n", "SYN", "ACK"},
		{`{"in":[],"out":[]}`, "", ""},
		{`{"in":null,"out":null}`, "null", "[]"},
		{`{"out":["b"],"in":["a"]}`, `"quoted"`, `back\slash`},
		{`{"in":["a\"b"],"out":["é"]}`, "<html>&", "é"},
		{`{"in": ["a"], "out": ["b"]}` + "\r\n", "a\r\nb", "\xff\xfe"},
		{`{"in":["a"],"out":["b"],"in":["c"]}`, "\x00", "\x7f"},
		{`{"in":["a","b"],"out":["c"]}`, "SHORT(?,?)[ACK,STREAM]", "{}"},
		{`{"in":["<é>"],"out":["` + "\xff" + `"]}`, " ", "tab\t"},
	} {
		f.Add([]byte(seed.line), seed.a, seed.b)
	}
	f.Fuzz(func(t *testing.T, line []byte, a, b string) {
		d := entryDecoder{syms: map[string]string{}}
		if fast, ok := d.fast(line); ok {
			var slow storeEntry
			if err := json.Unmarshal(line, &slow); err != nil {
				t.Fatalf("hand decoder accepted %q, encoding/json rejects it: %v", line, err)
			}
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("%q: hand decoder read %#v, encoding/json %#v", line, fast, slow)
			}
		}
		word, out := []string{a, b}, []string{b, a, a}
		var want []string
		raw, _ := json.Marshal(out[:len(word)])
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if utf8.ValidString(a) && utf8.ValidString(b) && !slices.Equal(want, out[:len(word)]) {
			t.Fatalf("encoding/json round trip changed %q to %q", out[:len(word)], want)
		}
		dir := t.TempDir()
		st, err := OpenStore(dir, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(word, out); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = OpenStore(dir, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if st.Entries() != 1 {
			t.Fatalf("appended %q, reopen loaded %d entries", word, st.Entries())
		}
		st.mu.Lock()
		got := st.entries[0]
		st.mu.Unlock()
		if !slices.Equal(got.In, []string{want[1], want[0]}) || !slices.Equal(got.Out, want) {
			t.Fatalf("appended %q -> %q, reopen read %q -> %q", word, out[:len(word)], got.In, got.Out)
		}
	})
}

// TestSaveModelSkipsUnchangedSnapshot: saving the model the snapshot
// already holds leaves the file alone, while a changed model still
// replaces it atomically, through a temporary file renamed over it.
func TestSaveModelSkipsUnchangedSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, "snap")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	path := filepath.Join(dir, "snap.model.json")
	stat := func() os.FileInfo {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	m := tcpModel()
	if err := st.SaveModel(m); err != nil {
		t.Fatal(err)
	}
	first := stat()
	if err := st.SaveModel(m); err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(first, stat()) {
		t.Fatal("saving an unchanged model rewrote the snapshot")
	}
	changed := tcpModel()
	changed.SetTransition(changed.Initial(), "FIN", changed.Initial(), "NIL")
	if err := st.SaveModel(changed); err != nil {
		t.Fatal(err)
	}
	if os.SameFile(first, stat()) {
		t.Fatal("a changed model was written in place, not renamed over the snapshot")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temporary snapshot left behind: %v", err)
	}
	got, err := st.LoadModel()
	if err != nil || got == nil {
		t.Fatalf("LoadModel = %v, %v", got, err)
	}
	if eq, ce := got.Equivalent(changed); !eq {
		t.Fatalf("snapshot differs from the changed model on %v", ce)
	}
}
