package analysis

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/learn"
)

// measureSuites renders the conformance suites of every model golden:
// the Wp suite in the order the equivalence search asks it, and the
// W-method suite as a set. Each line carries a word count and an FNV-64a
// hash of the words, one per line with their symbols joined by \x1f.
func measureSuites(t *testing.T) string {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	hash := func(words [][]string) string {
		h := fnv.New64a()
		for _, w := range words {
			h.Write([]byte(strings.Join(w, "\x1f") + "\n"))
		}
		return fmt.Sprintf("%016x", h.Sum64())
	}
	var b strings.Builder
	b.WriteString("# Conformance suites of the model goldens. wpN = the Wp suite of depth N in\n")
	b.WriteString("# order; wN = the W-method suite of depth N as a set (distinct words, sorted).\n")
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".json")
		if name == "regress" {
			continue
		}
		gm, err := LoadModel(p)
		if err != nil {
			t.Fatal(err)
		}
		m := gm.Mealy()
		for d := 1; d <= 2; d++ {
			wp := (&learn.WpMethodOracle{Inputs: m.Inputs(), Depth: d}).Suite(m)
			fmt.Fprintf(&b, "%-18s wp%d %7d %s\n", name, d, len(wp), hash(wp))
		}
		for d := 1; d <= 2; d++ {
			set := map[string][]string{}
			for _, w := range WMethodSuite(m, d).Words {
				set[strings.Join(w, "\x1f")] = w
			}
			keys := make([]string, 0, len(set))
			for k := range set {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			words := make([][]string, len(keys))
			for i, k := range keys {
				words[i] = set[k]
			}
			fmt.Fprintf(&b, "%-18s w%d  %7d %s\n", name, d, len(words), hash(words))
		}
	}
	return b.String()
}

// TestSuitesGolden pins the Wp and W-method suites of every model golden
// in testdata/suites.txt, so a change to how suites are generated cannot
// change which words are asked, or in what order, unnoticed.
func TestSuitesGolden(t *testing.T) {
	got := measureSuites(t)
	want, err := os.ReadFile(filepath.Join("testdata", "suites.txt"))
	if err != nil {
		t.Fatalf("%v\nmeasured:\n%s", err, got)
	}
	if got != string(want) {
		t.Fatalf("suites differ from testdata/suites.txt\nmeasured:\n%s", got)
	}
}
