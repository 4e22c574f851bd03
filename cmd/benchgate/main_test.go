package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSpec declares one workload with a timing, a count and a
// higher-is-better metric.
func testSpec() *spec {
	return &spec{
		Workloads: []struct{ Name string }{{"w"}},
		EndToEnd: []metricSpec{
			{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.25},
			{Name: "live_queries", Unit: "count", Better: "lower", Bound: 0.15},
			{Name: "hit_ratio", Unit: "ratio", Better: "higher", Bound: 0.10},
		},
	}
}

// runs builds one correct run per pass_s sample, each with the given
// live-query count and hit ratio and no failed operations.
func runs(queries, ratio float64, passes ...float64) []run {
	var out []run
	for _, p := range passes {
		out = append(out, run{Correct: true, Attempted: 10, Metrics: map[string]struct{ Value float64 }{
			"w.pass_s": {p}, "w.live_queries": {queries}, "w.hit_ratio": {ratio},
		}})
	}
	return out
}

// verdictOf runs the gate and returns whether it passed, its report, and
// the verdict column of metric's row.
func verdictOf(t *testing.T, metric string, parent, change []run) (bool, string, string) {
	t.Helper()
	var b strings.Builder
	ok := gate(&b, testSpec(), parent, change)
	for _, line := range strings.Split(b.String(), "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && f[0] == "w" && f[1] == metric {
			return ok, b.String(), f[len(f)-1]
		}
	}
	t.Fatalf("no row for %s in\n%s", metric, b.String())
	return false, "", ""
}

func TestGate(t *testing.T) {
	base := []float64{1.00, 1.02, 0.98, 1.01, 0.99}
	cases := []struct {
		name     string
		metric   string
		parent   []run
		change   []run
		pass     bool
		verdict  string
		contains string
	}{
		{
			name:   "identical inputs pass",
			metric: "pass_s", parent: runs(100, 0.5, base...), change: runs(100, 0.5, base...),
			pass: true, verdict: "ok",
		},
		{
			name:   "beyond the bound with disjoint IQRs fails",
			metric: "pass_s", parent: runs(100, 0.5, base...), change: runs(100, 0.5, 1.40, 1.42, 1.38, 1.41, 1.39),
			pass: false, verdict: "FAIL",
		},
		{
			name:   "beyond the bound with overlapping IQRs is unresolved and passes",
			metric: "pass_s", parent: runs(100, 0.5, base...), change: runs(100, 0.5, 0.9, 1.5, 1.4, 1.0, 1.6),
			pass: true, verdict: "unresolved",
		},
		{
			name:   "within the bound passes",
			metric: "pass_s", parent: runs(100, 0.5, base...), change: runs(100, 0.5, 1.10, 1.12, 1.08, 1.11, 1.09),
			pass: true, verdict: "ok",
		},
		{
			name:   "a zero-spread count one higher fails",
			metric: "live_queries", parent: runs(42176, 0.5, base...), change: runs(42177, 0.5, base...),
			pass: false, verdict: "FAIL",
		},
		{
			name:   "a zero-spread count one lower passes",
			metric: "live_queries", parent: runs(42176, 0.5, base...), change: runs(42175, 0.5, base...),
			pass: true, verdict: "ok",
		},
		{
			name:   "higher is better: a lower zero-spread ratio fails",
			metric: "hit_ratio", parent: runs(100, 0.5, base...), change: runs(100, 0.4, base...),
			pass: false, verdict: "FAIL",
		},
		{
			name:   "a change run with correct=false fails",
			metric: "pass_s", parent: runs(100, 0.5, base...),
			change: func() []run { r := runs(100, 0.5, base...); r[2].Correct = false; return r }(),
			pass:   false, verdict: "ok", contains: "FAIL change run 3: correct=false",
		},
		{
			name:   "a higher failed share fails",
			metric: "pass_s", parent: runs(100, 0.5, base...),
			change: func() []run { r := runs(100, 0.5, base...); r[0].Failed = 1; return r }(),
			pass:   false, verdict: "ok", contains: "FAIL failed operations: parent 0 of 50, change 1 of 50",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pass, report, verdict := verdictOf(t, c.metric, c.parent, c.change)
			if pass != c.pass || verdict != c.verdict || !strings.Contains(report, c.contains) {
				t.Fatalf("pass=%v verdict=%s, want pass=%v verdict=%s and %q in the report:\n%s",
					pass, verdict, c.pass, c.verdict, c.contains, report)
			}
		})
	}
}

// TestGateReadsPerfbenchOutput reads a directory of perfbench output:
// only the result line of each file is a run.
func TestGateReadsPerfbenchOutput(t *testing.T) {
	dir := t.TempDir()
	out := `# env {"nproc":2}
w pass_s 1.0 s median of 2 passes
{"correct":true,"attempted":3,"failed":0,"metrics":{"w.pass_s":{"value":1.5,"unit":"s"}}}
`
	for _, name := range []string{"1.txt", "2.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := readRuns(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[1].Correct || got[1].Attempted != 3 || got[1].Metrics["w.pass_s"].Value != 1.5 {
		t.Fatalf("runs = %+v", got)
	}
	if _, err := readRuns(t.TempDir()); err == nil {
		t.Fatal("an empty directory read without error")
	}
}

// TestSpecMatchesBenchmark reads the repository's BENCHMARK.json: the
// gate needs every end-to-end metric's direction.
func TestSpecMatchesBenchmark(t *testing.T) {
	s, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 {
		t.Fatalf("spec = %+v", s)
	}
}
