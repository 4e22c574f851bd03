package server

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/pkg/client"
)

// TestRunnerCheckAndRegressJobs runs check and regress jobs through the
// production runner and pins each job's witness.txt to the report the
// shared internal/cli verb produces for the same configuration: the
// daemon renders nothing of its own for these verbs.
func TestRunnerCheckAndRegressJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full learns")
	}
	ctx := context.Background()
	const manifest = "../analysis/testdata/regress.json"

	// lossy-retransmit under its manifest configuration (2% loss after a
	// 100-word warmup) degrades into double-sending after CONNECTION_CLOSE.
	check := client.NewCheckSpec("lossy-retransmit")
	check.Config.Loss, check.Config.Warmup = 0.02, 100
	regress := client.NewRegressSpec(manifest)
	regress.Targets = "tcp,mvfst"

	for _, tc := range []struct {
		name  string
		spec  Spec
		check func(t *testing.T, sum *Summary, report string)
		// verb runs the shared cli verb for the job's configuration (with
		// its own fresh store) and returns its report.
		verb func(t *testing.T) string
	}{
		{
			name: "check",
			spec: check,
			check: func(t *testing.T, sum *Summary, report string) {
				if sum.Violations == 0 || !strings.Contains(report, "FAIL close-is-terminal") {
					t.Fatalf("close-behaviour violation not reported (%d violations):\n%s", sum.Violations, report)
				}
			},
			verb: func(t *testing.T) string {
				cfg := check.Config
				cfg.Store = t.TempDir()
				out, err := cli.RunCheck(ctx, check.Target, cfg, nil, "", 4)
				if err != nil {
					t.Fatal(err)
				}
				return out.Report
			},
		},
		{
			name: "regress",
			spec: regress,
			check: func(t *testing.T, sum *Summary, report string) {
				if sum.RegressTargets != 2 || len(sum.Drifted) != 0 {
					t.Fatalf("regress summary = %+v\n%s", sum, report)
				}
				for _, want := range []string{"regress tcp: OK", "regress mvfst: OK"} {
					if !strings.Contains(report, want) {
						t.Fatalf("report missing %q:\n%s", want, report)
					}
				}
			},
			verb: func(t *testing.T) string {
				m, err := cli.LoadRegressManifest(manifest)
				if err != nil {
					t.Fatal(err)
				}
				run, err := cli.RunRegress(ctx, m, regress.Targets, t.TempDir(),
					regress.Config.Workers, 3, nil)
				if err != nil {
					t.Fatal(err)
				}
				return run.Report()
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := &Job{ID: tc.name, Spec: tc.spec, Dir: t.TempDir()}
			sum, err := NewRunner(t.TempDir())(ctx, job, nil)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join(job.Dir, "witness.txt"))
			if err != nil {
				t.Fatal(err)
			}
			report := string(raw)
			tc.check(t, sum, report)
			if want := tc.verb(t); report != want {
				t.Fatalf("job witness.txt differs from the cli verb's report:\n--- job\n%s--- cli\n%s", report, want)
			}
		})
	}
}
