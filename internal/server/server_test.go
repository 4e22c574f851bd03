package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/lab"
	"repro/internal/learncfg"
	"repro/internal/testutil"
	"repro/pkg/client"
)

// The E2E tests drive the daemon exclusively through pkg/client — the
// same typed client prognosisctl and CI's daemon-smoke use — so the wire
// API is exercised through its one Go-side definition. Only the
// malformed-body cases below speak raw HTTP, because the typed client
// cannot produce bodies the parser must reject.

// waitClientState polls until the job reaches want, failing fast if it goes
// terminal elsewhere.
func waitClientState(t *testing.T, c *client.Client, id string, want State) client.Status {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return client.Status{}
}

// collectSSE follows the job's event stream until the terminal job_state
// event (or timeout), returning event-kind counts.
func collectSSE(t *testing.T, c *client.Client, id string) map[string]int {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	es, err := c.Events(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	kinds := map[string]int{}
	for {
		ev, err := es.Next()
		if err == io.EOF {
			t.Fatalf("SSE stream ended without a terminal job_state (saw %v)", kinds)
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds[ev.Kind]++
		if js, ok := ev.JobState(); ok && js.State.Terminal() {
			return kinds
		}
	}
}

// TestServerEndToEnd is the acceptance path: submit a learn job through
// the typed client, follow its SSE stream to completion, verify the
// served model is byte-identical to what the same configuration learns
// through the lab API directly, cancel a second (RTT-slowed) job
// mid-run, and check stats/healthz/metrics along the way.
func TestServerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full service round trip")
	}
	base := runtime.NumGoroutine()
	ctx := context.Background()
	dir := t.TempDir()
	mgr, err := NewManager(ManagerConfig{Dir: dir, Parallel: 2, DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	c := client.New(ts.URL)

	// Health before anything else.
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	// A learn job and, in parallel, a deliberately slow victim for the
	// cancellation path (every query pays 10ms of emulated RTT).
	learnSpec := client.NewLearnSpec("google")
	learnSpec.Config.Conformance = 2
	learnJob, err := c.Submit(ctx, learnSpec)
	if err != nil {
		t.Fatal(err)
	}
	if learnJob.State != StatePending && learnJob.State != StateRunning {
		t.Fatalf("accepted job state = %s", learnJob.State)
	}
	slowSpec := client.NewLearnSpec("google")
	slowSpec.Config.RTT = learncfg.Duration(10 * time.Millisecond)
	slowJob, err := c.Submit(ctx, slowSpec)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the slow job while it is demonstrably mid-run.
	waitClientState(t, c, slowJob.ID, StateRunning)
	if was, err := c.Cancel(ctx, slowJob.ID); err != nil {
		t.Fatal(err)
	} else if was != StateRunning {
		t.Fatalf("cancel hit state %s, want running", was)
	}

	// The learn job's event stream must replay the run (history + live)
	// and end with the terminal state; at least one hypothesis_ready is
	// the observability contract.
	kinds := collectSSE(t, c, learnJob.ID)
	if kinds["hypothesis_ready"] == 0 {
		t.Fatalf("no hypothesis_ready on the stream: %v", kinds)
	}
	if kinds["job_state"] == 0 {
		t.Fatalf("no job_state events: %v", kinds)
	}

	st, err := c.Wait(ctx, learnJob.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("learn job = %s (%s)", st.State, st.Error)
	}
	if st.Summary == nil || st.Summary.States == 0 || st.Summary.Queries == 0 {
		t.Fatalf("learn summary = %+v", st.Summary)
	}
	if st, err := c.Wait(ctx, slowJob.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	} else if st.State != StateCancelled {
		t.Fatalf("slow job reached %s, want cancelled", st.State)
	}

	// The served model must be byte-identical to a direct lab learn of
	// the same configuration — the daemon adds a transport, never a
	// different answer.
	served, err := c.Model(ctx, learnJob.ID, "", "")
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := os.ReadFile(filepath.Join(dir, "jobs", learnJob.ID, "model.json"))
	if !bytes.Equal(served, stored) {
		t.Fatal("served model differs from the stored artifact")
	}
	cfg := learncfg.Default(learncfg.Defaults{})
	cfg.Conformance = 2
	opts, err := cfg.Options()
	if err != nil {
		t.Fatal(err)
	}
	res, err := lab.Run(ctx, "google", opts...)
	if err != nil {
		t.Fatal(err)
	}
	direct := filepath.Join(t.TempDir(), "model.json")
	if err := res.Model().Save(direct); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("daemon model (%d bytes) != direct lab model (%d bytes)", len(served), len(want))
	}

	// DOT rendering of the same artifact.
	dot, err := c.Model(ctx, learnJob.ID, "", "dot")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dot), "digraph") {
		t.Fatalf("dot artifact: %.80s", dot)
	}

	// Stats reflect the finished work, and the aggregate throughput rate
	// derives from the monotonic totals (busy seconds of finished jobs).
	stats, err := c.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs[StateDone] != 1 || stats.Jobs[StateCancelled] != 1 {
		t.Fatalf("stats jobs = %v", stats.Jobs)
	}
	if stats.Totals.Queries == 0 || stats.Totals.BusySeconds <= 0 {
		t.Fatalf("stats totals = %+v", stats.Totals)
	}
	if stats.Totals.QueriesPerSec <= 0 {
		t.Fatalf("queries_per_sec = %v, want > 0", stats.Totals.QueriesPerSec)
	}

	// The unified metrics plane: /metrics serves Prometheus text
	// exposition spanning the learner, guard, daemon, and SSE families.
	raw, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, family := range []string{
		"# TYPE prognosis_learn_queries_total counter",
		"# TYPE prognosis_guard_votes_total counter",
		"# TYPE prognosisd_jobs_submitted_total counter",
		"# TYPE prognosisd_jobs gauge",
		"# TYPE prognosisd_sse_events_published_total counter",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
	if !strings.Contains(text, `prognosisd_jobs_finished_total{state="done"}`) {
		t.Errorf("/metrics missing finished-by-state counter:\n%.400s", text)
	}

	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	testutil.WaitForGoroutines(t, base)
}

// TestServerResumeAcrossRestart: a daemon stopped mid-job re-queues it
// durably; the next daemon completes it warm from the shared query
// store — the service-level crash-resume contract (the manager-level
// twin simulates the journal a hard kill leaves).
func TestServerResumeAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("full service round trip")
	}
	base := runtime.NumGoroutine()
	ctx := context.Background()
	dir := t.TempDir()
	mgr, err := NewManager(ManagerConfig{Dir: dir, DrainTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mgr))
	c := client.New(ts.URL)

	// Slow enough (1ms RTT per exchange ≈ seconds per learn) that the
	// drain timeout fires mid-learn and the job is re-queued rather than
	// finished, yet quick enough for the resumed attempt to complete.
	spec := client.NewLearnSpec("google")
	spec.Config.RTT = learncfg.Duration(time.Millisecond)
	job, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitClientState(t, c, job.ID, StateRunning)
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Draining daemons refuse new work: Healthz surfaces the 503.
	var apiErr *client.APIError
	if err := c.Healthz(ctx); !errors.As(err, &apiErr) || apiErr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %v, want 503", err)
	}
	ts.Close()
	testutil.WaitForGoroutines(t, base)

	// Restart over the same data dir: the job resumes — warm-started
	// from the store the first attempt populated, so no RTT penalty —
	// and completes.
	mgr2, err := NewManager(ManagerConfig{Dir: dir, DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(NewServer(mgr2))
	c2 := client.New(ts2.URL)
	st, err := c2.Wait(ctx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("resumed job = %s (%s)", st.State, st.Error)
	}
	if st.Attempts != 2 {
		t.Fatalf("resumed job attempts = %d, want 2", st.Attempts)
	}
	if len(st.Artifacts) == 0 {
		t.Fatalf("resumed job has no artifacts: %+v", st)
	}
	ts2.Close()
	if err := mgr2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	testutil.WaitForGoroutines(t, base)
}

// TestServerRejectsBadSubmissions: malformed bodies, unknown fields, and
// invalid specs are 400s; unknown jobs are 404s — all surfaced as typed
// APIErrors through the client.
func TestServerRejectsBadSubmissions(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := context.Background()
	mgr, err := NewManager(ManagerConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	c := client.New(ts.URL)

	// Bodies the typed client cannot construct — a truncated object and an
	// unknown field — must still be 400s: raw HTTP exercises the parser.
	for _, body := range []string{
		`{`,
		`{"kind": "learn", "target": "tcp", "tarlet": "oops"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: %d, want 400", body, resp.StatusCode)
		}
	}

	// Invalid specs through the client: every rejection is an APIError 400.
	badLearn := client.NewLearnSpec("")
	badTarget := client.NewLearnSpec("no-such-target")
	badWorkers := client.NewLearnSpec("tcp")
	badWorkers.Config.Workers = -1
	halfDiff := client.NewDiffSpec("tcp", "")
	monWithTarget := client.NewMonitorSpec("")
	monWithTarget.Target = "tcp"
	for _, spec := range []client.Spec{badLearn, badTarget, badWorkers, halfDiff, monWithTarget} {
		_, err := c.Submit(ctx, spec)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != http.StatusBadRequest {
			t.Errorf("submit %+v: %v, want APIError 400", spec, err)
		}
	}

	// Unknown jobs are 404s on every per-job surface.
	if _, err := c.Job(ctx, "j9999"); !is404(err) {
		t.Errorf("Job(j9999) = %v, want 404", err)
	}
	if _, err := c.Events(ctx, "j9999"); !is404(err) {
		t.Errorf("Events(j9999) = %v, want 404", err)
	}
	if _, err := c.Model(ctx, "j9999", "", ""); !is404(err) {
		t.Errorf("Model(j9999) = %v, want 404", err)
	}
	if _, err := c.Witness(ctx, "j9999"); !is404(err) {
		t.Errorf("Witness(j9999) = %v, want 404", err)
	}

	// A diff spec built by the constructor carries the diff CLI defaults,
	// and explicit zero overrides survive the round trip.
	spec := client.NewDiffSpec("google", "google-fixed")
	spec.Config.Loss = 0
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec.Config.Workers != 4 || st.Spec.Config.Conformance != 2 {
		t.Fatalf("diff defaults not applied: %+v", st.Spec.Config)
	}
	if st.Spec.Config.Loss != 0 {
		t.Fatalf("explicit loss=0 overridden: %+v", st.Spec.Config)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	testutil.WaitForGoroutines(t, base)
}

func is404(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Code == http.StatusNotFound
}

// TestServerDiffJob drives a full diff through the service: google vs
// quiche on a clean link, witnesses confirmed by live replay, both
// models served.
func TestServerDiffJob(t *testing.T) {
	if testing.Short() {
		t.Skip("full service round trip")
	}
	base := runtime.NumGoroutine()
	ctx := context.Background()
	mgr, err := NewManager(ManagerConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	c := client.New(ts.URL)

	spec := client.NewDiffSpec("google", "quiche")
	spec.Config.Loss = 0
	spec.Config.Workers = 1
	job, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("diff job = %s (%s)", st.State, st.Error)
	}
	if st.Summary == nil || st.Summary.Equivalent == nil {
		t.Fatalf("diff summary = %+v", st.Summary)
	}
	if *st.Summary.Equivalent {
		t.Fatal("google vs quiche reported equivalent")
	}
	if st.Summary.Confirmed == nil || !*st.Summary.Confirmed {
		t.Fatalf("witness not confirmed live: %+v", st.Summary)
	}
	for _, side := range []string{"a", "b"} {
		if _, err := c.Model(ctx, job.ID, side, ""); err != nil {
			t.Fatalf("model side %s: %v", side, err)
		}
	}
	report, err := c.Witness(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "replayed live: diverged=true") {
		t.Fatalf("witness report missing live confirmation:\n%s", report)
	}

	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	testutil.WaitForGoroutines(t, base)
}
