package lab

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// RunSpec names one experiment of a campaign: a registered target plus its
// options. Name labels the run in results (defaults to the target name);
// give explicit names when the same target appears with different
// configurations.
type RunSpec struct {
	Name    string
	Target  string
	Options []Option
}

// RunResult is the outcome of one campaign run. Exactly one of Result/Err
// is meaningful: a run that failed to build or errored mid-learn carries
// Err; a run that completed — including one halted by the §5
// nondeterminism analysis (Result.Nondet) — carries Result.
type RunResult struct {
	Name   string
	Target string
	Result *Result
	Err    error
}

// Campaign executes a set of (target × configuration) learning runs
// concurrently with bounded parallelism. Failures are isolated per run: a
// target that errors — or halts on nondeterminism — never aborts its
// siblings. Cancelling the context stops in-flight runs within one query
// round and marks not-yet-started runs with ctx.Err().
type Campaign struct {
	Runs []RunSpec
	// Parallelism bounds how many runs learn at once (GOMAXPROCS when
	// zero). Each run may additionally use WithWorkers internally; total
	// SUL concurrency is the product.
	Parallelism int
}

// Run executes the campaign and returns one RunResult per RunSpec,
// positionally aligned. The returned error is only the context's: per-run
// failures live in the results.
func (c *Campaign) Run(ctx context.Context) ([]RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]RunResult, len(c.Runs))
	par := c.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(c.Runs) {
		par = len(c.Runs)
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := range c.Runs {
		spec := c.Runs[i]
		name := spec.Name
		if name == "" {
			name = spec.Target
		}
		results[i] = RunResult{Name: name, Target: spec.Target}
		// Check cancellation before contending for a slot: once ctx is done
		// no further run may start, even if the semaphore has capacity (a
		// two-way select would pick between the ready channels at random).
		if err := ctx.Err(); err != nil {
			results[i].Err = err
			continue
		}
		select {
		case sem <- struct{}{}:
			// Both select cases can be ready at once (cancellation racing a
			// free slot); re-check so a cancelled campaign never launches a
			// fresh run.
			if err := ctx.Err(); err != nil {
				<-sem
				results[i].Err = err
				continue
			}
		case <-ctx.Done():
			results[i].Err = ctx.Err()
			continue
		}
		wg.Add(1)
		go func(i int, spec RunSpec) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i].Result, results[i].Err = runSpec(ctx, spec)
		}(i, spec)
	}
	wg.Wait()
	return results, ctx.Err()
}

// runSpec builds, learns, and tears down one campaign run.
func runSpec(ctx context.Context, spec RunSpec) (*Result, error) {
	exp, err := NewExperiment(spec.Target, spec.Options...)
	if err != nil {
		return nil, err
	}
	defer exp.Close()
	return exp.Learn(ctx)
}

// Summary aggregates a finished campaign: learned / nondeterministic /
// failed counts and the first error, for tools that only need a verdict.
type Summary struct {
	Learned  int
	Nondet   int
	Failed   int
	FirstErr error
}

// Summarize folds results into a Summary.
func Summarize(results []RunResult) Summary {
	var s Summary
	for _, r := range results {
		switch {
		case r.Err != nil:
			s.Failed++
			if s.FirstErr == nil {
				s.FirstErr = fmt.Errorf("run %s: %w", r.Name, r.Err)
			}
		case r.Result != nil && r.Result.Nondet != nil:
			s.Nondet++
		default:
			s.Learned++
		}
	}
	return s
}
