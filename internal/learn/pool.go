package learn

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/automata"
)

// BatchOracle is an Oracle that can answer many membership queries in one
// call, typically by fanning them out across independent replicas of the
// system under learning. Answers are positionally aligned with the input
// words. Implementations must behave as if each word were asked with Query:
// the i-th output word is the system's response to words[i] from its reset
// state. A batch fails as a whole: on error the output slice is nil and the
// first error encountered is returned.
type BatchOracle interface {
	Oracle
	QueryBatch(ctx context.Context, words [][]string) ([][]string, error)
}

// queryAll answers a set of words through o, batching when o supports it
// and falling back to one-at-a-time queries otherwise. Like query, it
// enforces the Mealy output-length contract on every answer.
func queryAll(ctx context.Context, o Oracle, words [][]string) ([][]string, error) {
	if len(words) == 0 {
		return nil, nil
	}
	if bo, ok := o.(BatchOracle); ok {
		outs, err := bo.QueryBatch(ctx, words)
		if err != nil {
			return nil, err
		}
		for i, out := range outs {
			conformed, err := conform(words[i], out)
			if err != nil {
				return nil, err
			}
			outs[i] = conformed
		}
		return outs, nil
	}
	outs := make([][]string, len(words))
	for i, w := range words {
		out, err := query(ctx, o, w)
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	return outs, nil
}

// Pool fans membership queries across a fixed set of shard oracles, each
// typically backed by its own system-under-learning instance with
// independent reset state. Query borrows a free shard; QueryBatch keeps up
// to len(shards) queries in flight at once. Pool itself holds no query
// state, so it is safe for concurrent use as long as each shard oracle is
// only ever driven by one goroutine at a time — which the free-list
// guarantees.
type Pool struct {
	shards []Oracle
	free   chan Oracle
	win    *Window
}

// NewPool builds a pool over the given shard oracles. Every shard must be a
// behaviourally identical replica of the same system: the pool assumes any
// shard can answer any query.
func NewPool(shards ...Oracle) *Pool {
	if len(shards) == 0 {
		panic("learn: NewPool needs at least one shard")
	}
	free := make(chan Oracle, len(shards))
	for _, s := range shards {
		free <- s
	}
	return &Pool{shards: shards, free: free}
}

// Size returns the number of shards (the maximum query concurrency).
func (p *Pool) Size() int { return len(p.shards) }

// UseWindow places an adaptive in-flight window in front of the free list:
// every Query must be admitted by win before it may borrow a shard, so the
// effective concurrency follows the window instead of the raw shard count.
// Completion timing feeds the window's RTT estimate; loss signals (guard
// escalations, timeouts) are reported to the window by its other feeders.
// Must be called before the pool is shared across goroutines.
func (p *Pool) UseWindow(win *Window) { p.win = win }

// Window returns the installed adaptive window, or nil.
func (p *Pool) Window() *Window { return p.win }

// Query implements Oracle by borrowing a free shard. Waiting for a free
// shard is interruptible: a cancelled caller stops queueing instead of
// blocking behind other askers. With an adaptive window installed, the
// query first acquires a window slot and reports its completion back.
func (p *Pool) Query(ctx context.Context, word []string) ([]string, error) {
	if p.win != nil {
		if err := p.win.Acquire(ctx); err != nil {
			return nil, err
		}
		start := time.Now()
		out, err := p.query(ctx, word)
		p.win.Release(err == nil, time.Since(start))
		if errors.Is(err, context.DeadlineExceeded) {
			p.win.OnLoss()
		}
		return out, err
	}
	return p.query(ctx, word)
}

func (p *Pool) query(ctx context.Context, word []string) ([]string, error) {
	var shard Oracle
	select {
	case shard = <-p.free:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	out, err := shard.Query(ctx, word)
	p.free <- shard
	return out, err
}

// QueryBatch implements BatchOracle. Up to one worker per shard claims
// the words in index order, the calling goroutine being one of them; the
// batch stops early on the first error or when ctx is cancelled.
func (p *Pool) QueryBatch(ctx context.Context, words [][]string) ([][]string, error) {
	if len(words) == 0 {
		return nil, nil
	}
	outs := make([][]string, len(words))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var firstErr error
	var errOnce sync.Once
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(words) || ctx.Err() != nil {
				return
			}
			out, err := p.Query(ctx, words[i])
			if err != nil {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
				return
			}
			outs[i] = out
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(len(p.shards), len(words)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return outs, nil
}

// findFirstCE tests words against hyp across workers and returns the
// counterexample derived from the earliest failing word, making the result
// deterministic regardless of worker scheduling: workers walk interleaved
// index stripes in increasing order and prune everything at or above the
// best failing index seen so far, so every index below the winner is fully
// checked. The derived context cancels in-flight work on error, and
// cancelling the caller's ctx aborts the whole search with ctx.Err().
// Every word is queried with hyp's prediction attached (WithPrediction).
func findFirstCE(ctx context.Context, o Oracle, hyp *automata.Mealy, words [][]string, workers int) ([]string, error) {
	if workers > len(words) {
		workers = len(words)
	}
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(WithPrediction(ctx, hyp))
	defer cancel()

	best := int64(len(words)) // lowest failing index found so far
	// Each stripe stops at its first failure, so it holds at most one
	// counterexample; the winner is the one of stripe best%workers.
	ces := make([][]string, workers)
	var firstErr error
	var errOnce sync.Once
	stripe := func(start int) {
		for i := start; i < len(words); i += workers {
			if int64(i) >= atomic.LoadInt64(&best) {
				return // stripe indices only increase; nothing left to win
			}
			if ctx.Err() != nil {
				return
			}
			ce, err := checkWord(ctx, o, hyp, words[i])
			if err != nil {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
				return
			}
			if ce != nil {
				ces[start] = ce
				// Lower best monotonically to i.
				for {
					cur := atomic.LoadInt64(&best)
					if int64(i) >= cur || atomic.CompareAndSwapInt64(&best, cur, int64(i)) {
						break
					}
				}
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stripe(w)
		}()
	}
	stripe(0)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if b := atomic.LoadInt64(&best); int(b) < len(words) {
		return ces[b%int64(workers)], nil
	}
	// A cancelled search proved nothing: report the cancellation rather
	// than an (unverified) "no counterexample".
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return nil, nil
}
