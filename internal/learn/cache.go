package learn

import (
	"context"
	"errors"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/automata"
)

// cacheNode is one node of the prefix tree. The output on the edge from the
// parent is stored in the child.
type cacheNode struct {
	children map[string]*cacheNode
	output   string
}

// cacheShards is the number of independently locked prefix subtrees. Words
// are sharded by their first input symbol, which preserves prefix closure
// inside each shard (every prefix of a word starts with the same symbol).
const cacheShards = 16

// cacheShard is one independently locked prefix subtree.
type cacheShard struct {
	mu   sync.Mutex
	root cacheNode
}

// Cache is a prefix-tree membership-query cache. Because Mealy queries are
// prefix-closed (the outputs for a prefix of w are a prefix of the outputs
// for w), caching a long query answers all of its prefixes for free. The
// learning algorithms re-ask heavily overlapping queries, so the cache cuts
// live traffic to the system under learning dramatically (TestCacheAblation
// measures it).
//
// Cache is safe for concurrent use: the tree is split into cacheShards
// subtrees keyed by a word's first symbol, each behind its own lock, so
// pool workers touching different regions of the alphabet do not contend.
type Cache struct {
	shards [cacheShards]cacheShard
	stats  *Stats
	nodes  int64 // total prefix-tree nodes, kept O(1)-readable for snapshots
}

func (c *Cache) shard(word []string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(word[0]))
	return &c.shards[h.Sum32()%cacheShards]
}

// NewCache wraps o with a prefix-tree cache. If st is non-nil, cache hits
// are counted in st.Hits.
func NewCache(o Oracle, st *Stats) *CachedOracle {
	return &CachedOracle{inner: o, cache: &Cache{stats: st}}
}

// CachedOracle is an Oracle that consults a Cache before its inner oracle.
// Concurrent duplicate queries are deduplicated: while a word is in flight
// to the inner oracle, later askers of the same word wait for the first
// answer instead of issuing their own — or give up with ctx.Err() when
// their context is cancelled first, so cancellation is never stuck behind
// another goroutine's slow query. It implements BatchOracle, fanning cache
// misses to the inner oracle's batch path when available.
type CachedOracle struct {
	inner Oracle
	cache *Cache
	// store, when attached with UseStore, persists every accepted answer so
	// the next run of the same experiment starts with this run's cache.
	store *Store

	mu       sync.Mutex
	inflight map[string]*inflightQuery
}

// inflightQuery is one query currently being asked of the inner oracle.
type inflightQuery struct {
	done chan struct{}
	out  []string
	err  error
}

func (c *CachedOracle) hit() {
	if c.cache.stats != nil {
		atomic.AddInt64(&c.cache.stats.Hits, 1)
	}
	metricCacheHits.Inc()
}

// isCtxErr reports whether err is a context cancellation or deadline —
// a failure of the asking goroutine's context, not of the query itself.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Query implements Oracle.
func (c *CachedOracle) Query(ctx context.Context, word []string) ([]string, error) {
	for {
		if out, ok := c.cache.lookup(word); ok {
			c.hit()
			return out, nil
		}
		k := strings.Join(word, "\x1f")
		c.mu.Lock()
		// A leader stores its answer before it leaves the in-flight map,
		// both under c.mu: re-checking the cache here closes the window in
		// which the word is in neither, which would ask it live twice.
		if out, ok := c.cache.lookup(word); ok {
			c.mu.Unlock()
			c.hit()
			return out, nil
		}
		if fl, ok := c.inflight[k]; ok {
			c.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if fl.err != nil {
				// A leader that died of its *own* context must not poison
				// waiters whose contexts are still live: retry the word
				// ourselves (becoming the new leader).
				if isCtxErr(fl.err) && ctx.Err() == nil {
					continue
				}
				return nil, fl.err
			}
			c.hit()
			return fl.out, nil
		}
		fl := &inflightQuery{done: make(chan struct{})}
		if c.inflight == nil {
			c.inflight = make(map[string]*inflightQuery)
		}
		c.inflight[k] = fl
		c.mu.Unlock()

		out, err := query(ctx, c.inner, word)
		if err == nil {
			c.cache.store(word, out)
			c.persist(word, out)
		}
		fl.out, fl.err = out, err
		c.mu.Lock()
		delete(c.inflight, k)
		c.mu.Unlock()
		close(fl.done)
		return out, err
	}
}

// QueryBatch implements BatchOracle: answers what it can from the cache,
// deduplicates the misses (both inside the batch and against queries other
// goroutines already have in flight), and forwards the remaining distinct
// words to the inner oracle — as one batch when the inner oracle supports
// it.
func (c *CachedOracle) QueryBatch(ctx context.Context, words [][]string) ([][]string, error) {
	outs := make([][]string, len(words))
	type missGroup struct {
		word    []string
		key     string
		indices []int
	}
	var misses []missGroup         // distinct words this call must ask itself
	missAt := make(map[string]int) // word key -> index in misses
	var waits []*inflightQuery     // queries another goroutine is already asking
	var waitIdx []int              // the batch position each wait fills

	c.mu.Lock()
	for i, w := range words {
		if out, ok := c.cache.lookup(w); ok {
			c.hit()
			outs[i] = out
			continue
		}
		k := strings.Join(w, "\x1f")
		if j, ok := missAt[k]; ok {
			misses[j].indices = append(misses[j].indices, i)
			continue
		}
		if fl, ok := c.inflight[k]; ok {
			waits = append(waits, fl)
			waitIdx = append(waitIdx, i)
			continue
		}
		fl := &inflightQuery{done: make(chan struct{})}
		if c.inflight == nil {
			c.inflight = make(map[string]*inflightQuery)
		}
		c.inflight[k] = fl
		missAt[k] = len(misses)
		misses = append(misses, missGroup{word: w, key: k, indices: []int{i}})
	}
	c.mu.Unlock()

	// Ask the distinct misses, preferring the inner batch path.
	var innerOuts [][]string
	var innerErr error
	if len(misses) > 0 {
		missWords := make([][]string, len(misses))
		for i, m := range misses {
			missWords[i] = m.word
		}
		if bo, ok := c.inner.(BatchOracle); ok {
			innerOuts, innerErr = bo.QueryBatch(ctx, missWords)
			if innerErr == nil {
				for i, out := range innerOuts {
					if innerOuts[i], innerErr = conform(missWords[i], out); innerErr != nil {
						break
					}
				}
			}
		} else {
			innerOuts = make([][]string, len(missWords))
			for i, w := range missWords {
				if innerOuts[i], innerErr = query(ctx, c.inner, w); innerErr != nil {
					break
				}
			}
		}
	}

	// Publish results (or the failure) to cache and any waiting goroutines.
	c.mu.Lock()
	for i, m := range misses {
		fl := c.inflight[m.key]
		if innerErr != nil {
			fl.err = innerErr
		} else {
			fl.out = innerOuts[i]
			c.cache.store(m.word, innerOuts[i])
			c.persist(m.word, innerOuts[i])
			for j, at := range m.indices {
				outs[at] = innerOuts[i]
				if j > 0 {
					c.hit() // intra-batch duplicate answered by the leader
				}
			}
		}
		delete(c.inflight, m.key)
		close(fl.done)
	}
	c.mu.Unlock()
	if innerErr != nil {
		return nil, innerErr
	}

	// Collect answers another goroutine was already computing.
	for i, fl := range waits {
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if fl.err != nil {
			// As in Query: a leader cancelled by its own context must not
			// fail live waiters — re-ask the word under our context.
			if isCtxErr(fl.err) && ctx.Err() == nil {
				out, err := c.Query(ctx, words[waitIdx[i]])
				if err != nil {
					return nil, err
				}
				outs[waitIdx[i]] = out
				continue
			}
			return nil, fl.err
		}
		c.hit()
		outs[waitIdx[i]] = fl.out
	}
	return outs, nil
}

// Size returns the number of cached input words (prefix-tree nodes minus
// the roots), which equals the number of distinct non-empty prefixes
// stored. It is an O(1) atomic read, so per-round snapshots never stall
// pool workers on the shard locks.
func (c *CachedOracle) Size() int {
	return int(atomic.LoadInt64(&c.cache.nodes))
}

// Clear drops every cached answer (in-flight queries are unaffected: the
// leaders publish into the emptied tree). It is the repair of last resort
// when the target's observable behaviour has shifted mid-run — e.g. an
// implementation whose state leaks across resets — and per-word refreshes
// cannot catch every stale entry. An attached persistent store is reset
// with the cache: entries that survived the drop would resurrect exactly
// the answers the drop was repairing on the next warm run.
func (c *CachedOracle) Clear() {
	for i := range c.cache.shards {
		sh := &c.cache.shards[i]
		sh.mu.Lock()
		sh.root = cacheNode{}
		sh.mu.Unlock()
	}
	atomic.StoreInt64(&c.cache.nodes, 0)
	if c.store != nil {
		_ = c.store.Reset()
	}
}

// Refresh re-asks word of the inner oracle — bypassing any cached answer —
// and overwrites the stored outputs along the word's whole path, prefixes
// included. The voting guard makes a wrongly accepted answer extremely
// unlikely, but a cache makes any such answer permanent; when the
// experiment driver suspects one (a counterexample that stops making
// progress), Refresh lets a fresh consensus repair the poisoned entries
// instead of trusting them forever. With a store attached the corrected
// answer is appended to the log too — entries replay in order with
// last-write-wins, so the repair shadows the poisoned entry on every
// future warm start instead of dying with this process.
func (c *CachedOracle) Refresh(ctx context.Context, word []string) ([]string, error) {
	out, err := query(ctx, c.inner, word)
	if err != nil {
		return nil, err
	}
	c.cache.refresh(word, out)
	c.persist(word, out)
	return out, nil
}

// maxCacheRepairs bounds how many times LearnRepairing may repair the
// cache and restart its learner before giving up: repairs are cheap (the
// warm cache answers everything untainted), but an implementation that
// keeps producing contradictions is genuinely unlearnable and must fail
// rather than spin.
const maxCacheRepairs = 3

// LearnRepairing runs a learner through this cache under the
// cache-repair policy. run learns with the equivalence oracle it is
// given: eq behind a breaker that re-votes a counterexample the learner
// made no progress on (Refresh) before handing it back, since a wrongly
// accepted — and therefore permanently cached — answer would otherwise
// loop the MAT rounds forever. When run fails with an InconsistencyError,
// the implicated words are refreshed and run is called again; the last
// restart drops the whole cache instead.
func (c *CachedOracle) LearnRepairing(ctx context.Context, eq EquivalenceOracle,
	run func(EquivalenceOracle) (*automata.Mealy, error)) (*automata.Mealy, error) {
	eq = &revalidatedEq{inner: eq, cache: c}
	for attempt := 0; ; attempt++ {
		model, err := run(eq)
		var inc *InconsistencyError
		if err == nil || attempt >= maxCacheRepairs || !errors.As(err, &inc) {
			return model, err
		}
		// The learner proved its observations contradict every
		// deterministic machine. Two causes exist: a wrongly accepted
		// answer poisoned the cache (the guard makes that rare, the cache
		// makes it permanent), or the target's behaviour genuinely
		// shifted mid-run (state leaking across resets, as the
		// lossy-retransmit profile does under loss). Re-vote the
		// implicated words and restart — the warm cache answers
		// everything untainted for free; on the last attempt drop the
		// whole cache, which converges whenever the current behaviour is
		// stable, whatever stale entries remain elsewhere.
		if attempt == maxCacheRepairs-1 {
			c.Clear()
			continue
		}
		for _, w := range inc.Words {
			if _, err := c.Refresh(ctx, w); err != nil {
				return nil, err
			}
		}
	}
}

// revalidatedEq is LearnRepairing's counterexample breaker: a
// counterexample identical to the previous round's means the learner made
// no progress on it, so the word is re-voted live and the cached path
// overwritten before the learner retries it. One that still makes no
// progress after repeated repairs is escalated as an InconsistencyError,
// which LearnRepairing answers with a wider repair and a restart.
type revalidatedEq struct {
	inner   EquivalenceOracle
	cache   *CachedOracle
	last    string
	repeats int
}

// FindCounterexample implements EquivalenceOracle.
func (r *revalidatedEq) FindCounterexample(ctx context.Context, hyp *automata.Mealy) ([]string, error) {
	ce, err := r.inner.FindCounterexample(ctx, hyp)
	if err != nil || ce == nil {
		r.last, r.repeats = "", 0
		return ce, err
	}
	key := strings.Join(ce, "\x1f")
	if key != r.last {
		r.last, r.repeats = key, 0
		return ce, nil
	}
	r.repeats++
	if r.repeats > maxCacheRepairs {
		return nil, &InconsistencyError{
			CE: ce, Words: [][]string{ce},
			Reason: "counterexample made no progress despite repeated cache repairs",
		}
	}
	if _, err := r.cache.Refresh(ctx, ce); err != nil {
		return nil, err
	}
	return ce, nil
}

// lookup returns the cached outputs of word. It walks the path before it
// allocates the answer, so a miss costs no allocation.
func (c *Cache) lookup(word []string) ([]string, bool) {
	if len(word) == 0 {
		return []string{}, true
	}
	sh := c.shard(word)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := &sh.root
	for _, in := range word {
		if n = n.children[in]; n == nil {
			return nil, false
		}
	}
	out := make([]string, len(word))
	n = &sh.root
	for i, in := range word {
		n = n.children[in]
		out[i] = n.output
	}
	return out, true
}

// refresh is store with clobber semantics: existing outputs along the
// path are overwritten rather than kept.
func (c *Cache) refresh(word, out []string) {
	if len(word) == 0 {
		return
	}
	sh := c.shard(word)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := &sh.root
	for i, in := range word {
		if n.children == nil {
			n.children = make(map[string]*cacheNode)
		}
		ch, ok := n.children[in]
		if !ok {
			ch = &cacheNode{}
			n.children[in] = ch
			atomic.AddInt64(&c.nodes, 1)
		}
		ch.output = out[i]
		n = ch
	}
}

func (c *Cache) store(word, out []string) {
	if len(word) == 0 {
		return
	}
	sh := c.shard(word)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := &sh.root
	for i, in := range word {
		if n.children == nil {
			n.children = make(map[string]*cacheNode)
		}
		ch, ok := n.children[in]
		if !ok {
			ch = &cacheNode{output: out[i]}
			n.children[in] = ch
			atomic.AddInt64(&c.nodes, 1)
		}
		n = ch
	}
}
