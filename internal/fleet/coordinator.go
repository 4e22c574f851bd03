package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/learn"
	"repro/pkg/client"
)

// ErrUnknownWorker is returned for heartbeats (and lookups) naming a
// worker the coordinator has no registration for — the signal that makes
// a worker's JoinLoop rejoin after a coordinator restart.
var ErrUnknownWorker = errors.New("fleet: unknown worker")

// Config shapes a Coordinator.
type Config struct {
	// Dir is the coordinator's workspace: merged stores and checkpoints
	// land under Dir/campaigns/<id>/.
	Dir string
	// Lease is how long a worker stays live without a heartbeat
	// (default 10s). Workers heartbeat at a fraction of this.
	Lease time.Duration
	// Poll is the campaign loop's cadence: assignment sweeps and job
	// status polls (default 500ms).
	Poll time.Duration
	// Logf receives coordinator lifecycle logging (default: discard).
	Logf func(string, ...any)
	// HTTPClient, when set, underlies every per-worker client (tests
	// inject httptest transports; the default has a 15s timeout so a
	// dead worker cannot wedge a poll).
	HTTPClient *http.Client
}

// worker is the coordinator's registration record for one daemon.
type worker struct {
	info client.WorkerInfo
	cli  *client.Client
	last time.Time // last join or heartbeat
	dead bool
	// fails counts consecutive job-API transport failures; three in a
	// row declare the worker dead without waiting for the lease (an
	// APIError means the daemon answered, so it resets the count).
	fails    int
	assigned int // cells currently submitted and not terminal
	done     int // cells completed here
	requeued int // cells taken back from here
}

// cellRun tracks one cell through the campaign lifecycle:
//
//	pending → submitted → done
//	                    ↘ failed
//	submitted → pending            (worker died/drained: requeued)
type cellRun struct {
	cell     Cell
	state    string // "pending", "submitted", "done", "failed"
	worker   string // worker currently running it ("" while pending)
	jobID    string
	summary  *client.Summary
	model    []byte // model artifact (nil for nondeterminism verdicts)
	doneBy   string
	errMsg   string
	requeues int
}

// campaign is one sharded campaign in flight.
type campaign struct {
	id      string
	name    string
	created time.Time
	state   string
	cells   []*cellRun
	byKey   map[string]*cellRun
	// perWorker maps worker name → cells completed there.
	perWorker map[string]int
	requeued  int
	errMsg    string

	mergedStore      string
	mergedCheckpoint string
	summary          string
}

// Coordinator owns the fleet: the consistent-hash ring of live workers,
// worker leases, campaign expansion/assignment/requeue, and the
// result-merge stage. One coordinator drives any number of campaigns;
// each campaign runs on its own goroutine, with all shared state under
// one mutex and every HTTP call made outside it.
type Coordinator struct {
	cfg  Config
	ring *Ring

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	workers   map[string]*worker
	campaigns map[string]*campaign
	order     []string
	requeued  int
	nextID    int
}

// NewCoordinator returns a running coordinator (its lease sweeper is
// live). Close it to stop campaign loops.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fleet: coordinator needs a workspace dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 10 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 15 * time.Second}
	}
	ctx, cancel := context.WithCancel(context.Background())
	co := &Coordinator{
		cfg:       cfg,
		ring:      NewRing(DefaultVirtualNodes),
		ctx:       ctx,
		cancel:    cancel,
		workers:   map[string]*worker{},
		campaigns: map[string]*campaign{},
	}
	co.wg.Add(1)
	go co.sweep()
	return co, nil
}

// Close stops the sweeper and campaign loops and waits for them.
func (co *Coordinator) Close() {
	co.cancel()
	co.wg.Wait()
}

// Join registers (or re-registers) a worker. Rejoining under a known
// name refreshes the lease, updates the URL/weight, and revives a dead
// worker — which puts it back on the ring.
func (co *Coordinator) Join(info client.WorkerInfo) error {
	if info.Name == "" || info.URL == "" {
		return fmt.Errorf("fleet: join needs a worker name and url")
	}
	if info.Weight <= 0 {
		info.Weight = 1
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	w, ok := co.workers[info.Name]
	if !ok {
		w = &worker{}
		co.workers[info.Name] = w
		co.cfg.Logf("fleet: worker %q joined (%s, weight %d)", info.Name, info.URL, info.Weight)
	} else if w.dead {
		co.cfg.Logf("fleet: worker %q rejoined", info.Name)
	}
	w.info = info
	w.cli = client.New(info.URL, client.WithHTTPClient(co.cfg.HTTPClient))
	w.last = time.Now()
	w.dead = false
	w.fails = 0
	co.ring.Add(info.Name, info.Weight)
	co.workerGaugesLocked()
	return nil
}

// Heartbeat refreshes a worker's lease, reviving it if the lease had
// expired. Unknown names get ErrUnknownWorker (HTTP 404), telling the
// worker to rejoin.
func (co *Coordinator) Heartbeat(name string) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	w, ok := co.workers[name]
	if !ok {
		return ErrUnknownWorker
	}
	now := time.Now()
	heartbeatAge(name).Observe(now.Sub(w.last).Seconds())
	w.last = now
	if w.dead {
		co.cfg.Logf("fleet: worker %q revived by heartbeat", name)
		w.dead = false
		w.fails = 0
		co.ring.Add(w.info.Name, w.info.Weight)
		co.workerGaugesLocked()
	}
	return nil
}

// sweep expires worker leases.
func (co *Coordinator) sweep() {
	defer co.wg.Done()
	tick := co.cfg.Lease / 4
	if tick < 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-co.ctx.Done():
			return
		case <-t.C:
		}
		co.mu.Lock()
		for name, w := range co.workers {
			if !w.dead && time.Since(w.last) > co.cfg.Lease {
				co.cfg.Logf("fleet: worker %q lease expired", name)
				co.markDeadLocked(name)
			}
		}
		co.mu.Unlock()
	}
}

// markDeadLocked declares a worker dead: off the ring, and every cell
// submitted to it goes back to pending for re-assignment. Requeueing is
// safe because cells are idempotent by run key — if the dead worker's
// job is in fact still running, both executions answer the same queries
// and the merge stage's last-write-wins fold makes the duplicate
// harmless.
func (co *Coordinator) markDeadLocked(name string) {
	w, ok := co.workers[name]
	if !ok || w.dead {
		return
	}
	w.dead = true
	co.ring.Remove(name)
	for _, c := range co.campaigns {
		for _, cr := range c.cells {
			if cr.state == "submitted" && cr.worker == name {
				cr.state = "pending"
				cr.worker = ""
				cr.jobID = ""
				cr.requeues++
				c.requeued++
				co.requeued++
				w.requeued++
				w.assigned--
				mCellsRequeued.Inc()
				co.cfg.Logf("fleet: requeued cell %s from dead worker %q", cr.cell.Key, name)
			}
		}
	}
	co.workerGaugesLocked()
}

// workerGaugesLocked refreshes the live/dead gauges.
func (co *Coordinator) workerGaugesLocked() {
	live, dead := 0, 0
	for _, w := range co.workers {
		if w.dead {
			dead++
		} else {
			live++
		}
	}
	mWorkersLive.Set(float64(live))
	mWorkersDead.Set(float64(dead))
}

// SubmitCampaign expands the spec into cells and starts the campaign
// loop. The returned status is the accepted snapshot (state running).
func (co *Coordinator) SubmitCampaign(spec client.FleetCampaignSpec) (client.FleetCampaignStatus, error) {
	cells, err := ExpandCampaign(spec)
	if err != nil {
		return client.FleetCampaignStatus{}, err
	}
	co.mu.Lock()
	co.nextID++
	id := fmt.Sprintf("c%04d", co.nextID)
	name := spec.Name
	if name == "" {
		name = id
	}
	c := &campaign{
		id:        id,
		name:      name,
		created:   time.Now(),
		state:     client.CampaignRunning,
		byKey:     map[string]*cellRun{},
		perWorker: map[string]int{},
	}
	for _, cell := range cells {
		cr := &cellRun{cell: cell, state: "pending"}
		c.cells = append(c.cells, cr)
		c.byKey[cell.Key] = cr
	}
	co.campaigns[id] = c
	co.order = append(co.order, id)
	st := co.campaignStatusLocked(c)
	co.mu.Unlock()
	co.cfg.Logf("fleet: campaign %s (%s): %d cells", id, name, len(cells))
	co.wg.Add(1)
	go co.runCampaign(c)
	return st, nil
}

// Campaign returns one campaign's status.
func (co *Coordinator) Campaign(id string) (client.FleetCampaignStatus, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	c, ok := co.campaigns[id]
	if !ok {
		return client.FleetCampaignStatus{}, fmt.Errorf("fleet: unknown campaign %q", id)
	}
	return co.campaignStatusLocked(c), nil
}

// Status returns the whole-fleet snapshot.
func (co *Coordinator) Status() client.FleetStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	st := client.FleetStatus{Requeued: co.requeued}
	names := make([]string, 0, len(co.workers))
	for name := range co.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := co.workers[name]
		state := client.WorkerLive
		if w.dead {
			state = client.WorkerDead
		}
		st.Workers = append(st.Workers, client.WorkerStatus{
			WorkerInfo:    w.info,
			State:         state,
			HeartbeatAge:  time.Since(w.last).Seconds(),
			CellsAssigned: w.assigned,
			CellsDone:     w.done,
			Requeued:      w.requeued,
		})
	}
	for _, id := range co.order {
		st.Campaigns = append(st.Campaigns, co.campaignStatusLocked(co.campaigns[id]))
	}
	return st
}

func (co *Coordinator) campaignStatusLocked(c *campaign) client.FleetCampaignStatus {
	st := client.FleetCampaignStatus{
		ID:               c.id,
		Name:             c.name,
		State:            c.state,
		Cells:            len(c.cells),
		Requeued:         c.requeued,
		Error:            c.errMsg,
		MergedStore:      c.mergedStore,
		MergedCheckpoint: c.mergedCheckpoint,
		Created:          c.created,
		Summary:          c.summary,
	}
	if len(c.perWorker) > 0 {
		st.PerWorker = make(map[string]int, len(c.perWorker))
		for k, v := range c.perWorker {
			st.PerWorker[k] = v
		}
	}
	for _, cr := range c.cells {
		switch cr.state {
		case "done":
			st.Done++
			if cr.summary != nil && cr.summary.Nondet {
				st.Nondet++
			} else {
				st.Learned++
			}
		case "failed":
			st.Failed++
		}
	}
	return st
}

// runCampaign drives one campaign to completion: assignment and job
// polling at the configured cadence, then the merge stage.
func (co *Coordinator) runCampaign(c *campaign) {
	defer co.wg.Done()
	for {
		if co.stepCampaign(c) {
			break
		}
		select {
		case <-co.ctx.Done():
			co.mu.Lock()
			c.state = client.CampaignFailed
			c.errMsg = "coordinator shut down mid-campaign"
			co.mu.Unlock()
			return
		case <-time.After(co.cfg.Poll):
		}
	}
	co.mergeCampaign(c)
}

// submission/pollAction snapshot work to do outside the lock.
type submission struct {
	cr     *cellRun
	worker string
	cli    *client.Client
	spec   client.Spec
}

type pollAction struct {
	cr     *cellRun
	worker string
	cli    *client.Client
	jobID  string
}

// stepCampaign makes one assignment+poll pass and reports whether every
// cell is terminal. HTTP happens outside the lock; results are applied
// back under it, each guarded against a state change (a sweeper requeue)
// that happened in between.
func (co *Coordinator) stepCampaign(c *campaign) bool {
	co.mu.Lock()
	var subs []submission
	var polls []pollAction
	for _, cr := range c.cells {
		switch cr.state {
		case "pending":
			owner := co.ring.Owner(cr.cell.Key)
			if owner == "" {
				continue // no live workers; stay pending
			}
			w := co.workers[owner]
			if w == nil || w.dead {
				continue
			}
			subs = append(subs, submission{
				cr:     cr,
				worker: owner,
				cli:    w.cli,
				spec: client.Spec{
					Kind:   client.KindLearn,
					Target: cr.cell.Target,
					Config: cr.cell.Config,
				},
			})
		case "submitted":
			if w := co.workers[cr.worker]; w != nil && !w.dead {
				polls = append(polls, pollAction{cr: cr, worker: cr.worker, cli: w.cli, jobID: cr.jobID})
			}
		}
	}
	co.mu.Unlock()

	for _, s := range subs {
		st, err := s.cli.Submit(co.ctx, s.spec)
		co.mu.Lock()
		switch {
		case err == nil:
			// Apply only if the cell is still pending and the worker still
			// live: a submit that raced a death just becomes a duplicate
			// execution, which idempotent cells absorb.
			if w := co.workers[s.worker]; w != nil && !w.dead && s.cr.state == "pending" {
				s.cr.state = "submitted"
				s.cr.worker = s.worker
				s.cr.jobID = st.ID
				w.assigned++
				mCellsAssigned.Inc()
			}
		case isTransportError(err):
			co.workerFailedLocked(s.worker)
		default:
			// The daemon answered with an error (draining, bad spec). Keep
			// the cell pending; a draining worker will shortly miss its
			// lease and the ring will re-place the cell.
			co.cfg.Logf("fleet: submit %s to %q: %v", s.cr.cell.Key, s.worker, err)
		}
		co.mu.Unlock()
	}

	for _, p := range polls {
		st, err := p.cli.Job(co.ctx, p.jobID)
		var model []byte
		if err == nil && st.State == client.StateDone && st.Summary != nil && !st.Summary.Nondet {
			model, err = p.cli.Model(co.ctx, p.jobID, "", "json")
		}
		co.mu.Lock()
		// The sweeper may have requeued this cell while we were on the
		// wire; apply only if it is still ours.
		if p.cr.state != "submitted" || p.cr.worker != p.worker || p.cr.jobID != p.jobID {
			co.mu.Unlock()
			continue
		}
		w := co.workers[p.worker]
		switch {
		case err != nil && isTransportError(err):
			co.workerFailedLocked(p.worker)
		case err != nil && isNotFound(err):
			// The worker answered but does not know the job (restarted
			// with a fresh journal dir): requeue.
			co.requeueLocked(c, p.cr, w)
		case err != nil:
			co.cfg.Logf("fleet: poll %s on %q: %v", p.cr.cell.Key, p.worker, err)
		case st.State == client.StateDone:
			p.cr.state = "done"
			p.cr.summary = st.Summary
			p.cr.model = model
			p.cr.doneBy = p.worker
			if w != nil {
				w.assigned--
				w.done++
			}
			c.perWorker[p.worker]++
		case st.State == client.StateFailed:
			p.cr.state = "failed"
			p.cr.errMsg = st.Error
			if w != nil {
				w.assigned--
			}
		case st.State == client.StateCancelled:
			// Cancelled on the worker (drain): take it back.
			co.requeueLocked(c, p.cr, w)
		}
		co.mu.Unlock()
	}

	co.mu.Lock()
	defer co.mu.Unlock()
	for _, cr := range c.cells {
		if cr.state != "done" && cr.state != "failed" {
			return false
		}
	}
	return true
}

// requeueLocked returns a submitted cell to the pending pool.
func (co *Coordinator) requeueLocked(c *campaign, cr *cellRun, w *worker) {
	cr.state = "pending"
	cr.worker = ""
	cr.jobID = ""
	cr.requeues++
	c.requeued++
	co.requeued++
	if w != nil {
		w.assigned--
		w.requeued++
	}
	mCellsRequeued.Inc()
}

// workerFailedLocked counts one job-API transport failure; three in a
// row kill the worker without waiting for the lease.
func (co *Coordinator) workerFailedLocked(name string) {
	w, ok := co.workers[name]
	if !ok || w.dead {
		return
	}
	w.fails++
	if w.fails >= 3 {
		co.cfg.Logf("fleet: worker %q unreachable (%d consecutive failures)", name, w.fails)
		co.markDeadLocked(name)
	}
}

// mergeCampaign pulls every worker's store logs for the campaign's
// cells into one merged store, reconstructs per-cell results, and writes
// the merged checkpoint — after which the campaign reads exactly like a
// single-process `prognosis learn` campaign.
func (co *Coordinator) mergeCampaign(c *campaign) {
	co.mu.Lock()
	c.state = client.CampaignMerging
	keys := map[string]bool{}
	for _, cr := range c.cells {
		keys[cr.cell.Key] = true
	}
	type puller struct {
		name string
		cli  *client.Client
	}
	var pullers []puller
	for name, w := range co.workers {
		if !w.dead {
			pullers = append(pullers, puller{name: name, cli: w.cli})
		}
	}
	// Sorted worker order makes the merge's last-write-wins outcome
	// deterministic run to run.
	sort.Slice(pullers, func(i, j int) bool { return pullers[i].name < pullers[j].name })
	co.mu.Unlock()

	dir := filepath.Join(co.cfg.Dir, "campaigns", c.id)
	storeDir := filepath.Join(dir, "store")
	fail := func(err error) {
		co.mu.Lock()
		c.state = client.CampaignFailed
		c.errMsg = err.Error()
		co.mu.Unlock()
		co.cfg.Logf("fleet: campaign %s merge failed: %v", c.id, err)
	}
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		fail(err)
		return
	}
	for _, p := range pullers {
		workerKeys, err := p.cli.StoreKeys(co.ctx)
		if err != nil {
			// A worker dying during merge costs its unmerged log lines,
			// not the campaign: the checkpoint's models came through the
			// job API already.
			co.cfg.Logf("fleet: merge: list store of %q: %v", p.name, err)
			continue
		}
		pullDir := filepath.Join(dir, "pull", p.name)
		if err := os.MkdirAll(pullDir, 0o755); err != nil {
			fail(err)
			return
		}
		for _, key := range workerKeys {
			if !keys[key] {
				continue
			}
			raw, err := p.cli.StoreLog(co.ctx, key)
			if err != nil {
				co.cfg.Logf("fleet: merge: pull %s from %q: %v", key, p.name, err)
				continue
			}
			if err := os.WriteFile(filepath.Join(pullDir, key+".log"), raw, 0o644); err != nil {
				fail(err)
				return
			}
			if err := mergeOne(storeDir, pullDir, key); err != nil {
				fail(err)
				return
			}
		}
	}

	co.mu.Lock()
	var results []lab.RunResult
	for _, cr := range c.cells {
		rr := lab.RunResult{Name: cr.cell.Key, Target: cr.cell.Target}
		switch cr.state {
		case "done":
			var metrics lab.Metrics
			var nondet *core.NondeterminismError
			if sum := cr.summary; sum != nil {
				metrics = lab.Metrics{
					Learner:  learn.Stats{Queries: sum.Queries, Symbols: sum.Symbols, Hits: sum.Hits},
					Guard:    core.GuardStats{Escalations: sum.GuardEscalations},
					Duration: sum.Duration,
				}
				if sum.Nondet {
					nondet = &core.NondeterminismError{Word: sum.NondetWord}
				}
			}
			var machine *automata.Mealy
			if len(cr.model) > 0 {
				m, err := automata.Decode(cr.model)
				if err != nil {
					co.mu.Unlock()
					fail(fmt.Errorf("decode model of cell %s: %w", cr.cell.Key, err))
					return
				}
				machine = m
			}
			rr.Result = lab.RestoreResult(cr.cell.Target, lab.LearnerKind(cr.cell.Config.Learner),
				machine, nondet, metrics)
			mCellsMerged.Inc()
		case "failed":
			rr.Err = errors.New(cr.errMsg)
		default:
			rr.Err = fmt.Errorf("cell never completed (state %s)", cr.state)
		}
		results = append(results, rr)
	}
	co.mu.Unlock()

	ckpt := filepath.Join(dir, "checkpoint.jsonl")
	if err := lab.WriteCheckpoint(ckpt, results); err != nil {
		fail(err)
		return
	}
	sum := lab.Summarize(results)
	co.mu.Lock()
	c.state = client.CampaignDone
	c.mergedStore = storeDir
	c.mergedCheckpoint = ckpt
	c.summary = fmt.Sprintf("learned %d, nondet %d, failed %d of %d cells (requeued %d)",
		sum.Learned, sum.Nondet, sum.Failed, len(c.cells), c.requeued)
	co.mu.Unlock()
	co.cfg.Logf("fleet: campaign %s done: %s", c.id, c.summary)
}

// mergeOne folds one pulled per-worker log into the merged store via
// learn.MergeStores (last-write-wins on conflicting words).
func mergeOne(storeDir, pullDir, key string) error {
	src, err := learn.OpenStore(pullDir, key)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := learn.OpenStore(storeDir, key)
	if err != nil {
		return err
	}
	defer dst.Close()
	_, err = learn.MergeStores(dst, src)
	return err
}

// isTransportError reports whether err is a failure to reach the daemon
// at all (connection refused/reset, timeout), as opposed to an HTTP
// error answered by a live daemon.
func isTransportError(err error) bool {
	if err == nil {
		return false
	}
	var apiErr *client.APIError
	return !errors.As(err, &apiErr)
}

func isNotFound(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Code == http.StatusNotFound
}
