package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lab"
	"repro/internal/learn"
	"repro/internal/reference"
)

// Span is one timed call across a layer boundary, recorded by the
// benchmark around a call into a layer's public surface. Spans of one
// cell or job share an ID; Parent indexes the enclosing span (noParent
// for a root, rootParent for "the root of my ID", resolved by link).
type Span struct {
	ID     string
	Name   string // "<layer>.<call>", e.g. "lab.NewExperiment"
	Parent int
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

const (
	noParent   = -1
	rootParent = -2
)

// layer is the span name's module prefix.
func (s Span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans and named counters in memory for the traced half of
// a run; they are written out and summarised when the run ends.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []Span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counters: map[string]float64{}}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(id, name string, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: id, Name: name, Parent: parent, Start: start, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// record adds a span whose interval is already known.
func (t *tracer) record(id, name string, parent int, start, end time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: id, Name: name, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

// add accumulates a named counter.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// snapshot returns the spans recorded so far with rootParent links
// resolved to the first root span of the same ID.
func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	return link(spans)
}

func link(spans []Span) []Span {
	roots := map[string]int{}
	for i, s := range spans {
		if s.Parent == noParent {
			if _, ok := roots[s.ID]; !ok {
				roots[s.ID] = i
			}
		}
	}
	for i := range spans {
		if spans[i].Parent == rootParent {
			if r, ok := roots[spans[i].ID]; ok {
				spans[i].Parent = r
			} else {
				spans[i].Parent = noParent
			}
		}
	}
	return spans
}

// sumByName totals the durations of every closed span with this name.
func sumByName(spans []Span, name string) (total time.Duration, n int) {
	for _, s := range spans {
		if s.Name == name && s.End >= 0 {
			total += s.End - s.Start
			n++
		}
	}
	return total, n
}

// selfTimes returns each layer's self time: for every closed span, its
// duration minus the union of its children's intervals (clipped to the
// span), summed by layer. Children may overlap each other — pool workers
// run exchanges concurrently — so they are merged, never summed.
func selfTimes(spans []Span) map[string]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			cs := spans[c]
			if cs.End < 0 {
				continue
			}
			ivs = append(ivs, [2]time.Duration{max(cs.Start, s.Start), min(cs.End, s.End)})
		}
		out[s.layer()] += s.End - s.Start - unionLen(ivs)
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total time.Duration
	var curS, curE time.Duration
	open := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		switch {
		case !open:
			curS, curE, open = iv[0], iv[1], true
		case iv[0] <= curE:
			curE = max(curE, iv[1])
		default:
			total += curE - curS
			curS, curE = iv[0], iv[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeSpans writes one tab-separated line per span: id, name, parent
// index, start and end in nanoseconds since the tracer's epoch.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tname\tparent\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\n", s.ID, s.Name, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// learnTrace follows one experiment's learning run from the outside: the
// observer turns the event stream into learn.hypothesis and
// learn.equivalence spans (RoundStarted → HypothesisReady →
// next RoundStarted), and the link middleware wraps every replica's
// transport in a transport.exchange span parented to the phase in
// flight. stats, when set, is read at each event to split live queries
// between the two phases.
type learnTrace struct {
	tr     *tracer
	id     atomic.Pointer[string] // read by pool workers in the middleware
	parent int                    // the span the phases nest under (lab.Learn)

	phase     atomic.Int64 // index of the span exchanges nest under
	phaseSpan int          // open phase span, -1 when none
	hypo      bool         // the open phase is hypothesis construction
	lastQ     int64
	stats     func() learn.Stats
}

func newLearnTrace(tr *tracer, id string, parent int) *learnTrace {
	lt := &learnTrace{tr: tr, phaseSpan: -1}
	lt.startRun(id)
	lt.setParent(parent)
	return lt
}

// startRun names the cell or job the next learning run's spans belong
// to; call it between runs. Learn zeroes the live-traffic counters, so
// the query split restarts from zero too.
func (lt *learnTrace) startRun(id string) {
	lt.id.Store(&id)
	lt.lastQ = 0
}

func (lt *learnTrace) currentID() string { return *lt.id.Load() }

// options are the lab options that install the trace on an experiment.
func (lt *learnTrace) options() []lab.Option {
	return []lab.Option{lab.WithObserver(lt), lab.WithLinkMiddleware(lt.middleware)}
}

// setParent makes later exchanges and phases nest under span i.
func (lt *learnTrace) setParent(i int) {
	lt.parent = i
	lt.phase.Store(int64(i))
}

// OnEvent implements learn.Observer. Events arrive from the learner's
// goroutine, one at a time.
func (lt *learnTrace) OnEvent(e learn.Event) {
	switch ev := e.(type) {
	case learn.RoundStarted:
		lt.tr.add("learn.rounds", 1)
		lt.open("learn.hypothesis", true)
	case learn.HypothesisReady:
		lt.open("learn.equivalence", false)
	case learn.CounterexampleFound:
		lt.tr.add("learn.counterexamples", 1)
	case learn.CacheSnapshot:
		if lt.stats == nil {
			// No experiment handle (the daemon's runs): the snapshot,
			// emitted right after HypothesisReady, carries the count.
			lt.tr.add("learn.hypothesis_queries", float64(ev.LiveQueries-lt.lastQ))
			lt.lastQ = ev.LiveQueries
		}
	}
}

// open closes the phase in flight and starts the next one.
func (lt *learnTrace) open(name string, hypo bool) {
	lt.close()
	lt.phaseSpan = lt.tr.begin(lt.currentID(), name, lt.parent)
	lt.hypo = hypo
	lt.phase.Store(int64(lt.phaseSpan))
}

// close ends the phase in flight, charging its live queries to it.
func (lt *learnTrace) close() {
	if lt.phaseSpan < 0 {
		return
	}
	lt.tr.end(lt.phaseSpan)
	if lt.stats != nil {
		q := lt.stats().Queries
		if lt.hypo {
			lt.tr.add("learn.hypothesis_queries", float64(q-lt.lastQ))
		} else {
			lt.tr.add("learn.equivalence_queries", float64(q-lt.lastQ))
		}
		lt.lastQ = q
	}
	lt.phaseSpan = -1
	lt.phase.Store(int64(lt.parent))
}

// middleware is the lab.LinkMiddleware: one span per datagram exchange,
// plus counts of datagrams each way and of silent exchanges (no response
// datagram: the transport waited out its quiet period).
func (lt *learnTrace) middleware(_ int, next reference.Transport) reference.Transport {
	return reference.TransportFunc(func(src string, datagram []byte) [][]byte {
		start := lt.tr.now()
		resp := next.Send(src, datagram)
		end := lt.tr.now()
		lt.tr.record(lt.currentID(), "transport.exchange", int(lt.phase.Load()), start, end)
		lt.tr.mu.Lock()
		c := lt.tr.counters
		c["transport.exchanges"]++
		c["transport.send_s"] += (end - start).Seconds()
		c["transport.datagrams_out"]++
		c["transport.datagrams_in"] += float64(len(resp))
		if len(resp) == 0 {
			c["transport.silent_exchanges"]++
			c["transport.silent_s"] += (end - start).Seconds()
		}
		lt.tr.mu.Unlock()
		return resp
	})
}
