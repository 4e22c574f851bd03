package learn

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one typed progress notification from a learning run. Events are
// emitted by the learners at their MAT-loop synchronisation points and by
// the experiment driver (cache snapshots, nondeterminism reports), so a
// long-running run is observable while it is still in flight instead of
// only reporting when it finishes.
type Event interface {
	// Kind returns the stable machine-readable event name used in logs
	// and JSONL streams.
	Kind() string
}

// RoundStarted marks the beginning of one MAT round (hypothesis
// construction followed by an equivalence query).
type RoundStarted struct {
	Round int `json:"round"`
}

// Kind implements Event.
func (RoundStarted) Kind() string { return "round_started" }

// HypothesisReady reports a freshly constructed hypothesis.
type HypothesisReady struct {
	Round       int `json:"round"`
	States      int `json:"states"`
	Transitions int `json:"transitions"`
}

// Kind implements Event.
func (HypothesisReady) Kind() string { return "hypothesis_ready" }

// CounterexampleFound reports that the equivalence search refuted the
// current hypothesis with the given word.
type CounterexampleFound struct {
	Round int      `json:"round"`
	Word  []string `json:"word"`
}

// Kind implements Event.
func (CounterexampleFound) Kind() string { return "counterexample_found" }

// CacheSnapshot reports the query cache and live-traffic counters, emitted
// once per round by the experiment driver after each hypothesis.
type CacheSnapshot struct {
	Round       int   `json:"round"`
	Entries     int   `json:"entries"`
	LiveQueries int64 `json:"live_queries"`
	Symbols     int64 `json:"symbols"`
	Hits        int64 `json:"hits"`
}

// Kind implements Event.
func (CacheSnapshot) Kind() string { return "cache_snapshot" }

// NondeterminismDetected reports that the §5 voting guard halted the run:
// repeated executions of Word disagreed beyond the certainty threshold.
type NondeterminismDetected struct {
	Word         []string `json:"word"`
	Alternatives int      `json:"alternatives"`
	Votes        int      `json:"votes"`
}

// Kind implements Event.
func (NondeterminismDetected) Kind() string { return "nondeterminism_detected" }

// GuardEscalated reports that the §5 voting guard raised the vote budget
// of one query: the votes cast so far left its sequential test undecided,
// so the guard keeps voting up to Budget. FaultRate is the link's measured
// fault rate the test weighs the votes against.
type GuardEscalated struct {
	Word      []string `json:"word"`
	Votes     int      `json:"votes"`
	Budget    int      `json:"budget"`
	FaultRate float64  `json:"fault_rate"`
}

// Kind implements Event.
func (GuardEscalated) Kind() string { return "guard_escalated" }

// WindowResized reports that the adaptive in-flight window changed size:
// additive increase grew it past the next integer, or a loss signal cut it
// multiplicatively. SRTT is the smoothed per-query round-trip estimate at
// the moment of the resize (zero before the first timed completion).
type WindowResized struct {
	From int           `json:"from"`
	To   int           `json:"to"`
	SRTT time.Duration `json:"srtt"`
}

// Kind implements Event.
func (WindowResized) Kind() string { return "window_resized" }

// AdapterRestarted reports that one worker's external adapter
// subprocess was restarted (crash, query deadline, or protocol desync)
// and its in-flight word replayed. Restarts is the worker's lifetime
// restart count; Reason is the failure that triggered this one.
type AdapterRestarted struct {
	Worker   int    `json:"worker"`
	Restarts int    `json:"restarts"`
	Reason   string `json:"reason"`
}

// Kind implements Event.
func (AdapterRestarted) Kind() string { return "adapter_restarted" }

// Observer receives learning events. OnEvent may be called from the
// learner's goroutine while queries are in flight, and — in a campaign —
// from several runs at once; implementations shared across runs must be
// safe for concurrent use.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e Event) { f(e) }

// MultiObserver fans every event out to all given observers (nils are
// skipped).
func MultiObserver(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	return ObserverFunc(func(e Event) {
		for _, o := range live {
			o.OnEvent(e)
		}
	})
}

// notify delivers e to obs if an observer is installed.
func notify(obs Observer, e Event) {
	if obs != nil {
		obs.OnEvent(e)
	}
}

// JSONLObserver streams events as JSON lines — one object per event with
// an "event" tag and the event payload under "data". It is safe for
// concurrent use, so one stream can serve a whole campaign.
type JSONLObserver struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLObserver returns an observer writing JSON lines to w.
func NewJSONLObserver(w io.Writer) *JSONLObserver {
	return &JSONLObserver{enc: json.NewEncoder(w)}
}

// OnEvent implements Observer. Encoding errors are dropped: the event
// stream is diagnostics, never control flow.
func (o *JSONLObserver) OnEvent(e Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	_ = o.enc.Encode(struct {
		Event string `json:"event"`
		Data  Event  `json:"data"`
	}{e.Kind(), e})
}
