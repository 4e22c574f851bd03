// Package metrics is the unified metrics plane: a lightweight registry
// of counters, gauges, and histograms with atomic hot-path updates and
// Prometheus text exposition. It replaces the scattered per-subsystem
// snapshot structs as the scrapeable observability surface — the learn
// pool, the voting guard, the batched transport, the netem links, and
// the prognosisd job manager all publish into the process-wide Default
// registry, and `GET /metrics` on prognosisd renders it in the
// Prometheus text format (docs/MONITORING.md lists every family).
//
// The package is dependency-free by design (it sits below learn, core,
// transport, and netem in the import graph) and the hot-path cost of an
// update is one atomic add — cheap enough for the membership-query inner
// loop, which already pays several atomic counter updates per query.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's Prometheus type.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use and lock-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; negative adds are clamped to keep the
// counter monotonic, since a decreasing counter breaks every rate()
// computed over it).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (CAS loop; contended gauges are not a
// hot-path concern here).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one. Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into cumulative buckets, with a running
// sum and count, matching the Prometheus histogram exposition
// (`_bucket{le=...}`, `_sum`, `_count`). Observations are lock-free.
type Histogram struct {
	bounds []float64 // upper bounds, sorted ascending; +Inf is implicit
	counts []atomic.Int64
	inf    atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b))}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v)
	if idx < len(h.bounds) {
		h.counts[idx].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// family is one registered metric family: a name, help text, a kind,
// and its children keyed by rendered label pairs.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	bounds   []float64
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. The zero value is not usable; call
// NewRegistry (or use Default).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry every built-in subsystem
// publishes into, served by prognosisd's GET /metrics.
func Default() *Registry { return defaultRegistry }

// lookup returns the named family, creating it on first use. A name
// re-registered with a different kind or label set panics: that is a
// programming error (two subsystems fighting over one family name), not
// a runtime condition.
func (r *Registry) lookup(name, help string, kind Kind, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind, labels: labels,
			counters: map[string]*Counter{},
			gauges:   map[string]*Gauge{},
			hists:    map[string]*Histogram{},
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("metrics: %s re-registered as %s/%v (was %s/%v)",
			name, kind, labels, f.kind, f.labels))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("metrics: %s re-registered with labels %v (was %v)",
				name, labels, f.labels))
		}
	}
	return f
}

// labelKey renders a label-value list into the exposition form
// `{k="v",...}` used both as the child map key and verbatim in output.
func labelKey(labels, values []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// Counter returns the unlabelled counter of the named family, creating
// the family on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterWith(name, help, nil, nil)
}

// CounterWith returns the counter child of the named family for the
// given label values (labels declare the family's label names; every
// call must pass the same names).
func (r *Registry) CounterWith(name, help string, labels, values []string) *Counter {
	f := r.lookup(name, help, KindCounter, labels)
	key := labelKey(labels, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.counters[key]
	if !ok {
		c = &Counter{}
		f.counters[key] = c
	}
	return c
}

// Gauge returns the unlabelled gauge of the named family.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeWith(name, help, nil, nil)
}

// GaugeWith returns the gauge child for the given label values.
func (r *Registry) GaugeWith(name, help string, labels, values []string) *Gauge {
	f := r.lookup(name, help, KindGauge, labels)
	key := labelKey(labels, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	g, ok := f.gauges[key]
	if !ok {
		g = &Gauge{}
		f.gauges[key] = g
	}
	return g
}

// Histogram returns the unlabelled histogram of the named family with
// the given bucket upper bounds (+Inf implicit; bounds are fixed at
// first registration).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramWith(name, help, nil, nil, bounds)
}

// HistogramWith returns the histogram child of the named family for the
// given label values. Every child shares the family's bucket bounds
// (fixed at first registration); exposition renders `le` as the last
// label inside each child's brace set, per the Prometheus text format.
func (r *Registry) HistogramWith(name, help string, labels, values []string, bounds []float64) *Histogram {
	f := r.lookup(name, help, KindHistogram, labels)
	key := labelKey(labels, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.bounds == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		f.bounds = b
	}
	h, ok := f.hists[key]
	if !ok {
		h = newHistogram(f.bounds)
		f.hists[key] = h
	}
	return h
}

// histKey splices the le label into a child's rendered label key:
// `{worker="w1"}` + le 0.5 → `{worker="w1",le="0.5"}`, and the
// unlabelled key "" → `{le="0.5"}`.
func histKey(key, le string) string {
	if key == "" {
		return `{le="` + le + `"}`
	}
	return key[:len(key)-1] + `,le="` + le + `"}`
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders every family in the Prometheus text exposition
// format (version 0.0.4), families and children sorted by name so the
// output is stable scrape to scrape.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		f.mu.Lock()
		lines := make([]string, 0, len(f.counters)+len(f.gauges)+8)
		switch f.kind {
		case KindCounter:
			for key, c := range f.counters {
				lines = append(lines, fmt.Sprintf("%s%s %d", f.name, key, c.Value()))
			}
		case KindGauge:
			for key, g := range f.gauges {
				lines = append(lines, fmt.Sprintf("%s%s %s", f.name, key, formatFloat(g.Value())))
			}
		case KindHistogram:
			keys := make([]string, 0, len(f.hists))
			for key := range f.hists {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for _, key := range keys {
				h := f.hists[key]
				cum := int64(0)
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					lines = append(lines, fmt.Sprintf("%s_bucket%s %d", f.name, histKey(key, formatFloat(bound)), cum))
				}
				cum += h.inf.Load()
				lines = append(lines, fmt.Sprintf("%s_bucket%s %d", f.name, histKey(key, "+Inf"), cum))
				lines = append(lines, fmt.Sprintf("%s_sum%s %s", f.name, key, formatFloat(h.Sum())))
				lines = append(lines, fmt.Sprintf("%s_count%s %d", f.name, key, h.Count()))
			}
		}
		f.mu.Unlock()
		if f.kind != KindHistogram {
			sort.Strings(lines)
		}
		for _, line := range lines {
			if _, err := io.WriteString(w, line+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
