package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// universalLayerMetrics are the per-layer metrics every workload
// measures with a nonzero value; a traced run's result line carries
// exactly these. The full per-workload table is printed above it.
var universalLayerMetrics = []string{
	"learn.rounds", "learn.hypothesis_s", "learn.equivalence_s",
	"learn.cache_hits", "learn.cache_hit_ratio", "core.guard_votes",
	"cpu.profiled_s", "cpu.gc_s",
	"runtime.alloc_mb", "runtime.mallocs", "runtime.gc_cycles", "runtime.gc_pause_s",
	"trace.overhead_ratio", "trace.spans",
}

// row is one per-layer metric with the span or counter it came from.
type row struct {
	value  float64
	unit   string
	source string
}

type layers struct {
	rows  map[string]row
	order []string
}

func (l *layers) set(name string, value float64, unit, source string) {
	if _, ok := l.rows[name]; !ok {
		l.order = append(l.order, name)
	}
	l.rows[name] = row{value, unit, source}
}

func (l *layers) print(workload string) {
	fmt.Println("# per-layer metrics of the traced half, per pass unless noted")
	for _, name := range l.order {
		r := l.rows[name]
		fmt.Printf("%s %-28s %14.6f %-6s %s\n", workload, name, r.value, r.unit, r.source)
	}
}

// perLayer turns the traced half's spans, counters, metrics-plane deltas,
// memory statistics and CPU profile into the per-layer table.
func perLayer(tr *tracer, spans []Span, untraced, traced []passOut, before, after promSnapshot,
	ms0, ms1 *runtime.MemStats, byModule map[string]time.Duration) *layers {
	l := &layers{rows: map[string]row{}}
	n := float64(len(traced))
	perPass := func(v float64) float64 { return v / n }
	spanSum := func(name string) float64 {
		d, _ := sumByName(spans, name)
		return d.Seconds()
	}
	ctr := func(name string) float64 { return perPass(tr.counter(name)) }
	plane := func(series string) float64 { return after.delta(before, series) }

	d, builds := sumByName(spans, "lab.NewExperiment")
	l.set("lab.build_s", safeDiv(d.Seconds(), float64(builds)), "s", "span lab.NewExperiment, mean per build")
	l.set("lab.builds", float64(builds), "count", "lab.NewExperiment spans in the run")

	l.set("learn.rounds", ctr("learn.rounds"), "count", "RoundStarted events")
	l.set("learn.counterexamples", ctr("learn.counterexamples"), "count", "CounterexampleFound events")
	l.set("learn.hypothesis_s", perPass(spanSum("learn.hypothesis")), "s", "spans learn.hypothesis (RoundStarted→HypothesisReady)")
	l.set("learn.equivalence_s", perPass(spanSum("learn.equivalence")), "s", "spans learn.equivalence (HypothesisReady→next round or end)")
	l.set("learn.hypothesis_queries", ctr("learn.hypothesis_queries"), "count", "Experiment.Stats() at each event (daemon: CacheSnapshot)")
	l.set("learn.equivalence_queries", ctr("learn.equivalence_queries"), "count", "Experiment.Stats() at each event")
	hits, queries := plane("prognosis_learn_cache_hits_total"), plane("prognosis_learn_queries_total")
	l.set("learn.cache_hits", perPass(hits), "count", "metrics prognosis_learn_cache_hits_total")
	l.set("learn.cache_hit_ratio", safeDiv(hits, hits+queries), "ratio", "hits / (hits + live queries)")
	l.set("learn.store_open_s", perPass(spanSum("learn.OpenStore")), "s", "spans learn.OpenStore")
	l.set("learn.store_entries", ctr("learn.store_entries"), "count", "Store.Entries() after open")
	l.set("learn.store_appends", ctr("learn.store_appends"), "count", "Store.Entries() growth across Learn")
	l.set("learn.store_mb", ctr("learn.store_mb"), "MB", "store directory size after the pass")
	l.set("learn.window_acquired", ctr("learn.window_acquired"), "count", "lab.Result Metrics().Window.Acquired")
	l.set("learn.window_decreases", ctr("learn.window_decreases"), "count", "lab.Result Metrics().Window.Decreases")
	l.set("learn.window_srtt_ms", ctr("learn.window_srtt_ms"), "ms", "lab.Result Metrics().Window.SRTT")

	votes, wasted := plane("prognosis_guard_votes_total"), plane("prognosis_guard_wasted_votes_total")
	l.set("core.guard_votes", perPass(votes), "count", "metrics prognosis_guard_votes_total")
	l.set("core.guard_wasted_votes", perPass(wasted), "count", "metrics prognosis_guard_wasted_votes_total")
	l.set("core.guard_escalations", perPass(plane("prognosis_guard_escalations_total")), "count", "metrics prognosis_guard_escalations_total")
	l.set("core.guard_useful_ratio", safeDiv(votes-wasted, votes), "ratio", "(votes - wasted) / votes")

	for _, c := range []struct{ name, unit, source string }{
		{"transport.exchanges", "count", "spans transport.exchange (WithLinkMiddleware)"},
		{"transport.send_s", "s", "spans transport.exchange"},
		{"transport.silent_exchanges", "count", "exchanges answered by no datagram"},
		{"transport.silent_s", "s", "spans transport.exchange with no answer"},
		{"transport.datagrams_in", "count", "datagrams returned through the middleware"},
		{"transport.datagrams_out", "count", "datagrams sent through the middleware"},
	} {
		l.set(c.name, ctr(c.name), c.unit, c.source)
	}
	l.set("transport.syscalls_saved", perPass(plane("prognosis_transport_syscalls_saved_total")), "count", "metrics prognosis_transport_syscalls_saved_total")
	l.set("transport.batch_size_mean", safeDiv(plane("prognosis_transport_batch_size_sum"), plane("prognosis_transport_batch_size_count")),
		"count", "metrics prognosis_transport_batch_size sum / count")

	dropped := plane(`prognosis_netem_dropped_total{dir="client"}`) + plane(`prognosis_netem_dropped_total{dir="server"}`)
	sent := plane(`prognosis_netem_datagrams_total{dir="client"}`) + plane(`prognosis_netem_datagrams_total{dir="server"}`)
	l.set("netem.dropped", perPass(dropped), "count", "metrics prognosis_netem_dropped_total")
	l.set("netem.drop_ratio", safeDiv(dropped, sent), "ratio", "dropped / offered datagrams")

	var profiled time.Duration
	for _, m := range cpuModules {
		l.set("cpu."+m+"_s", perPass(byModule[m].Seconds()), "s", "CPU profile, innermost module frame (go tool pprof -traces)")
		profiled += byModule[m]
	}
	l.set("cpu.profiled_s", perPass(profiled.Seconds()), "s", "CPU profile, all samples")

	l.set("runtime.alloc_mb", perPass(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6), "MB", "runtime.MemStats TotalAlloc")
	l.set("runtime.mallocs", perPass(float64(ms1.Mallocs-ms0.Mallocs)), "count", "runtime.MemStats Mallocs")
	l.set("runtime.gc_cycles", perPass(float64(ms1.NumGC-ms0.NumGC)), "count", "runtime.MemStats NumGC")
	l.set("runtime.gc_pause_s", perPass(float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e9), "s", "runtime.MemStats PauseTotalNs")

	l.set("analysis.compare_s", perPass(spanSum("analysis.compare")), "s", "spans analysis.compare (LoadModel + CompareGolden)")

	jobs := tr.counter("server.jobs")
	perJob := func(v float64) float64 { return safeDiv(v, jobs) }
	l.set("server.submit_s", perJob(spanSum("server.submit")), "s", "span server.submit (client Submit), mean per job")
	l.set("server.model_fetch_s", perJob(spanSum("server.model_fetch")), "s", "span server.model_fetch (client Model), mean per job")
	l.set("server.queue_wait_s", perJob(spanSum("server.queue_wait")), "s", "job status Created→Started, mean per job")
	l.set("server.run_s", perJob(spanSum("server.run")), "s", "span server.run (wrapped Runner), mean per job")
	l.set("server.journal_s", perJob(spanSum("server.journal")), "s", "spans server.journal (wrapped Backend.Append), per job")
	l.set("server.journal_appends", perJob(tr.counter("server.journal_appends")), "count", "Backend.Append calls per job")
	l.set("server.overhead_s", perJob(tr.counter("server.latency_s")-spanSum("server.run")), "s", "job latency minus server.run, mean per job")
	l.set("server.sse_events", ctr("server.sse_events"), "count", "/v1/stats events_published growth")
	l.set("server.sse_dropped", ctr("server.sse_dropped"), "count", "/v1/stats events_dropped growth")

	self := selfTimes(spans)
	layerNames := make([]string, 0, len(self))
	for name := range self {
		layerNames = append(layerNames, name)
	}
	sort.Strings(layerNames)
	for _, name := range layerNames {
		l.set("self."+name+"_s", perPass(self[name].Seconds()), "s", "span duration minus the union of its children, summed")
	}

	var uw, tw []float64
	for _, p := range untraced {
		uw = append(uw, p.wall.Seconds())
	}
	for _, p := range traced {
		tw = append(tw, p.wall.Seconds())
	}
	u, t := median(uw), median(tw)
	l.set("trace.untraced_pass_s", u, "s", fmt.Sprintf("median of %d untraced passes", len(uw)))
	l.set("trace.traced_pass_s", t, "s", fmt.Sprintf("median of %d traced passes", len(tw)))
	l.set("trace.overhead_s", t-u, "s", "traced pass_s minus untraced pass_s")
	l.set("trace.overhead_ratio", safeDiv(t, u), "ratio", "traced pass_s / untraced pass_s")
	l.set("trace.spans", perPass(float64(len(spans))), "count", "spans recorded")
	return l
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
