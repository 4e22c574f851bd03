// Command benchgate is the CI benchmark gate. It compares perfbench runs
// of a change with runs of its parent commit, metric by metric, against
// BENCHMARK.json, and exits 1 on a regression:
//
//	go run ./cmd/benchgate -parent runs/parent -change runs/change
//
// Each directory holds `perfbench --workload all --trace 0` output, one
// file per run (pairs.sh here makes them); a line starting with '{' is a
// run's result line. For every workload and end_to_end metric it compares
// the two sides' medians and quartiles. A metric whose runs are all equal
// on both sides (the deterministic live-query counts) fails on any move in
// its worse direction. Any other metric fails when the change's median is
// worse by more than its bound and the interquartile ranges are disjoint;
// with overlapping ranges it is unresolved and passes, since the runs
// cannot tell that move from noise. A change run with correct=false fails,
// as does a higher share of failed operations. A parent's incorrect run is
// not gated, so that a change repairing it can pass.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // largest tolerated relative worsening of the median
}

// run is one perfbench result line.
type run struct {
	Correct   bool                               `json:"correct"`
	Attempted int                                `json:"attempted"`
	Failed    int                                `json:"failed"`
	Metrics   map[string]struct{ Value float64 } `json:"metrics"`
}

func main() {
	benchmark := flag.String("benchmark", "BENCHMARK.json", "the benchmark declaration: workloads and end-to-end metrics with their bounds")
	parentDir := flag.String("parent", "", "directory of the parent commit's perfbench output, one file per run")
	changeDir := flag.String("change", "", "directory of the change's perfbench output, one file per run")
	flag.Parse()
	if *parentDir == "" || *changeDir == "" || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	s, err := readSpec(*benchmark)
	var parent, change []run
	if err == nil {
		parent, err = readRuns(*parentDir)
	}
	if err == nil {
		change, err = readRuns(*changeDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if !gate(os.Stdout, s, parent, change) {
		os.Exit(1)
	}
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range s.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: %s: better is %q, want lower or higher", path, m.Name, m.Better)
		}
	}
	return &s, nil
}

// readRuns reads the result lines of every file in dir.
func readRuns(dir string) ([]run, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	var runs []run
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) > 0 && line[0] == '{' {
				var r run
				if err := json.Unmarshal(line, &r); err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				runs = append(runs, r)
			}
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no perfbench result lines", dir)
	}
	return runs, nil
}

// summary is one side's samples of one metric.
type summary struct{ min, q1, med, q3, max float64 }

// summarize takes the quartiles of metric key over the runs that report
// it, interpolating linearly between order statistics; nil if none does.
func summarize(runs []run, key string) *summary {
	var s []float64
	for _, r := range runs {
		if m, ok := r.Metrics[key]; ok {
			s = append(s, m.Value)
		}
	}
	if len(s) == 0 {
		return nil
	}
	slices.Sort(s)
	at := func(p float64) float64 {
		i, frac := math.Modf(p * float64(len(s)-1))
		return s[int(i)] + frac*(s[min(int(i)+1, len(s)-1)]-s[int(i)])
	}
	return &summary{min: s[0], q1: at(0.25), med: at(0.5), q3: at(0.75), max: s[len(s)-1]}
}

// judge applies the gate's rules to one metric. worse is the change's
// median move in the metric's worse direction relative to the parent's
// median.
func judge(m metricSpec, p, c *summary) (verdict, rule string, worse float64) {
	move := c.med - p.med
	if m.Better == "higher" {
		move = -move
	}
	if move != 0 {
		worse = move / math.Abs(p.med) // ±Inf when the parent's median is 0
	}
	if p.min == p.max && c.min == c.max {
		if move > 0 {
			return "FAIL", "exact", worse
		}
		return "ok", "exact", worse
	}
	rule = fmt.Sprintf("%+.0f%%", m.Bound*100)
	disjoint := c.q1 > p.q3
	if m.Better == "higher" {
		disjoint = c.q3 < p.q1
	}
	switch {
	case worse <= m.Bound:
		return "ok", rule, worse
	case disjoint:
		return "FAIL", rule, worse
	}
	return "unresolved", rule, worse
}

// gate prints the report to w and reports whether the change passes.
func gate(w io.Writer, s *spec, parent, change []run) bool {
	pass := true
	fmt.Fprintf(w, "benchgate: %d parent runs, %d change runs; each cell is the median [Q1, Q3]\n", len(parent), len(change))
	var att, failed [2]int // parent, change
	for side, runs := range [][]run{parent, change} {
		for i, r := range runs {
			att[side] += r.Attempted
			failed[side] += r.Failed
			if side == 1 && !r.Correct {
				fmt.Fprintf(w, "FAIL change run %d: correct=false\n", i+1)
				pass = false
			}
		}
	}
	verdict := "ok"
	if att[1] == 0 || failed[1]*att[0] > failed[0]*att[1] {
		verdict, pass = "FAIL", false
	}
	fmt.Fprintf(w, "%s failed operations: parent %d of %d, change %d of %d\n", verdict, failed[0], att[0], failed[1], att[1])

	cell := func(x *summary, unit string) string {
		if x == nil {
			return "—"
		}
		prec := 4
		if unit == "count" {
			prec = 7 // counts print exactly
		}
		return fmt.Sprintf("%.*g [%.*g, %.*g] %s", prec, x.med, prec, x.q1, prec, x.q3, unit)
	}
	// A line without cells ends a column block: the tables align apart.
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\nthroughput and latency, parent → change")
	fmt.Fprintln(tw, "workload\tpass_s\tlatency_p50_s\tlatency_tail_s")
	for _, wl := range s.Workloads {
		row := []string{wl.Name}
		for _, name := range []string{"pass_s", "latency_p50_s", "latency_tail_s"} {
			key := wl.Name + "." + name
			row = append(row, cell(summarize(parent, key), "s")+" → "+cell(summarize(change, key), "s"))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	fmt.Fprintln(tw, "\nend-to-end metrics")
	fmt.Fprintln(tw, "workload\tmetric\tparent\tchange\tworse by\trule\tverdict")
	for _, wl := range s.Workloads {
		for _, m := range s.EndToEnd {
			key := wl.Name + "." + m.Name
			p, c := summarize(parent, key), summarize(change, key)
			var worse, rule, verdict string
			switch {
			case p == nil && c == nil:
				continue
			case p == nil:
				verdict = "new"
			case c == nil:
				verdict, pass = "FAIL (missing)", false
			default:
				var by float64
				verdict, rule, by = judge(m, p, c)
				worse = fmt.Sprintf("%+.1f%%", by*100)
				pass = pass && verdict != "FAIL"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", wl.Name, m.Name, cell(p, m.Unit), cell(c, m.Unit), worse, rule, verdict)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "\nbenchgate: pass=%v\n", pass)
	return pass
}
