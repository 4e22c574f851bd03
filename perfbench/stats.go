package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tail returns the highest percentile of xs that still has tailBeyond
// samples above it: the sample of rank n-tailBeyond (1-based) and the
// percentile that rank stands for. With fewer than tailBeyond+1 samples no
// percentile qualifies; tail then reports the maximum, as percentile 100,
// with ok false.
func tail(xs []float64) (value, pct float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100, false
	}
	k := n - tailBeyond // 1-based rank with tailBeyond samples above it
	return s[k-1], 100 * float64(k) / float64(n), true
}

// promSnapshot is one parse of a Prometheus text exposition: every sample
// line keyed by its series as written ("name" or "name{labels}").
type promSnapshot map[string]float64

// parseProm parses the text exposition metrics.Registry.WriteText emits.
// Comment and blank lines are skipped; a line whose value does not parse
// is an error.
func parseProm(text string) (promSnapshot, error) {
	snap := promSnapshot{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		snap[line[:i]] = v
	}
	return snap, sc.Err()
}

// scrape snapshots the process-wide metrics plane every layer publishes
// into.
func scrape() promSnapshot {
	var b bytes.Buffer
	if err := metrics.Default().WriteText(&b); err != nil {
		panic(fmt.Sprintf("metrics: write to a buffer failed: %v", err))
	}
	snap, err := parseProm(b.String())
	if err != nil {
		panic(fmt.Sprintf("metrics: own exposition does not parse: %v", err))
	}
	return snap
}

// delta is the growth of series between two snapshots; a series absent
// from before counts from zero.
func (after promSnapshot) delta(before promSnapshot, series string) float64 {
	return after[series] - before[series]
}

// cpuModules are the rows of the CPU-by-module table, in report order.
var cpuModules = []string{
	"learn", "core", "automata", "reference", "quicsim", "tcpsim",
	"quiccrypto", "crypto", "wire", "transport", "jsonlog",
	"encoding_json", "analysis", "server", "gc", "other",
}

// gcFrames are runtime functions that only the garbage collector runs;
// a sample whose innermost classified frame is one of them is GC time,
// whichever goroutine paid it.
var gcFrames = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.greyobject", "runtime.bgsweep", "runtime.sweepone",
	"runtime.bgscavenge", "runtime.(*gcWork)", "runtime.(*mspan).sweep", "runtime.wbBuf",
}

// moduleOf classifies one profile frame. It returns "" for a frame that
// belongs to no module row (most of the runtime, other stdlib packages),
// so the caller keeps walking outward.
func moduleOf(fn string) string {
	for _, p := range gcFrames {
		if strings.HasPrefix(fn, p) {
			return "gc"
		}
	}
	switch {
	case strings.HasPrefix(fn, "crypto/"), strings.Contains(fn, "golang.org/x/crypto/"):
		return "crypto"
	case strings.HasPrefix(fn, "encoding/json."):
		return "encoding_json"
	case !strings.HasPrefix(fn, "repro/"):
		return ""
	}
	path := fn
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	pkg, _, _ := strings.Cut(path, ".")
	switch pkg {
	case "quicwire", "tcpwire", "wire":
		return "wire"
	case "client":
		return "server"
	}
	for _, m := range cpuModules {
		if m == pkg {
			return m
		}
	}
	return "other"
}

// chargeStack charges one sample to the innermost frame that classifies;
// frames run innermost first.
func chargeStack(frames []string) string {
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			return m
		}
	}
	return "other"
}

// parseTraces reads `go tool pprof -traces` output of a CPU profile and
// returns CPU time per module row.
func parseTraces(out string) (map[string]time.Duration, error) {
	byModule := map[string]time.Duration{}
	var value time.Duration
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			byModule[chargeStack(frames)] += value
		}
		frames = frames[:0]
	}
	inBlock := false
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if line[0] != ' ' || len(fields) == 0 {
			continue
		}
		// A block's first line carries the sample value before the
		// innermost frame; the rest are frames alone. "(inline)" marks
		// an inlined frame and is not part of the name.
		if d, err := time.ParseDuration(fields[0]); err == nil && len(frames) == 0 && len(fields) >= 2 {
			value = d
			fields = fields[1:]
		}
		frames = append(frames, fields[0])
	}
	flush()
	return byModule, sc.Err()
}

// profileModules runs the installed `go tool pprof` over a CPU profile
// and charges every sample to its module row.
func profileModules(profile string) (map[string]time.Duration, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return parseTraces(string(out))
}
