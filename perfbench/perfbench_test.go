package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		value   float64
		pct     float64
		ok      bool
		comment string
	}{
		{n: 1, value: 1, pct: 100, ok: false, comment: "one sample: the maximum"},
		{n: 10, value: 10, pct: 100, ok: false, comment: "ten samples: nothing has ten beyond it"},
		{n: 11, value: 1, pct: 100.0 / 11, ok: true, comment: "the smallest of 11 has ten beyond"},
		{n: 100, value: 90, pct: 90, ok: true, comment: "p90 of 100"},
		{n: 1000, value: 990, pct: 99, ok: true, comment: "p99 of 1000"},
	} {
		v, pct, ok := tail(seq(tc.n))
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-9 || ok != tc.ok {
			t.Errorf("%s: tail = (%v, %v, %v), want (%v, %v, %v)", tc.comment, v, pct, ok, tc.value, tc.pct, tc.ok)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if tc.ok && beyond != tailBeyond {
			t.Errorf("%s: %d samples beyond the tail, want %d", tc.comment, beyond, tailBeyond)
		}
	}
	if v, _, ok := tail(nil); v != 0 || ok {
		t.Errorf("tail(nil) = %v, %v", v, ok)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := link([]Span{
		{ID: "c", Name: "lab.Learn", Parent: noParent, Start: ms(0), End: ms(100)},
		// Two pool workers overlap on [30,40]; the third child runs past
		// the parent's end and only its part inside counts.
		{ID: "c", Name: "transport.exchange", Parent: 0, Start: ms(10), End: ms(40)},
		{ID: "c", Name: "transport.exchange", Parent: 0, Start: ms(30), End: ms(60)},
		{ID: "c", Name: "transport.exchange", Parent: 0, Start: ms(90), End: ms(120)},
		// Linked to the root of its ID after the fact, and still open:
		// an open span neither counts nor shadows its parent.
		{ID: "c", Name: "analysis.compare", Parent: rootParent, Start: ms(60), End: -1},
		// A span of another ID is not a child.
		{ID: "d", Name: "transport.exchange", Parent: noParent, Start: ms(0), End: ms(5)},
	})
	if spans[4].Parent != 0 {
		t.Fatalf("rootParent linked to %d, want 0", spans[4].Parent)
	}
	self := selfTimes(spans)
	// Parent: 100 - |[10,60] ∪ [90,100]| = 100 - 60.
	if got := self["lab"]; got != ms(40) {
		t.Errorf("lab self time = %v, want 40ms", got)
	}
	// Children have no children: self time is their whole duration.
	if got := self["transport"]; got != ms(30+30+30+5) {
		t.Errorf("transport self time = %v, want 95ms", got)
	}
	if _, ok := self["analysis"]; ok {
		t.Errorf("an open span contributed self time")
	}
}

func TestUnionLen(t *testing.T) {
	iv := func(a, b int) [2]time.Duration { return [2]time.Duration{time.Duration(a), time.Duration(b)} }
	for _, tc := range []struct {
		ivs  [][2]time.Duration
		want time.Duration
	}{
		{nil, 0},
		{[][2]time.Duration{iv(0, 10)}, 10},
		{[][2]time.Duration{iv(5, 10), iv(0, 6)}, 10},
		{[][2]time.Duration{iv(0, 10), iv(2, 3), iv(20, 25)}, 15},
		{[][2]time.Duration{iv(0, 5), iv(5, 8)}, 8},
		{[][2]time.Duration{iv(7, 7), iv(9, 3)}, 0},
	} {
		if got := unionLen(tc.ivs); got != tc.want {
			t.Errorf("unionLen(%v) = %v, want %v", tc.ivs, got, tc.want)
		}
	}
}

func TestCounterDeltasFromWriteText(t *testing.T) {
	reg := metrics.NewRegistry()
	plain := reg.Counter("bench_plain_total", "A plain counter.")
	client := reg.CounterWith("bench_dir_total", "A labelled counter.", []string{"dir"}, []string{"client"})
	server := reg.CounterWith("bench_dir_total", "A labelled counter.", []string{"dir"}, []string{"server"})
	hist := reg.Histogram("bench_size", "A histogram.", []float64{1, 4})
	snap := func() promSnapshot {
		var b bytes.Buffer
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		s, err := parseProm(b.String())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	plain.Add(7)
	server.Add(2)
	before := snap()
	plain.Add(5)
	client.Add(3)
	hist.Observe(2)
	hist.Observe(6)
	after := snap()
	for series, want := range map[string]float64{
		"bench_plain_total":             5,
		`bench_dir_total{dir="client"}`: 3,
		`bench_dir_total{dir="server"}`: 0,
		"bench_size_sum":                8,
		"bench_size_count":              2,
		"bench_absent_total":            0,
	} {
		if got := after.delta(before, series); got != want {
			t.Errorf("delta %s = %v, want %v", series, got, want)
		}
	}

	// The process-wide plane the benchmark scrapes parses the same way.
	c := metrics.Default().Counter("perfbench_test_total", "Test-only counter.")
	b0 := scrape()
	c.Add(4)
	if got := scrape().delta(b0, "perfbench_test_total"); got != 4 {
		t.Errorf("Default() delta = %v, want 4", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	if _, err := parseProm("# HELP x y\nx_total 12\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := parseProm("x_total twelve\n"); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

func TestFrameToModule(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/learn.(*CachedOracle).Query":         "learn",
		"repro/internal/learn.(*Pool).run.func1":             "learn",
		"repro/internal/quicsim.(*Server).HandleDatagram":    "quicsim",
		"repro/internal/quicwire.ParsePacket":                "wire",
		"repro/internal/tcpwire.Segment.Marshal":             "wire",
		"repro/internal/wire.Reader.Uint16":                  "wire",
		"repro/pkg/client.(*Client).do":                      "server",
		"repro/internal/lab.NewExperiment":                   "other",
		"crypto/internal/fips140/aes/gcm.(*GCM).Seal":        "crypto",
		"vendor/golang.org/x/crypto/chacha20poly1305.(*c).x": "crypto",
		"encoding/json.(*decodeState).object":                "encoding_json",
		"runtime.gcBgMarkWorker":                             "gc",
		"runtime.scanobject":                                 "gc",
		"runtime.(*gcWork).tryGet":                           "gc",
		"runtime.mallocgc":                                   "",
		"sort.Slice":                                         "",
		"repro/internal/automata.(*Mealy).Run[go.shape.int]": "automata",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
	// A sample is charged to its innermost classified frame: runtime
	// allocation frames pass through to their caller, GC frames do not.
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "runtime.mallocgc", "repro/internal/tcpsim.(*Stack).Input", "repro/internal/learn.Query"}, "tcpsim"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/learn.Query"}, "gc"},
		{[]string{"crypto/internal/fips140/sha256.block", "repro/internal/quiccrypto.Seal"}, "crypto"},
		{[]string{"runtime.futex", "runtime.mcall"}, "other"},
	} {
		if got := chargeStack(tc.frames); got != tc.want {
			t.Errorf("chargeStack(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	out := `File: perfbench
Type: cpu
Duration: 604.07ms, Total samples = 490ms (81.12%)
-----------+-------------------------------------------------------
      10ms   crypto/internal/fips140/sha256.blockSHANI
             crypto/sha256.Sum256 (inline)
             repro/internal/quiccrypto.Derive
-----------+-------------------------------------------------------
      1.50s   runtime.mallocgc
             repro/internal/learn.(*CachedOracle).Query
-----------+-------------------------------------------------------
      20ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      30ms   repro/internal/learn.(*CachedOracle).Query
-----------+-------------------------------------------------------
`
	got, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"crypto": 10 * time.Millisecond,
		"learn":  1530 * time.Millisecond,
		"gc":     20 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Errorf("modules = %v, want %v", got, want)
	}
	for m, d := range want {
		if got[m] != d {
			t.Errorf("%s = %v, want %v", m, got[m], d)
		}
	}
}
