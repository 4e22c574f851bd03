package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "operations")
	c.Inc()
	c.Add(4)
	c.Add(-3) // clamped: counters stay monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	r.CounterWith("test_jobs_total", "jobs by state", []string{"state"}, []string{"done"}).Add(2)
	r.CounterWith("test_jobs_total", "jobs by state", []string{"state"}, []string{"failed"}).Inc()
	g := r.Gauge("test_depth", "queue depth")
	g.Set(3)
	g.Inc()
	g.Dec()

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_ops_total operations",
		"# TYPE test_ops_total counter",
		"test_ops_total 5",
		`test_jobs_total{state="done"} 2`,
		`test_jobs_total{state="failed"} 1`,
		"# TYPE test_depth gauge",
		"test_depth 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families render sorted, so scrapes are byte-stable.
	var b2 strings.Builder
	r.WriteText(&b2)
	if out != b2.String() {
		t.Error("two scrapes of an unchanged registry differ")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_batch_size", "messages per batch", []float64{1, 2, 4, 8})
	for _, v := range []float64{1, 1, 3, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 110 {
		t.Fatalf("sum = %v", h.Sum())
	}
	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		`test_batch_size_bucket{le="1"} 2`,
		`test_batch_size_bucket{le="2"} 2`,
		`test_batch_size_bucket{le="4"} 3`,
		`test_batch_size_bucket{le="8"} 4`,
		`test_batch_size_bucket{le="+Inf"} 5`,
		"test_batch_size_sum 110",
		"test_batch_size_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramWith: labeled histogram children render with le spliced
// into each child's label braces, share the family's bounds, and stay
// independent per label value.
func TestHistogramWith(t *testing.T) {
	r := NewRegistry()
	labels := []string{"worker"}
	h1 := r.HistogramWith("test_beat_age", "heartbeat age", labels, []string{"w1"}, []float64{0.5, 2})
	h2 := r.HistogramWith("test_beat_age", "heartbeat age", labels, []string{"w2"}, []float64{0.5, 2})
	if h1 == h2 {
		t.Fatal("distinct label values share a child")
	}
	if again := r.HistogramWith("test_beat_age", "heartbeat age", labels, []string{"w1"}, nil); again != h1 {
		t.Fatal("same label value returned a new child")
	}
	h1.Observe(0.1)
	h1.Observe(1)
	h2.Observe(10)
	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		`test_beat_age_bucket{worker="w1",le="0.5"} 1`,
		`test_beat_age_bucket{worker="w1",le="2"} 2`,
		`test_beat_age_bucket{worker="w1",le="+Inf"} 2`,
		`test_beat_age_count{worker="w1"} 2`,
		`test_beat_age_bucket{worker="w2",le="2"} 0`,
		`test_beat_age_bucket{worker="w2",le="+Inf"} 1`,
		`test_beat_age_sum{worker="w2"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labeled histogram exposition missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentUpdates hammers one family from many goroutines; run
// with -race this is the hot-path safety contract.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_hot_total", "hot path")
	h := r.Histogram("test_hot_obs", "hot observations", []float64{10, 100})
	g := r.Gauge("test_hot_gauge", "hot gauge")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 200))
				g.Add(1)
				// Same-name lookups from the hot path must return the same child.
				if r.Counter("test_hot_total", "hot path") != c {
					t.Error("lookup returned a different counter")
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_served_total", "served").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(b.String(), "test_served_total 1") {
		t.Fatalf("handler output:\n%s", b.String())
	}
}

func TestMismatchedReRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_kind_clash", "a counter")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("test_kind_clash", "now a gauge")
}
