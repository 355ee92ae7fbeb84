package metrics

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionGolden pins the exact exposition rendering: family
// ordering, HELP/TYPE headers, label canonicalization, histogram bucket
// lines. Any format drift breaks real Prometheus scrapers, so it is a
// byte-for-byte golden.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]float64{0.1, 1})
	r.MustRegister("req_seconds", "Request latency.", Labels{"path": "/a"}, h)
	c := NewCounter()
	r.MustRegister("zz_total", "Trailing family (sorted after).", nil, c)
	g := NewGauge()
	r.MustRegister("inflight", "In-flight requests.", Labels{"b": "2", "a": "1"}, g)
	r.MustGaugeFunc("derived", "A derived value.", nil, func() float64 { return 1.5 })

	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)
	c.Add(7)
	g.Dec()
	g.Dec()

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP derived A derived value.
# TYPE derived gauge
derived 1.5
# HELP inflight In-flight requests.
# TYPE inflight gauge
inflight{a="1",b="2"} -2
# HELP req_seconds Request latency.
# TYPE req_seconds histogram
req_seconds_bucket{path="/a",le="0.1"} 1
req_seconds_bucket{path="/a",le="1"} 2
req_seconds_bucket{path="/a",le="+Inf"} 3
req_seconds_sum{path="/a"} 3.55
req_seconds_count{path="/a"} 3
# HELP zz_total Trailing family (sorted after).
# TYPE zz_total counter
zz_total 7
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.MustRegister("c_total", "help with \\ and\nnewline", Labels{"k": "a\"b\\c\nd"}, NewCounter())
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# HELP c_total help with \\ and\nnewline`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `c_total{k="a\"b\\c\nd"} 0`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.MustRegister("ok_total", "", Labels{"a": "1"}, NewCounter())
	mustPanic("duplicate series", func() { r.MustRegister("ok_total", "", Labels{"a": "1"}, NewCounter()) })
	mustPanic("type conflict", func() { r.MustRegister("ok_total", "", Labels{"a": "2"}, NewGauge()) })
	mustPanic("bad name", func() { r.MustRegister("0bad", "", nil, NewCounter()) })
	mustPanic("bad label", func() { r.MustRegister("ok2_total", "", Labels{"0k": "v"}, NewCounter()) })
	mustPanic("reserved le", func() { r.MustRegister("ok3_total", "", Labels{"le": "v"}, NewCounter()) })
	mustPanic("unsorted bounds", func() { NewHistogram([]float64{1, 1}) })
	mustPanic("empty bounds", func() { NewHistogram(nil) })

	// Distinct label values on one family are fine.
	r.MustRegister("ok_total", "", Labels{"a": "2"}, NewCounter())
}

// TestCounterMonotonic hammers a counter from many goroutines while a
// reader scrapes, asserting every observed value is >= the last — the
// monotonicity a rate() query depends on.
func TestCounterMonotonic(t *testing.T) {
	r := NewRegistry()
	c := NewCounter()
	r.MustRegister("mono_total", "", nil, c)
	const writers, perWriter = 8, 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var last uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := c.Value()
			if v < last {
				t.Errorf("counter went backwards: %d after %d", v, last)
				return
			}
			last = v
		}
	}()
	var ww sync.WaitGroup
	for i := 0; i < writers; i++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for j := 0; j < perWriter; j++ {
				c.Inc()
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := c.Value(); got != writers*perWriter {
		t.Errorf("final count %d, want %d", got, writers*perWriter)
	}
}

// TestHistogramInvariants checks the structural guarantees of a rendered
// histogram: cumulative buckets are nondecreasing, the +Inf bucket
// equals _count, and _sum matches the observations.
func TestHistogramInvariants(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	vals := []float64{0.5, 1, 1.5, 2, 3, 7, 9, 100}
	sum := 0.0
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	if h.Count() != uint64(len(vals)) {
		t.Fatalf("count %d, want %d", h.Count(), len(vals))
	}
	if math.Abs(h.Sum()-sum) > 1e-9 {
		t.Fatalf("sum %g, want %g", h.Sum(), sum)
	}
	// le semantics: an observation equal to a bound lands in that bucket.
	var buf bytes.Buffer
	h.write(&buf, "h", "")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	wantLines := []string{
		`h_bucket{le="1"} 2`,
		`h_bucket{le="2"} 4`,
		`h_bucket{le="4"} 5`,
		`h_bucket{le="8"} 6`,
		`h_bucket{le="+Inf"} 8`,
		`h_sum 124`,
		`h_count 8`,
	}
	for i, want := range wantLines {
		if lines[i] != want {
			t.Errorf("line %d: got %q, want %q", i, lines[i], want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(ExpBuckets(0.001, 2, 16))
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) / 100) // 0..9.99 uniform
	}
	if p50 := h.Quantile(0.5); p50 < 3 || p50 > 8.2 {
		t.Errorf("p50 %g outside bucketed-uniform range", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 8 || p99 > 33 {
		t.Errorf("p99 %g implausible", p99)
	}
	if p0 := h.Quantile(0); p0 < 0 || p0 > 0.01 {
		t.Errorf("p0 %g should sit in the first occupied bucket", p0)
	}
	// Beyond the last finite bound clamps.
	h2 := NewHistogram([]float64{1})
	h2.Observe(50)
	if got := h2.Quantile(0.99); got != 1 {
		t.Errorf("overflow quantile %g, want clamp to 1", got)
	}
}

// TestScrapeUnderConcurrentIngest is the race-stress pin: writers on
// every instrument type while scrapes render continuously. Run with
// -race in CI; the assertions here are the coarse sanity that rendered
// output stays parseable and counts only grow.
func TestScrapeUnderConcurrentIngest(t *testing.T) {
	r := NewRegistry()
	r.RegisterGoRuntime()
	c := NewCounter()
	r.MustRegister("ldp_test_ingest_total", "", nil, c)
	g := NewGauge()
	r.MustRegister("ldp_test_inflight", "", nil, g)
	h := NewHistogram(DurationBuckets())
	r.MustRegister("ldp_test_latency_seconds", "", nil, h)

	const writers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			v := float64(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Inc()
				h.Observe(math.Mod(v, 1.5))
				v += 0.013
				g.Dec()
			}
		}(i)
	}
	var lastCount uint64
	for i := 0; i < 200; i++ {
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.Contains(out, "ldp_test_ingest_total ") {
			t.Fatal("scrape missing counter family")
		}
		if c.Value() < lastCount {
			t.Fatal("counter regressed across scrapes")
		}
		lastCount = c.Value()
	}
	// At GOMAXPROCS=1 the scrape loop above can run to completion before
	// the writer goroutines are ever scheduled; yield until they have
	// demonstrably run before stopping them.
	deadline := time.Now().Add(5 * time.Second)
	for (h.Count() == 0 || c.Value() == 0) && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if h.Count() == 0 || c.Value() == 0 {
		t.Fatal("writers made no progress")
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	c := NewCounter()
	r.MustRegister("x_total", "", nil, c)
	c.Add(3)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("Content-Type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x_total 3") {
		t.Fatalf("body missing sample:\n%s", buf.String())
	}

	req, _ := http.NewRequest(http.MethodPost, srv.URL, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d, want 405", resp2.StatusCode)
	}
	if allow := resp2.Header.Get("Allow"); allow != http.MethodGet {
		t.Fatalf("Allow %q, want GET", allow)
	}
}

func TestGoRuntimeCollector(t *testing.T) {
	r := NewRegistry()
	r.RegisterGoRuntime()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"go_goroutines ", "go_heap_alloc_bytes ", "go_gc_cycles_total ", "go_gc_pause_seconds_total "} {
		if !strings.Contains(out, name) {
			t.Errorf("runtime scrape missing %s", name)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewCounter()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DurationBuckets())
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0001
		for pb.Next() {
			h.Observe(v)
			v *= 1.1
			if v > 20 {
				v = 0.0001
			}
		}
	})
}

func BenchmarkScrape(b *testing.B) {
	r := NewRegistry()
	r.RegisterGoRuntime()
	for _, path := range []string{"/report", "/report/batch", "/marginal", "/query"} {
		r.MustRegister("ldp_http_requests_total", "", Labels{"path": path, "code": "2xx"}, NewCounter())
		r.MustRegister("ldp_http_request_seconds", "", Labels{"path": path}, NewHistogram(DurationBuckets()))
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := r.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
