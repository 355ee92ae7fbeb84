package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
)

// indexBatch is a /report/batch body of n InpPS reports over d
// attributes, indices cycling through the domain.
func indexBatch(t testing.TB, p core.Protocol, d, n int) []byte {
	t.Helper()
	reps := make([]core.Report, n)
	for i := range reps {
		reps[i] = core.Report{Index: uint64(i*7919) % (1 << d)}
	}
	body, err := encoding.MarshalBatch(p.Name(), reps)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestAcceptedReplyMatchesJSONEncoder pins the all-accepted
// /report/batch reply to the bytes json.Encoder writes for
// BatchResponse{Accepted: n}, newline included, at every width of n
// up to the batch report cap.
func TestAcceptedReplyMatchesJSONEncoder(t *testing.T) {
	p, err := core.New(core.InpPS, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	for _, n := range []int{0, 1, 9, 10, 255, 1023, 1024, 1 << 20} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(BatchResponse{Accepted: n}); err != nil {
			t.Fatal(err)
		}
		if got := appendAcceptedReply(nil, n); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("n=%d: reply %q, json.Encoder %q", n, got, want.Bytes())
		}
		if n == 0 {
			continue // an empty batch is refused
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/report/batch", bytes.NewReader(indexBatch(t, p, 8, n))))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("n=%d: handler replied %d %q, json.Encoder %q", n, rec.Code, rec.Body.Bytes(), want.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("n=%d: Content-Type %q", n, ct)
		}
	}
}

// TestBatchIngestAllocationBudget bounds the heap allocations of one
// all-accepted POST /report/batch of 1,024 InpPS d=16 reports through
// Handler() — middleware, tracing, admission, decode, consume and reply
// — with what building the request costs measured apart and
// subtracted, and of one POST /report of one such report, which rides
// the same pooled path as a batch of one. The handler benchmarks' 3x
// time guard cannot see a few allocations creep back onto this path;
// this test can.
func TestBatchIngestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	const budget = 10
	p, err := core.New(core.InpPS, core.Config{D: 16, K: 3, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	frame, err := encoding.Marshal(p.Name(), core.Report{Index: 7919})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		body []byte
	}{
		{"/report/batch", indexBatch(t, p, 16, 1024)},
		{"/report", frame},
	} {
		rd := bytes.NewReader(nil)
		var (
			req *http.Request
			w   *nopResponseWriter
		)
		build := func() {
			rd.Reset(tc.body)
			req = httptest.NewRequest(http.MethodPost, tc.path, rd)
			w = &nopResponseWriter{h: make(http.Header)}
		}
		serve := func() {
			build()
			h.ServeHTTP(w, req)
		}
		serve() // warm the pools
		construction := testing.AllocsPerRun(200, build)
		total := testing.AllocsPerRun(200, serve)
		got := total - construction
		t.Logf("POST %s: %.0f allocations per request beyond %.0f to build it", tc.path, got, construction)
		if got > budget {
			t.Errorf("POST %s makes %.0f allocations beyond building the request (%.0f total, %.0f to build); budget %d",
				tc.path, got, total, construction, budget)
		}
	}
}

// TestPanickingHandlerIsCountedAndTraced pins the middleware's deferred
// accounting: a route that panics (net/http recovers it and drops the
// connection) still lowers the in-flight gauge, lands in the 5xx class
// and the latency histogram, and leaves a finished http.request trace
// with status 500.
func TestPanickingHandlerIsCountedAndTraced(t *testing.T) {
	s, _, _ := newTestServer(t)
	ts := httptest.NewUnstartedServer(s.instrument(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("route failed")
	})))
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	defer ts.Close()
	if resp, err := http.Get(ts.URL + "/panics"); err == nil {
		resp.Body.Close()
		t.Fatalf("panicking route answered %d", resp.StatusCode)
	}
	var scraped bytes.Buffer
	if _, err := s.Metrics().WriteTo(&scraped); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scraped.String(), "\nldp_http_inflight_requests 0\n") {
		t.Errorf("in-flight gauge not 0 after the panic:\n%s", scraped.String())
	}
	h := s.ins.http
	if n := h.other.codes[3].Value(); n != 1 {
		t.Errorf("5xx count %d, want 1", n)
	}
	if n := h.other.latency.Count(); n != 1 {
		t.Errorf("latency observations %d, want 1", n)
	}
	snap := s.tracer.Snapshot()
	if len(snap.Traces) != 1 {
		t.Fatalf("%d traces recorded, want 1", len(snap.Traces))
	}
	root := snap.Traces[0].Spans[len(snap.Traces[0].Spans)-1]
	attrs := map[string]string{}
	for _, a := range root.Attrs {
		attrs[a.Key] = a.Value
	}
	if root.Name != "http.request" || attrs["status"] != "500" || attrs["path"] != "/panics" {
		t.Errorf("root span %s attrs %v, want http.request with status 500 on /panics", root.Name, attrs)
	}
}
