package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// TestReportsCountOnlyAcceptedBatches runs the tool against a server
// that sheds every other request with 429: the reports it claims as
// throughput are the 2xx replies times -batch, not every request sent.
func TestReportsCountOnlyAcceptedBatches(t *testing.T) {
	var calls, accepted atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if calls.Add(1)%2 == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		accepted.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	const batch = 8
	out := filepath.Join(t.TempDir(), "load.json")
	if err := run([]string{"-addr", srv.URL, "-clients", "2", "-batch", strconv.Itoa(batch), "-pregen", "2",
		"-duration", "200ms", "-warmup", "0", "-out", out}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep LoadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	st := rep.Status
	if st.OK2xx == 0 || st.Shed429 == 0 {
		t.Fatalf("status %+v: want both accepted and shed requests", st)
	}
	if st.OK2xx != accepted.Load() || rep.Requests != calls.Load() {
		t.Fatalf("report counts %d 2xx of %d requests, the server saw %d of %d", st.OK2xx, rep.Requests, accepted.Load(), calls.Load())
	}
	if rep.Reports != st.OK2xx*batch {
		t.Errorf("reports = %d, want %d 2xx replies x %d", rep.Reports, st.OK2xx, batch)
	}
	if want := float64(rep.Reports) / rep.Duration; rep.ReportsSec != want {
		t.Errorf("reports_per_sec = %v, want %v", rep.ReportsSec, want)
	}
}

// TestRefusesUnservedProtocol: ldpload -protocol InpRR fails by name,
// through the wire-tag lookup, before it sends a request.
func TestRefusesUnservedProtocol(t *testing.T) {
	var calls atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { calls.Add(1) }))
	defer srv.Close()
	err := run([]string{"-addr", srv.URL, "-protocol", "InpRR", "-duration", "100ms", "-warmup", "0",
		"-out", filepath.Join(t.TempDir(), "load.json")})
	if err == nil || !strings.Contains(err.Error(), "InpRR (tag 1)") {
		t.Fatalf("ldpload -protocol InpRR: %v; want a refusal naming InpRR (tag 1)", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("refused run sent %d requests", calls.Load())
	}
}
