package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/store"
	"ldpmarginals/internal/trace"
)

// scrapeTraces fetches and decodes GET /debug/traces from base.
func scrapeTraces(t *testing.T, base string) trace.TracesResponse {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces: status %d", resp.StatusCode)
	}
	var tr trace.TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// findTrace returns the ring entry with the given trace id, or nil.
func findTrace(tr trace.TracesResponse, id string) *trace.TraceJSON {
	for i := range tr.Traces {
		if tr.Traces[i].TraceID == id {
			return &tr.Traces[i]
		}
	}
	return nil
}

func spanNames(tj *trace.TraceJSON) []string {
	names := make([]string, len(tj.Spans))
	for i, sp := range tj.Spans {
		names[i] = sp.Name
	}
	return names
}

// TestCrossProcessPullTrace is the acceptance pin of the tentpole's
// fleet propagation: one coordinator-initiated pull produces a single
// trace id visible in BOTH the coordinator's and the edge's
// /debug/traces — the coordinator's side holding the pull-round and
// per-peer cluster.pull spans, the edge's side a remote-rooted
// http.request span for GET /state carrying the propagated traceparent.
func TestCrossProcessPullTrace(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "tr-edge"})
	_, coordTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "tr-coord",
		Peers: []string{edgeTS.URL}, PullInterval: time.Minute,
	})

	// Seed the edge so the pull transfers real state.
	client := p.NewClient()
	rep, err := client.Perturb(3, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if resp := postReport(t, edgeTS.URL, p, rep); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("edge report: %d", resp.StatusCode)
	}

	// One forced pull round, driven by POST /pull: the request's root
	// span covers the round, so the whole fleet exchange is one trace.
	resp, err := http.Post(coordTS.URL+"/pull", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /pull: status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-LDP-Trace-Id")
	if traceID == "" {
		t.Fatal("POST /pull reply carries no X-LDP-Trace-Id")
	}

	coordTrace := findTrace(scrapeTraces(t, coordTS.URL), traceID)
	if coordTrace == nil {
		t.Fatalf("trace %s not in the coordinator's /debug/traces", traceID)
	}
	wantCoord := map[string]bool{"http.request": false, "cluster.pull": false}
	for _, name := range spanNames(coordTrace) {
		if _, ok := wantCoord[name]; ok {
			wantCoord[name] = true
		}
	}
	for name, seen := range wantCoord {
		if !seen {
			t.Errorf("coordinator trace %s lacks a %q span (has %v)", traceID, name, spanNames(coordTrace))
		}
	}

	// The pull span says how the components arrived: a first pull has no
	// base to take a diff against.
	for _, sp := range coordTrace.Spans {
		if sp.Name != "cluster.pull" {
			continue
		}
		attrs := make(map[string]string, len(sp.Attrs))
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["diff_components"] != "0" || attrs["sparse_components"] != "0" || attrs["whole_components"] != "1" {
			t.Errorf("cluster.pull span attrs %v, want diff_components=0 sparse_components=0 whole_components=1", attrs)
		}
	}

	// The SAME trace id on the edge: its GET /state request span joined
	// the coordinator's trace via the injected traceparent, and is
	// marked remote-rooted.
	edgeTrace := findTrace(scrapeTraces(t, edgeTS.URL), traceID)
	if edgeTrace == nil {
		t.Fatalf("trace %s not in the edge's /debug/traces", traceID)
	}
	if !edgeTrace.Remote {
		t.Errorf("edge trace %s not marked remote", traceID)
	}
	found := false
	for _, sp := range edgeTrace.Spans {
		if sp.Name != "http.request" {
			continue
		}
		found = true
		if sp.ParentID == "" {
			t.Errorf("edge http.request span has no remote parent")
		}
		var path string
		for _, a := range sp.Attrs {
			if a.Key == "path" {
				path = a.Value
			}
		}
		if path != "/state" {
			t.Errorf("edge request span path = %q, want /state", path)
		}
	}
	if !found {
		t.Errorf("edge trace %s has no http.request span (has %v)", traceID, spanNames(edgeTrace))
	}
}

// TestIngestTraceLifecycle pins the single-node span tree of a durable
// windowed ingest: a /report request's trace carries the admission,
// ledger, and WAL spans the handler opened on its context.
func TestIngestTraceLifecycle(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), p, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(p, Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); _ = s.Close() })

	client := p.NewClient()
	rep, err := client.Perturb(5, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	resp := postReport(t, ts.URL, p, rep)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("report: %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-LDP-Trace-Id")
	if traceID == "" {
		t.Fatal("no X-LDP-Trace-Id on /report reply")
	}
	tj := findTrace(scrapeTraces(t, ts.URL), traceID)
	if tj == nil {
		t.Fatalf("trace %s not retained", traceID)
	}
	want := map[string]bool{"http.request": false, "ingest.admission": false, "wal.append": false}
	for _, name := range spanNames(tj) {
		if _, ok := want[name]; ok {
			want[name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("report trace lacks a %q span (has %v)", name, spanNames(tj))
		}
	}
}

// TestTraceScrapeUnderConcurrentIngest race-stresses the ring: readers
// scrape /debug/traces while writers ingest (each request opening and
// completing spans). Run with -race, the scrape must always decode and
// the dropped-span counter stay zero.
func TestTraceScrapeUnderConcurrentIngest(t *testing.T) {
	_, ts, p := newTestServer(t)
	client := p.NewClient()
	frames := make([][]byte, 8)
	for i := range frames {
		rep, err := client.Perturb(uint64(i%4), rng.New(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		if frames[i], err = encoding.Marshal(p.Name(), rep); err != nil {
			t.Fatal(err)
		}
	}

	const writers, scrapers, iters = 4, 2, 40
	var wg sync.WaitGroup
	errc := make(chan error, writers+scrapers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Post(ts.URL+"/report", "application/octet-stream", bytes.NewReader(frames[(w+i)%len(frames)]))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					errc <- fmt.Errorf("report: status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for sc := 0; sc < scrapers; sc++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Get(ts.URL + "/debug/traces")
				if err != nil {
					errc <- err
					return
				}
				var tr trace.TracesResponse
				err = json.NewDecoder(resp.Body).Decode(&tr)
				resp.Body.Close()
				if err != nil {
					errc <- fmt.Errorf("decoding scrape: %w", err)
					return
				}
				if tr.DroppedSpans != 0 {
					errc <- fmt.Errorf("dropped spans: %d", tr.DroppedSpans)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	final := scrapeTraces(t, ts.URL)
	if final.Spans == 0 || len(final.Traces) == 0 {
		t.Fatalf("no traces retained after %d requests", writers*iters)
	}
}
