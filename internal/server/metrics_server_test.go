package server

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/fault"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/store"
)

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func wantFamilies(t *testing.T, got, who string, families ...string) {
	t.Helper()
	for _, f := range families {
		if !strings.Contains(got, "\n"+f) && !strings.HasPrefix(got, f) {
			t.Errorf("%s /metrics: family %s missing", who, f)
		}
	}
}

// TestMetricsAllRoles pins the tentpole end to end: all three roles
// serve a Prometheus scrape, and the scrape carries the instrumentation
// of every layer the role runs — HTTP/ingest and runtime everywhere,
// store+window+ledger on a durable windowed single, view on serving
// roles, and the cluster tier on a coordinator.
func TestMetricsAllRoles(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), p, store.Options{Fsync: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	single, singleTS := newClusterNode(t, p, Options{
		Store:    st,
		Window:   time.Hour,
		Bucket:   time.Minute,
		RoundEps: 100,
	})
	_ = single
	edge, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "met-edge"})
	_ = edge
	_, coordTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "met-coord",
		Peers: []string{edgeTS.URL}, PullInterval: time.Minute,
	})

	// Drive some traffic so counters move: one accepted report on the
	// ingesting roles, one forced pull round on the coordinator.
	rep, err := p.NewClient().Perturb(5, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := encoding.Marshal(p.Name(), rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []string{singleTS.URL, edgeTS.URL} {
		req, err := http.NewRequest(http.MethodPost, ts+"/report", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-LDP-Token", "scrape-test")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("seed report on %s: status %d", ts, resp.StatusCode)
		}
	}
	resp, err := http.Post(coordTS.URL+"/pull", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	everywhere := []string{
		"go_goroutines", "go_heap_alloc_bytes",
		"ldp_http_requests_total", "ldp_http_request_seconds_bucket",
		"ldp_http_inflight_requests", "ldp_ingest_shed_total",
	}

	got := scrape(t, singleTS.URL)
	wantFamilies(t, got, "single", everywhere...)
	wantFamilies(t, got, "single",
		"ldp_ingest_reports_total 1",
		"ldp_wal_segments", "ldp_wal_fsync_seconds", "ldp_store_wal_failed 0",
		"ldp_view_epoch", "ldp_view_builds_total",
		"ldp_window_rotations_total", "ldp_window_live_reports 1",
		"ldp_ledger_charges_total 1", "ldp_ledger_budget_eps 100",
	)
	if strings.Contains(got, "ldp_cluster_") {
		t.Error("single /metrics: unexpected cluster families")
	}

	got = scrape(t, edgeTS.URL)
	wantFamilies(t, got, "edge", everywhere...)
	wantFamilies(t, got, "edge", "ldp_ingest_reports_total 1")
	if strings.Contains(got, "ldp_view_epoch") {
		t.Error("edge /metrics: unexpected view families (edges do not serve)")
	}

	got = scrape(t, coordTS.URL)
	wantFamilies(t, got, "coordinator", everywhere...)
	wantFamilies(t, got, "coordinator",
		"ldp_view_epoch",
		"ldp_cluster_pull_rounds_total",
		"ldp_cluster_peers_with_state 1",
		"ldp_cluster_fleet_reports 1",
		`ldp_cluster_pulls_total{peer="`+edgeTS.URL+`",result="changed"} 1`,
		`ldp_cluster_pull_diff_components_total{peer="`+edgeTS.URL+`"} 0`,
	)
}

// TestAdmissionShed pins satellite 1: with the in-flight slot held and
// the wait queue full, a new ingest request is shed with 429 +
// Retry-After and counted; once the slot frees, the queued request
// completes normally.
func TestAdmissionShed(t *testing.T) {
	s, ts, p := newTestServerWithOptions(t, Options{Shards: 1}) // one in-flight slot
	s.adm.maxQueue = 1
	rep, err := p.NewClient().Perturb(2, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := encoding.Marshal(p.Name(), rep)
	if err != nil {
		t.Fatal(err)
	}
	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/report", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Occupy the only in-flight slot, so the next request queues.
	s.adm.slots <- struct{}{}
	queued := make(chan int, 1)
	go func() {
		resp := post()
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		queued <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: this one must shed.
	resp := post()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue request: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("shed reply: Retry-After %q, want \"1\"", ra)
	}
	if got := s.ins.shedReport.Value(); got != 1 {
		t.Errorf("shed counter: %d, want 1", got)
	}
	if !strings.Contains(scrape(t, ts.URL), `ldp_ingest_shed_total{path="/report"} 1`) {
		t.Error("shed not visible on /metrics")
	}

	// Free the slot: the queued request goes through.
	<-s.adm.slots
	select {
	case code := <-queued:
		if code != http.StatusNoContent {
			t.Fatalf("queued request: status %d, want 204", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never completed after the slot freed")
	}
	if got := s.ins.ingestReports.Value(); got != 1 {
		t.Errorf("ingest counter: %d, want 1", got)
	}
}

// TestAdmitFaultSheds arms the server.ingest.admit site: an error rule
// sheds both ingest endpoints exactly as a full admission queue would —
// 429 with Retry-After, counted per path in ldp_ingest_shed_total — and
// ingests nothing. Once the rule is spent, the same posts are accepted.
func TestAdmitFaultSheds(t *testing.T) {
	defer fault.Disarm()
	s, ts, p := newTestServer(t)
	rep, err := p.NewClient().Perturb(2, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := encoding.Marshal(p.Name(), rep)
	if err != nil {
		t.Fatal(err)
	}
	batch := mustBatch(t, p, rep, rep)
	post := func(path string, body []byte) *http.Response {
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	fault.Arm(fault.Rule{Site: FaultIngestAdmit, Mode: fault.ModeError, Times: 2})
	for path, body := range map[string][]byte{"/report": frame, "/report/batch": batch} {
		resp := post(path, body)
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
			t.Fatalf("%s under the admit fault: status %d, Retry-After %q; want 429 and \"1\"", path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	metrics := scrape(t, ts.URL)
	for _, path := range []string{"/report", "/report/batch"} {
		if want := `ldp_ingest_shed_total{path="` + path + `"} 1`; !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	if s.N() != 0 {
		t.Fatalf("shed posts ingested %d reports", s.N())
	}
	if resp := post("/report", frame); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("/report after the rule is spent: status %d, want 204", resp.StatusCode)
	}
	if resp := post("/report/batch", batch); resp.StatusCode != http.StatusOK || s.N() != 3 {
		t.Fatalf("/report/batch after the rule is spent: status %d with %d reports held, want 200 and 3", resp.StatusCode, s.N())
	}
}

// TestReadyzCoordinator pins satellite 2's coordinator rule: not ready
// before any peer state is held, ready after the first successful pull
// round — while /healthz stays a pure liveness 200 throughout.
func TestReadyzCoordinator(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "rdy-edge"})
	_, coordTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "rdy-coord",
		Peers: []string{edgeTS.URL}, PullInterval: time.Hour,
	})
	get := func(url string) (int, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get(coordTS.URL + "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "no_peer_state") {
		t.Fatalf("pre-pull /readyz: status %d body %s, want 503 with no_peer_state", code, body)
	}
	if code, _ := get(coordTS.URL + "/healthz"); code != http.StatusOK {
		t.Fatalf("pre-pull /healthz: status %d, want 200 (liveness is not readiness)", code)
	}

	resp, err := http.Post(coordTS.URL+"/pull", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if code, body := get(coordTS.URL + "/readyz"); code != http.StatusOK || !strings.Contains(body, `"ready":true`) {
		t.Fatalf("post-pull /readyz: status %d body %s, want 200 ready", code, body)
	}
}

// TestMetricInventoryMatchesREADME: every ldp_* family that a single,
// an edge, a windowed durable edge or a coordinator registers is listed
// in the README's "Metrics reference", and every family listed there is
// registered by one of them.
func TestMetricInventoryMatchesREADME(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), p, store.Options{Fsync: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	_, singleTS := newClusterNode(t, p, Options{NodeID: "inv-single"})
	_, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "inv-edge"})
	_, winTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "inv-win", Store: st, Window: time.Hour, Bucket: time.Minute, RoundEps: 100})
	_, coordTS := newClusterNode(t, p, Options{Role: RoleCoordinator, NodeID: "inv-coord", Peers: []string{edgeTS.URL}, PullInterval: time.Hour})
	registered := make(map[string]bool)
	for _, url := range []string{singleTS.URL, edgeTS.URL, winTS.URL, coordTS.URL} {
		for _, line := range strings.Split(scrape(t, url), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && strings.HasPrefix(f[2], "ldp_") {
				registered[f[2]] = true
			}
		}
	}

	readme, err := os.ReadFile("../../examples/http_deployment/README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, ref, ok := strings.Cut(string(readme), "### Metrics reference")
	if !ok {
		t.Fatal(`README has no "### Metrics reference" section`)
	}
	ref, _, _ = strings.Cut(ref, "\n### ")
	listed := make(map[string]bool)
	for _, line := range strings.Split(ref, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 {
			for _, m := range regexp.MustCompile("`(ldp_[a-z0-9_]+)`").FindAllStringSubmatch(cells[1], -1) {
				listed[m[1]] = true
			}
		}
	}
	for name := range registered {
		if !listed[name] {
			t.Errorf("%s is registered but not in the README's metrics reference", name)
		}
	}
	for name := range listed {
		if !registered[name] {
			t.Errorf("%s is in the README's metrics reference but no server registers it", name)
		}
	}
}
