package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/fault"
	"ldpmarginals/internal/store"
)

// openEdgeStore opens a durable store for an edge-role test node.
func openEdgeStore(t *testing.T, dir string, p core.Protocol) *store.Store {
	t.Helper()
	st, err := store.Open(dir, p, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// Test503Hygiene is the handler-matrix pin of the 503 contract: every
// 503 this server emits — readiness refusals and degraded ingest sheds
// alike — carries an explicit Retry-After, a JSON reason body, and the
// request's trace id, so balancers know when to come back and failure
// reports can be joined against /debug/traces.
func Test503Hygiene(t *testing.T) {
	defer fault.Disarm()
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}

	// Row source 1: an unready coordinator (no peer state yet; the
	// configured peer does not exist).
	_, coordTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "h503-coord",
		Peers: []string{"http://127.0.0.1:1"}, PullInterval: time.Hour,
	})

	// Row source 2: a degraded durable edge. A persistent append fault
	// kills the WAL on the first batch (answered 500); every ingest
	// after it is shed 503 by the degradation state machine.
	st := openEdgeStore(t, t.TempDir(), p)
	_, edgeTS := newClusterNode(t, p, Options{
		Role: RoleEdge, NodeID: "h503-edge", Store: st,
		degradedProbe: time.Hour,
	})
	reps := makeClusterReports(t, p, 8, 17)
	fault.Arm(fault.Rule{Site: store.FaultWALAppend, Mode: fault.ModeError, Msg: "no space left on device"})
	resp, err := http.Post(edgeTS.URL+"/report/batch", "application/octet-stream", bytes.NewReader(mustBatch(t, p, reps...)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("batch onto dead WAL: status %d, want 500", resp.StatusCode)
	}

	rows := []struct {
		name   string
		method string
		url    string
		body   []byte
		reason string // substring the JSON body must carry
	}{
		{"readyz unready", http.MethodGet, coordTS.URL + "/readyz", nil, "no_peer_state"},
		{"degraded shed /report/batch", http.MethodPost, edgeTS.URL + "/report/batch", mustBatch(t, p, reps...), "degraded"},
		{"degraded shed /report", http.MethodPost, edgeTS.URL + "/report", mustSingleFrame(t, p, reps[0]), "degraded"},
		{"degraded readyz", http.MethodGet, edgeTS.URL + "/readyz", nil, "wal_failed"},
	}
	for _, row := range rows {
		var rd io.Reader
		if row.body != nil {
			rd = bytes.NewReader(row.body)
		}
		req, err := http.NewRequest(row.method, row.url, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s: status %d, want 503 (%s)", row.name, resp.StatusCode, body)
			continue
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: 503 without Retry-After", row.name)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", row.name, ct)
		}
		var shape struct {
			Error   string   `json:"error"`
			Reasons []string `json:"reasons"`
			TraceID string   `json:"trace_id"`
		}
		if err := json.Unmarshal(body, &shape); err != nil {
			t.Errorf("%s: 503 body %q is not JSON: %v", row.name, body, err)
			continue
		}
		reason := shape.Error
		for _, r := range shape.Reasons {
			reason += " " + r
		}
		if !strings.Contains(reason, row.reason) {
			t.Errorf("%s: reason %q does not mention %q", row.name, reason, row.reason)
		}
		if shape.TraceID == "" || shape.TraceID != resp.Header.Get("X-LDP-Trace-Id") {
			t.Errorf("%s: body trace_id %q, header %q", row.name, shape.TraceID, resp.Header.Get("X-LDP-Trace-Id"))
		}
	}

	// Reads keep serving from memory while degraded: the consumed (if
	// unlogged) reports answer /status and /state.
	status, _ := getBody(t, edgeTS.URL+"/status")
	if status != http.StatusOK {
		t.Fatalf("/status while degraded: %d", status)
	}
	status, _ = getBody(t, edgeTS.URL+"/state")
	if status != http.StatusOK {
		t.Fatalf("/state while degraded: %d", status)
	}
}

// TestBatchPersistFailureAccurateAck pins the ack contract when the WAL
// dies mid-/report/batch: the reply is a 500 (never a 200 ack for
// reports that may not be durable), Accepted is exactly the number of
// reports consumed into memory, and a crash at that instant loses at
// most the unacked batch — every previously 200-acked report is
// recovered.
func TestBatchPersistFailureAccurateAck(t *testing.T) {
	defer fault.Disarm()
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st := openEdgeStore(t, dir, p)
	srv, ts := newClusterNode(t, p, Options{
		Role: RoleEdge, NodeID: "ack-edge", Store: st,
		degradedProbe: time.Hour,
	})

	// 50 reports acked 200 under fsync=always: durable by contract.
	acked := makeClusterReports(t, p, 50, 23)
	postBatchOK(t, ts.URL, p, acked)

	// A 3000-report batch (three 1024-report chunks) hits a WAL that
	// dies after its second append syscall: some chunks may have logged,
	// the rest cannot.
	fault.Arm(fault.Rule{Site: store.FaultWALAppend, Mode: fault.ModeError, After: 2, Msg: "I/O error"})
	big := makeClusterReports(t, p, 3000, 29)
	resp, err := http.Post(ts.URL+"/report/batch", "application/octet-stream", bytes.NewReader(mustBatch(t, p, big...)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("mid-batch WAL death: status %d (%s), want 500", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("batch reply %q: %v", body, err)
	}
	if !strings.Contains(br.Error, "persistence failed") {
		t.Fatalf("batch reply error %q does not name the persistence failure", br.Error)
	}
	if br.TraceID == "" {
		t.Fatal("persistence-failure reply carries no trace_id")
	}
	// Accepted must be exactly what entered memory — the server's count
	// moved by precisely that many.
	if got := srv.N() - len(acked); br.Accepted != got {
		t.Fatalf("reply says accepted=%d but memory holds %d of the batch", br.Accepted, got)
	}

	// "Crash" now: copy the data directory as-is (no graceful Close,
	// which would snapshot the memory state and mask the question) and
	// recover from the copy. Every 200-acked report must come back; the
	// failed batch may be partially logged but never beyond what the
	// reply admitted was consumed.
	crash := t.TempDir()
	copyDir(t, dir, crash)
	re, err := store.Open(crash, p, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	_, rec := re.Recovered()
	if rec.Reports < len(acked) {
		t.Fatalf("crash recovery lost acked reports: recovered %d, acked %d", rec.Reports, len(acked))
	}
	if rec.Reports > len(acked)+br.Accepted {
		t.Fatalf("crash recovery found %d reports, more than acked %d + admitted %d", rec.Reports, len(acked), br.Accepted)
	}
}

// mustSingleFrame encodes one report as a single /report frame.
func mustSingleFrame(t *testing.T, p core.Protocol, rep core.Report) []byte {
	t.Helper()
	frame, err := encoding.Marshal(p.Name(), rep)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// copyDir copies every regular file of a flat directory.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
