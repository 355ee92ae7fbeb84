package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"testing"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/rng"
)

// TestViewDiagnosticsEndpoint pins the /view/diagnostics contract
// end to end against the hand computation for the test deployment's
// parameters (InpHT, d=8, k=2, eps=2): |T| = C(8,1)+C(8,2) = 36, so
// the theoretical TV bound is sqrt(36)*2^{k/2}/(eps*sqrt(n)) =
// 6/sqrt(n).
func TestViewDiagnosticsEndpoint(t *testing.T) {
	_, ts, p := newTestServer(t)
	client := p.NewClient()
	const n = 4
	for i := 0; i < n; i++ {
		rep, err := client.Perturb(uint64(i), rng.New(uint64(40+i)))
		if err != nil {
			t.Fatal(err)
		}
		if resp := postReport(t, ts.URL, p, rep); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("report %d: %d", i, resp.StatusCode)
		}
	}
	postRefresh(t, ts.URL)

	resp, err := http.Get(ts.URL + "/view/diagnostics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /view/diagnostics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var dr ViewDiagnosticsResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"consistency_l1", "max_disagreement", "projection_rounds"} {
		if _, ok := fields[name]; !ok {
			t.Errorf("reply %s has no %q", body, name)
		}
	}
	if dr.Epoch < 1 {
		t.Errorf("epoch = %d, want >= 1", dr.Epoch)
	}
	if dr.N != n {
		t.Errorf("n = %d, want %d", dr.N, n)
	}
	if dr.Protocol != p.Name() {
		t.Errorf("protocol = %q, want %q", dr.Protocol, p.Name())
	}
	if dr.TVBoundErr != "" {
		t.Errorf("tv_bound_error = %q, want empty", dr.TVBoundErr)
	}
	want := 6 / math.Sqrt(float64(n))
	if math.Abs(dr.TheoreticalTV-want) > 1e-12*want {
		t.Errorf("theoretical_tv = %v, want %v (6/sqrt(%d))", dr.TheoreticalTV, want, n)
	}
	if dr.ConsistencyL1 < 0 {
		t.Errorf("consistency_l1 = %v, want >= 0", dr.ConsistencyL1)
	}
	// A build runs at least two rounds (the second finds what the first's
	// simplex step broke) and at most its cap of 128.
	if dr.ProjectionRounds < 2 || dr.ProjectionRounds > 128 || !(dr.MaxDisagreement >= 0) {
		t.Errorf("projection_rounds = %d, max_disagreement = %v", dr.ProjectionRounds, dr.MaxDisagreement)
	}
}

// TestViewDiagnosticsEdgeRejected: an edge node has no serving view, so
// the diagnostics route is a role error, not a panic or an empty 200.
func TestViewDiagnosticsEdgeRejected(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "diag-edge"})
	resp, err := http.Get(ts.URL + "/view/diagnostics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("edge /view/diagnostics: status %d, want 403", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error == "" || er.TraceID == "" {
		t.Errorf("error reply = %+v, want message and trace id", er)
	}
}
