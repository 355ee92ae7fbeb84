package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"ldpmarginals/internal/cluster"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/fault"
)

// TestPeerQuarantineLifecycle drives the breaker end to end over HTTP:
// an edge whose response bodies are corrupted in flight is quarantined
// after three poisoned pulls, the coordinator keeps serving the held
// contribution unchanged, readiness surfaces (but is not failed by) the
// quarantine, and a clean forced pull lifts it and catches the view up.
func TestPeerQuarantineLifecycle(t *testing.T) {
	defer fault.Disarm()
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 160, 11)
	_, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-1"})
	coord, coordTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "coord",
		Peers: []string{edgeTS.URL},
		// The half-open cadence, 16 pull intervals, is far past the
		// test: the breaker stays shut until the forced pull probes it.
		PullInterval: time.Minute,
	})

	postBatchOK(t, edgeTS.URL, p, reps[:100])
	postPull(t, coordTS.URL)
	if coord.N() != 100 {
		t.Fatalf("after clean pull N=%d, want 100", coord.N())
	}
	postRefresh(t, coordTS.URL)
	want := marginalBytes(t, coordTS.URL)

	// Every response body now arrives damaged. Each pull must carry a
	// body (not a 304), so feed the edge fresh reports between pulls.
	fault.Arm(fault.Rule{Site: cluster.FaultBody, Mode: fault.ModeCorrupt, Seed: 9})
	var cs cluster.Status
	for i := 0; i < 3; i++ {
		postBatchOK(t, edgeTS.URL, p, reps[100+20*i:100+20*(i+1)])
		cs = postPull(t, coordTS.URL)
	}
	pe := cs.Peers[0]
	if pe.Health != "quarantined" || pe.PoisonFailures != 3 || pe.Quarantines != 1 {
		t.Fatalf("after 3 poisoned pulls: %+v, want quarantined/3/1", pe)
	}
	if pe.LastError == "" {
		t.Fatal("quarantined peer carries no last_error")
	}

	// The held contribution keeps serving, bit-identical to the last
	// good pull; none of the 60 poisoned reports leaked in.
	if coord.N() != 100 {
		t.Fatalf("quarantine changed fleet N to %d", coord.N())
	}
	postRefresh(t, coordTS.URL)
	for beta, w := range want {
		got := marginalBytes(t, coordTS.URL)[beta]
		if string(got) != string(w) {
			t.Fatalf("beta=%d: quarantined view drifted from last good pull", beta)
		}
	}

	// /view/status labels the frozen constituent.
	status, body := getBody(t, coordTS.URL+"/view/status")
	if status != http.StatusOK {
		t.Fatalf("view/status: %d", status)
	}
	var vsr ViewStatusResponse
	if err := json.Unmarshal(body, &vsr); err != nil {
		t.Fatal(err)
	}
	if len(vsr.Peers) != 1 || vsr.Peers[0].Health != "quarantined" {
		t.Fatalf("view/status peers = %+v, want one quarantined entry", vsr.Peers)
	}

	// Readiness surfaces the quarantine without going unready: the node
	// still serves its held state.
	status, body = getBody(t, coordTS.URL+"/readyz")
	if status != http.StatusOK {
		t.Fatalf("readyz while peer quarantined: %d: %s", status, body)
	}
	var ready ReadyResponse
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Ready || ready.PeerHealth[edgeTS.URL] != "quarantined" {
		t.Fatalf("readyz = %+v, want ready with peer quarantined", ready)
	}

	// The breaker state is scrapeable.
	status, body = getBody(t, coordTS.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	if !strings.Contains(string(body), "ldp_cluster_peer_quarantines_total") {
		t.Fatal("metrics missing ldp_cluster_peer_quarantines_total")
	}

	// The peer heals; a forced pull is the half-open probe, and one
	// clean frame lifts the quarantine and catches the view up.
	fault.Disarm()
	cs = postPull(t, coordTS.URL)
	pe = cs.Peers[0]
	if pe.Health != "healthy" || pe.PoisonFailures != 0 || pe.LastError != "" {
		t.Fatalf("after healing pull: %+v, want healthy", pe)
	}
	if pe.Quarantines != 1 {
		t.Fatalf("lifetime trip count = %d, want 1", pe.Quarantines)
	}
	if coord.N() != 160 {
		t.Fatalf("after recovery N=%d, want 160", coord.N())
	}
}

// TestDialFailuresBackOffWithoutQuarantine pins the transient/poison
// split over HTTP: an unreachable peer backs off but is never
// quarantined, so it rejoins on the regular retry schedule the moment
// the network heals.
func TestDialFailuresBackOffWithoutQuarantine(t *testing.T) {
	defer fault.Disarm()
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 50, 13)
	_, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-1"})
	postBatchOK(t, edgeTS.URL, p, reps)
	coord, coordTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "coord",
		Peers: []string{edgeTS.URL}, PullInterval: time.Minute,
	})

	fault.Arm(fault.Rule{Site: cluster.FaultDial, Mode: fault.ModeError, Msg: "connection refused"})
	var cs cluster.Status
	for i := 0; i < 5; i++ {
		cs = postPull(t, coordTS.URL)
	}
	pe := cs.Peers[0]
	if pe.Health != "backing_off" || pe.PoisonFailures != 0 || pe.Quarantines != 0 {
		t.Fatalf("after 5 dial failures: %+v, want backing_off and no quarantine", pe)
	}
	if pe.ConsecutiveFailures != 5 {
		t.Fatalf("consecutive_failures = %d, want 5", pe.ConsecutiveFailures)
	}

	fault.Disarm()
	cs = postPull(t, coordTS.URL)
	if pe = cs.Peers[0]; pe.Health != "healthy" {
		t.Fatalf("after network heals: %+v, want healthy", pe)
	}
	if coord.N() != len(reps) {
		t.Fatalf("after recovery N=%d, want %d", coord.N(), len(reps))
	}
}
