package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ldpmarginals/internal/cluster"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/fault"
	"ldpmarginals/internal/store"
)

// TestChaosAllProtocols drives every served protocol through two scripted
// fault schedules and pins both halves of the graceful-degradation
// contract:
//
//   - wal: a durable node's disk dies mid-stream. The batch in flight
//     is answered 500 (consumed into memory, not acked durable), every
//     ingest after it is shed 503, reads keep serving, and once the
//     disk heals the background probe auto-recovers the node — whose
//     final state, across a full process restart, is bit-identical to
//     a never-faulted twin fed exactly the non-shed batches.
//
//   - peer: a coordinator's edge starts serving corrupt frames. Three
//     poisoned pulls quarantine it; the held contribution serves
//     unchanged; a clean pull after the edge heals lifts the
//     quarantine and converges the merged view bit-identically to a
//     single node that consumed the whole stream.
//
// The fault registry is process-global, so these subtests must not run
// in parallel with anything.
func TestChaosAllProtocols(t *testing.T) {
	for i, p := range servedProtocols(t, clusterCfg) {
		seed := uint64(i + 1) // Table 2 position; InpRR, at 0, is not served
		t.Run(p.Name()+"/wal", func(t *testing.T) { chaosWAL(t, p, seed) })
		t.Run(p.Name()+"/wal-windowed", func(t *testing.T) { chaosWALWindowed(t, p, seed) })
		t.Run(p.Name()+"/peer", func(t *testing.T) { chaosPeer(t, p, seed) })
	}
}

// chaosBatch posts one batch and returns the HTTP status and reply.
func chaosBatch(t *testing.T, url string, p core.Protocol, reps []core.Report) (int, BatchResponse, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/report/batch", "application/octet-stream", bytes.NewReader(mustBatch(t, p, reps...)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var br BatchResponse
	if len(body) > 0 {
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatalf("batch reply %q: %v", body, err)
		}
	}
	return resp.StatusCode, br, resp.Header
}

// nodeHealth reads the health field of GET /status.
func nodeHealth(t *testing.T, url string) string {
	t.Helper()
	status, body := getBody(t, url+"/status")
	if status != http.StatusOK {
		t.Fatalf("/status: %d", status)
	}
	var sr StatusResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr.Health
}

// chaosMarginals fingerprints the serving view like marginalBytes, but
// epoch-independently: the faulted node and its never-faulted twin
// refresh a different number of times, and the epoch counter is build
// lineage, not state.
func chaosMarginals(t *testing.T, url string) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string)
	for beta, raw := range marginalBytes(t, url) {
		var mr MarginalResponse
		if err := json.Unmarshal(raw, &mr); err != nil {
			t.Fatalf("marginal beta=%d: %v", beta, err)
		}
		mr.Epoch = 0
		b, err := json.Marshal(mr)
		if err != nil {
			t.Fatal(err)
		}
		out[beta] = string(b)
	}
	return out
}

// awaitReady polls /readyz until it answers 200 or the deadline lapses.
func awaitReady(t *testing.T, url string, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		resp, err := http.Get(url + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("node not ready within %v", deadline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// chaosWAL and chaosPeer run one protocol's schedule; seed varies the
// reports and the corruption from protocol to protocol.
func chaosWAL(t *testing.T, p core.Protocol, seed uint64) {
	defer fault.Disarm()
	// Ten single-chunk batches: each is consumed atomically (all or
	// nothing), so the accepted set stays deterministic through the
	// fault window.
	reps := makeClusterReports(t, p, 1000, 37+seed)
	batch := func(i int) []core.Report { return reps[100*i : 100*(i+1)] }

	// The never-faulted twin consumes exactly the batches the faulted
	// node consumed (everything but the two shed while degraded). The
	// comparisons below are float-exact: a served view is a function of
	// the counters alone, so the faulted node, its restart, and the twin
	// must agree to the bit however each reached them.
	_, twinTS := newClusterNode(t, p, Options{NodeID: "chaos-twin"})

	dir := t.TempDir()
	st := openEdgeStore(t, dir, p)
	srv, ts := newClusterNode(t, p, Options{
		NodeID: "chaos-wal", Store: st,
		degradedProbe: 25 * time.Millisecond,
	})

	for i := 0; i < 5; i++ {
		postBatchOK(t, ts.URL, p, batch(i))
		postBatchOK(t, twinTS.URL, p, batch(i))
	}
	if h := nodeHealth(t, ts.URL); h != "healthy" {
		t.Fatalf("pre-fault health %q", h)
	}

	// The disk dies — appends AND the sentinel probe, so the node stays
	// pinned degraded until the disk heals (probe-only success would let
	// the 25ms probe revive the node mid-window and race the shed
	// assertions). Batch 5 is in flight when the WAL fails: consumed
	// into memory, answered 500 — the twin consumes it too, because the
	// recovery snapshot makes it durable again.
	fault.Arm(
		fault.Rule{Site: store.FaultWALAppend, Mode: fault.ModeError, Msg: "no space left on device"},
		fault.Rule{Site: store.FaultDiskProbe, Mode: fault.ModeError, Msg: "no space left on device"},
	)
	status, br, _ := chaosBatch(t, ts.URL, p, batch(5))
	if status != http.StatusInternalServerError || br.Accepted != 100 {
		t.Fatalf("batch into dead WAL: status %d accepted %d, want 500/100", status, br.Accepted)
	}
	postBatchOK(t, twinTS.URL, p, batch(5))

	// Batches 6 and 7 are shed 503 + Retry-After: not consumed, so the
	// twin never sees them.
	for i := 6; i < 8; i++ {
		status, _, hdr := chaosBatch(t, ts.URL, p, batch(i))
		if status != http.StatusServiceUnavailable {
			t.Fatalf("batch %d while degraded: status %d, want 503", i, status)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatalf("batch %d: degraded shed without Retry-After", i)
		}
	}
	if h := nodeHealth(t, ts.URL); h != "degraded" {
		t.Fatalf("health %q during fault window, want degraded", h)
	}
	// Reads keep serving from memory.
	postRefresh(t, ts.URL)
	if srv.N() != 600 {
		t.Fatalf("degraded node holds %d reports, want 600", srv.N())
	}

	// The disk heals; the background probe revives the WAL,
	// re-snapshots the memory state, and flips the node back within a
	// few probe ticks.
	fault.Disarm()
	awaitReady(t, ts.URL, 5*time.Second)
	if h := nodeHealth(t, ts.URL); h != "healthy" {
		t.Fatalf("health %q after recovery, want healthy", h)
	}

	for i := 8; i < 10; i++ {
		postBatchOK(t, ts.URL, p, batch(i))
		postBatchOK(t, twinTS.URL, p, batch(i))
	}

	// Live bit-identity: the recovered node serves exactly the twin's
	// marginals.
	postRefresh(t, ts.URL)
	postRefresh(t, twinTS.URL)
	want := chaosMarginals(t, twinTS.URL)
	got := chaosMarginals(t, ts.URL)
	for beta, w := range want {
		if got[beta] != w {
			t.Fatalf("beta=%d: recovered node differs from never-faulted twin", beta)
		}
	}

	// Restart bit-identity: everything the node consumed — including
	// batch 5, logged only by the post-recovery snapshot — survives a
	// full process restart.
	ts.Close()
	_ = srv.Close()
	st2, err := store.Open(dir, p, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewWithOptions(p, Options{NodeID: "chaos-wal", Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv2.Close() })
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	if srv2.N() != 800 {
		t.Fatalf("restart recovered %d reports, want 800", srv2.N())
	}
	postRefresh(t, ts2.URL)
	got = chaosMarginals(t, ts2.URL)
	for beta, w := range want {
		if got[beta] != w {
			t.Fatalf("beta=%d: restarted node differs from never-faulted twin", beta)
		}
	}
}

// chaosWALWindowed is the windowed arm of chaosWAL: the ring seals one
// bucket and expires another while the disk is dead. Those crossings
// live only in memory until the probe revives the WAL; Store.Recover
// then persists them and the live bucket, so the revived node and its
// restart both serve what a never-faulted windowed twin serves.
func chaosWALWindowed(t *testing.T, p core.Protocol, seed uint64) {
	defer fault.Disarm()
	const bucket = 10 * time.Minute
	reps := makeClusterReports(t, p, 600, 53+seed)
	batch := func(i int) []core.Report { return reps[100*i : 100*(i+1)] }
	opts := Options{Window: 3 * bucket, Bucket: bucket}
	base := time.Now()
	opts.NodeID = "chaos-win-twin"
	twin, twinTS := newClusterNode(t, p, opts)
	dir := t.TempDir()
	opts.NodeID, opts.Store, opts.degradedProbe = "chaos-win", openEdgeStore(t, dir, p), 25*time.Millisecond
	srv, ts := newClusterNode(t, p, opts)
	// advance moves both rings to bucket m of the grid; the faulted
	// node's crossing fails while its disk is dead.
	advance := func(m int) error {
		now := base.Add(time.Duration(m)*bucket + bucket/2)
		if err := twin.advanceWindow(now); err != nil {
			t.Fatal(err)
		}
		return srv.advanceWindow(now)
	}
	both := func(i int) {
		postBatchOK(t, ts.URL, p, batch(i))
		postBatchOK(t, twinTS.URL, p, batch(i))
	}

	both(0)
	both(1)
	if err := advance(1); err != nil {
		t.Fatal(err)
	}
	both(2)
	fault.Arm(
		fault.Rule{Site: store.FaultWALAppend, Mode: fault.ModeError, Msg: "no space left on device"},
		fault.Rule{Site: store.FaultDiskProbe, Mode: fault.ModeError, Msg: "no space left on device"},
	)
	if status, br, _ := chaosBatch(t, ts.URL, p, batch(3)); status != http.StatusInternalServerError || br.Accepted != 100 {
		t.Fatalf("batch into dead WAL: status %d accepted %d, want 500/100", status, br.Accepted)
	}
	postBatchOK(t, twinTS.URL, p, batch(3))
	// Seal batches 2 and 3, then slide batches 0 and 1 out: both only in
	// memory on the faulted node.
	for _, m := range []int{2, 3} {
		if err := advance(m); err == nil {
			t.Fatalf("crossing to bucket %d with a dead disk reported success", m)
		}
	}
	if status, _, _ := chaosBatch(t, ts.URL, p, batch(4)); status != http.StatusServiceUnavailable {
		t.Fatalf("batch while degraded: status %d, want 503", status)
	}

	fault.Disarm()
	awaitReady(t, ts.URL, 5*time.Second)
	both(5)
	want := observe(t, twinTS.URL)
	if got := observe(t, ts.URL); got != want {
		t.Fatalf("revived node %+v, never-faulted twin %+v", got, want)
	}

	ts.Close()
	_ = srv.Close()
	opts.Store = openEdgeStore(t, dir, p)
	_, ts2 := newClusterNode(t, p, opts)
	if got := observe(t, ts2.URL); got != want {
		t.Fatalf("restarted node %+v, never-faulted twin %+v", got, want)
	}
}

func chaosPeer(t *testing.T, p core.Protocol, seed uint64) {
	defer fault.Disarm()
	reps := makeClusterReports(t, p, 400, 41+seed)

	// Single-node twin: the reference the healed cluster must match.
	_, twinTS := newClusterNode(t, p, Options{NodeID: "peer-twin"})
	postBatchOK(t, twinTS.URL, p, reps)
	postRefresh(t, twinTS.URL)
	want := chaosMarginals(t, twinTS.URL)

	_, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "chaos-edge"})
	coord, coordTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "chaos-coord",
		Peers:        []string{edgeTS.URL},
		PullInterval: time.Minute,
	})

	postBatchOK(t, edgeTS.URL, p, reps[:250])
	postPull(t, coordTS.URL)
	postRefresh(t, coordTS.URL)
	held := chaosMarginals(t, coordTS.URL)

	// The edge starts serving corrupt frames; three poisoned pulls (each
	// against fresh edge state, so none is a 304) quarantine it.
	fault.Arm(fault.Rule{Site: cluster.FaultBody, Mode: fault.ModeCorrupt, Seed: 5 + seed})
	var cs cluster.Status
	for i := 0; i < 3; i++ {
		postBatchOK(t, edgeTS.URL, p, reps[250+50*i:250+50*(i+1)])
		cs = postPull(t, coordTS.URL)
	}
	if cs.Peers[0].Health != "quarantined" {
		t.Fatalf("after poisoned pulls: %+v, want quarantined", cs.Peers[0])
	}
	// The held contribution keeps serving, bit-identical to the last
	// good pull.
	if coord.N() != 250 {
		t.Fatalf("quarantine changed coordinator N to %d", coord.N())
	}
	postRefresh(t, coordTS.URL)
	for beta, w := range held {
		if got := chaosMarginals(t, coordTS.URL)[beta]; got != w {
			t.Fatalf("beta=%d: quarantined view drifted from held contribution", beta)
		}
	}

	// The edge heals; one clean (forced, half-open) pull lifts the
	// quarantine and converges the merged view onto the twin's.
	fault.Disarm()
	cs = postPull(t, coordTS.URL)
	if cs.Peers[0].Health != "healthy" {
		t.Fatalf("after healing pull: %+v, want healthy", cs.Peers[0])
	}
	if coord.N() != len(reps) {
		t.Fatalf("after recovery coordinator N=%d, want %d", coord.N(), len(reps))
	}
	postRefresh(t, coordTS.URL)
	got := chaosMarginals(t, coordTS.URL)
	for beta, w := range want {
		if got[beta] != w {
			t.Fatalf("beta=%d: healed cluster differs from single-node twin", beta)
		}
	}
}
