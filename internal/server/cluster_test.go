package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/store"
	"ldpmarginals/internal/wire"
)

// clusterCfg keeps the table-driven topology tests fast: small domain,
// every protocol still exercises its full reconstruction path.
var clusterCfg = core.Config{D: 6, K: 2, Epsilon: 1.2, OptimizedPRR: true}

// makeClusterReports perturbs a deterministic record stream.
func makeClusterReports(t *testing.T, p core.Protocol, n int, seed uint64) []core.Report {
	t.Helper()
	client := p.NewClient()
	r := rng.New(seed)
	reps := make([]core.Report, n)
	for i := range reps {
		rep, err := client.Perturb(uint64(i)%(1<<clusterCfg.D), r)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	return reps
}

func postBatchOK(t *testing.T, url string, p core.Protocol, reps []core.Report) {
	t.Helper()
	body, err := encoding.MarshalBatch(p.Name(), reps)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/report/batch", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch to %s: status %d: %s", url, resp.StatusCode, b)
	}
}

func postPull(t *testing.T, url string) ClusterStatus {
	t.Helper()
	resp, err := http.Post(url+"/pull", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("pull: status %d: %s", resp.StatusCode, b)
	}
	var cs ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	return cs
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// marginalBytes fetches the raw /marginal JSON for every in-contract
// mask, the byte-level fingerprint of the serving view.
func marginalBytes(t *testing.T, url string) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte)
	for _, beta := range bitops.MasksWithAtMostK(clusterCfg.D, 1, clusterCfg.K) {
		status, b := getBody(t, url+"/marginal?beta="+strconv.FormatUint(beta, 10))
		if status != http.StatusOK {
			t.Fatalf("marginal beta=%d: status %d: %s", beta, status, b)
		}
		out[beta] = b
	}
	return out
}

// newClusterNode builds one role-configured in-process node.
func newClusterNode(t *testing.T, p core.Protocol, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewWithOptions(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); _ = s.Close() })
	return s, ts
}

// TestClusterBitIdentityAllProtocols is the acceptance pin of the
// cluster tier: for each of the six protocols, two durable edges
// splitting a report stream — with one edge shut down and recovered from
// its WAL mid-stream — merged by a coordinator must serve a /marginal
// view byte-identical to a single node that consumed the whole stream.
func TestClusterBitIdentityAllProtocols(t *testing.T) {
	for _, kind := range core.AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			p, err := core.New(kind, clusterCfg)
			if err != nil {
				t.Fatal(err)
			}
			const n = 400
			reps := makeClusterReports(t, p, n, 7)

			// Reference: one single-role node consumes the whole stream.
			_, singleTS := newClusterNode(t, p, Options{NodeID: "ref"})
			postBatchOK(t, singleTS.URL, p, reps)
			postRefresh(t, singleTS.URL)
			want := marginalBytes(t, singleTS.URL)

			// Cluster: the stream splits round-robin across two edges.
			var split [2][]core.Report
			for i, rep := range reps {
				split[i%2] = append(split[i%2], rep)
			}
			edge1Dir := t.TempDir()
			openEdge1 := func() (*Server, *httptest.Server) {
				st, err := store.Open(edge1Dir, p, store.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-1", Store: st})
			}
			edge1, edge1TS := openEdge1()
			_, edge2TS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-2"})

			// A long pull interval keeps the background loop quiet; the
			// test drives convergence explicitly through POST /pull.
			_, coordTS := newClusterNode(t, p, Options{
				Role:         RoleCoordinator,
				NodeID:       "coord",
				Peers:        []string{edge1TS.URL, edge2TS.URL},
				PullInterval: time.Minute,
			})

			// First half of each edge's stream, then a pull.
			postBatchOK(t, edge1TS.URL, p, split[0][:len(split[0])/2])
			postBatchOK(t, edge2TS.URL, p, split[1])
			postPull(t, coordTS.URL)

			// Edge 1 "crashes": close it (the WAL has every acked
			// report), then bring it back from the same directory at the
			// same URL and ingest the rest of its stream.
			edge1TS.Close()
			_ = edge1.Close()
			st, err := store.Open(edge1Dir, p, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			edge1b, err := NewWithOptions(p, Options{Role: RoleEdge, NodeID: "edge-1", Store: st})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = edge1b.Close() })
			edge1bTS := httptest.NewServer(edge1b.Handler())
			t.Cleanup(edge1bTS.Close)
			if got := edge1b.N(); got != len(split[0])/2 {
				t.Fatalf("edge-1 recovered %d reports, want %d", got, len(split[0])/2)
			}
			postBatchOK(t, edge1bTS.URL, p, split[0][len(split[0])/2:])

			// The coordinator re-pulls: the recovered edge's full state
			// replaces its previous contribution (the restarted process
			// serves a fresh version label, so nothing is skipped).
			_, coord2TS := newClusterNode(t, p, Options{
				Role:         RoleCoordinator,
				NodeID:       "coord",
				Peers:        []string{edge1bTS.URL, edge2TS.URL},
				PullInterval: time.Minute,
			})
			cs := postPull(t, coord2TS.URL)
			for _, peer := range cs.Peers {
				if peer.LastError != "" {
					t.Fatalf("peer %s: pull error %q", peer.URL, peer.LastError)
				}
			}
			vs := postRefresh(t, coord2TS.URL)
			if vs.ViewN != n {
				t.Fatalf("coordinator epoch holds %d reports, want %d", vs.ViewN, n)
			}
			got := marginalBytes(t, coord2TS.URL)
			for beta, w := range want {
				if !bytes.Equal(got[beta], w) {
					t.Errorf("beta=%d: cluster marginal differs from single node\n single: %s\ncluster: %s", beta, w, got[beta])
				}
			}

			// Per-peer staleness: the serving epoch contains both peers
			// in full.
			status, body := getBody(t, coord2TS.URL+"/view/status")
			if status != http.StatusOK {
				t.Fatalf("view/status: %d", status)
			}
			var vsr ViewStatusResponse
			if err := json.Unmarshal(body, &vsr); err != nil {
				t.Fatal(err)
			}
			if len(vsr.Peers) != 2 {
				t.Fatalf("view/status peers = %+v, want 2 entries", vsr.Peers)
			}
			for _, pv := range vsr.Peers {
				if pv.StalenessReports != 0 || pv.ViewN == 0 {
					t.Errorf("peer %s: view_n=%d staleness=%d, want full coverage", pv.URL, pv.ViewN, pv.StalenessReports)
				}
			}
		})
	}
}

// TestClusterRepullIdempotent pins the replacement semantics: pulling an
// unchanged peer again must change nothing — not the fleet count, not
// the state version, not the served view.
func TestClusterRepullIdempotent(t *testing.T) {
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 200, 3)
	_, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-1"})
	postBatchOK(t, edgeTS.URL, p, reps)
	coord, coordTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "coord",
		Peers: []string{edgeTS.URL}, PullInterval: time.Minute,
	})
	first := postPull(t, coordTS.URL)
	if coord.N() != len(reps) {
		t.Fatalf("after first pull N=%d, want %d", coord.N(), len(reps))
	}
	for i := 0; i < 3; i++ {
		again := postPull(t, coordTS.URL)
		if coord.N() != len(reps) {
			t.Fatalf("re-pull %d changed N to %d", i, coord.N())
		}
		if again.StateVersion != first.StateVersion {
			t.Fatalf("re-pull %d changed state version %d -> %d", i, first.StateVersion, again.StateVersion)
		}
	}
}

// TestClusterDuplicateNodeID pins the double-count guard: two peer URLs
// resolving to the same node must contribute once, with the duplicate
// flagged in the cluster status.
func TestClusterDuplicateNodeID(t *testing.T) {
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 100, 5)
	edge, err := NewWithOptions(p, Options{Role: RoleEdge, NodeID: "edge-1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = edge.Close() })
	// Two listeners, one node: the misconfiguration the node id exists
	// to catch.
	tsA := httptest.NewServer(edge.Handler())
	t.Cleanup(tsA.Close)
	tsB := httptest.NewServer(edge.Handler())
	t.Cleanup(tsB.Close)
	postBatchOK(t, tsA.URL, p, reps)

	coord, coordTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "coord",
		Peers: []string{tsA.URL, tsB.URL}, PullInterval: time.Minute,
	})
	cs := postPull(t, coordTS.URL)
	if coord.N() != len(reps) {
		t.Fatalf("fleet N=%d, want %d (duplicate must not double-count)", coord.N(), len(reps))
	}
	var dups int
	for _, peer := range cs.Peers {
		if strings.Contains(peer.LastError, "already served") {
			dups++
		}
	}
	if dups != 1 {
		t.Fatalf("cluster status %+v: want exactly one duplicate-node-id error", cs.Peers)
	}
}

// TestClusterSelfPullRejected pins the cycle guard: a coordinator whose
// peer list points back at itself must refuse the frame instead of
// folding its own merged output back in as a "peer" every round.
func TestClusterSelfPullRejected(t *testing.T) {
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	selfURL := "http://" + l.Addr().String()
	coord, err := NewWithOptions(p, Options{
		Role: RoleCoordinator, NodeID: "coord",
		Peers: []string{selfURL}, PullInterval: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	ts := httptest.NewUnstartedServer(coord.Handler())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	t.Cleanup(ts.Close)

	for i := 0; i < 2; i++ {
		cs := postPull(t, selfURL)
		if coord.N() != 0 {
			t.Fatalf("self-pull %d inflated fleet N to %d", i, coord.N())
		}
		if len(cs.Peers) != 1 || !strings.Contains(cs.Peers[0].LastError, "own node id") {
			t.Fatalf("self-pull %d: peer status %+v, want an own-node-id error", i, cs.Peers)
		}
	}
}

// TestCoordinatorPeerStatePersistence pins the coordinator's restart
// story: with a ClusterDir, the latest accepted peer states survive a
// restart and serve immediately, even while every peer is unreachable.
func TestCoordinatorPeerStatePersistence(t *testing.T) {
	p, err := core.New(core.MargPS, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 150, 11)
	_, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-1"})
	postBatchOK(t, edgeTS.URL, p, reps)

	dir := t.TempDir()
	coord1, err := NewWithOptions(p, Options{
		Role: RoleCoordinator, NodeID: "coord",
		Peers: []string{edgeTS.URL}, PullInterval: time.Minute,
		ClusterDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(coord1.Handler())
	postPull(t, ts1.URL)
	want := postRefresh(t, ts1.URL)
	if want.ViewN != len(reps) {
		t.Fatalf("pre-restart epoch holds %d, want %d", want.ViewN, len(reps))
	}
	ts1.Close()
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart against the same directory with the peer unreachable: the
	// persisted state must carry the fleet.
	coord2, err := NewWithOptions(p, Options{
		Role: RoleCoordinator, NodeID: "coord",
		Peers: []string{edgeTS.URL}, PullInterval: time.Minute,
		ClusterDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord2.Close() })
	if coord2.N() != len(reps) {
		t.Fatalf("restarted coordinator N=%d, want %d", coord2.N(), len(reps))
	}
	ts2 := httptest.NewServer(coord2.Handler())
	t.Cleanup(ts2.Close)
	vs := postRefresh(t, ts2.URL)
	if vs.ViewN != len(reps) {
		t.Fatalf("restarted epoch holds %d, want %d", vs.ViewN, len(reps))
	}
}

// TestRoleEndpointGating pins which endpoints each role serves: an
// out-of-role request is a 403 naming the role, never a silent wrong
// answer.
func TestRoleEndpointGating(t *testing.T) {
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	_, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-1"})
	_, coordTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "coord",
		Peers: []string{edgeTS.URL}, PullInterval: time.Minute,
	})
	_, singleTS := newClusterNode(t, p, Options{NodeID: "solo"})

	cases := []struct {
		name, url, method, path string
		want                    int
	}{
		{"edge rejects marginal", edgeTS.URL, http.MethodGet, "/marginal?beta=3", http.StatusForbidden},
		{"edge rejects query", edgeTS.URL, http.MethodPost, "/query", http.StatusForbidden},
		{"edge rejects refresh", edgeTS.URL, http.MethodPost, "/refresh", http.StatusForbidden},
		{"edge rejects view status", edgeTS.URL, http.MethodGet, "/view/status", http.StatusForbidden},
		{"edge rejects pull", edgeTS.URL, http.MethodPost, "/pull", http.StatusForbidden},
		{"edge serves state", edgeTS.URL, http.MethodGet, "/state", http.StatusOK},
		{"edge serves status", edgeTS.URL, http.MethodGet, "/status", http.StatusOK},
		{"edge serves healthz", edgeTS.URL, http.MethodGet, "/healthz", http.StatusOK},
		{"coordinator rejects report", coordTS.URL, http.MethodPost, "/report", http.StatusForbidden},
		{"coordinator rejects batch", coordTS.URL, http.MethodPost, "/report/batch", http.StatusForbidden},
		{"coordinator serves state", coordTS.URL, http.MethodGet, "/state", http.StatusOK},
		{"coordinator serves pull", coordTS.URL, http.MethodPost, "/pull", http.StatusOK},
		{"single rejects pull", singleTS.URL, http.MethodPost, "/pull", http.StatusForbidden},
		{"single serves state", singleTS.URL, http.MethodGet, "/state", http.StatusOK},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, tc.url+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
		if tc.want == http.StatusForbidden && !strings.Contains(string(body), "role") {
			t.Errorf("%s: rejection %q does not name the role", tc.name, body)
		}
	}
}

// TestStateEndpointFrame pins the /state export: a valid CRC'd frame of
// the node's one component, whose blob restores into an identical
// aggregator.
func TestStateEndpointFrame(t *testing.T) {
	p, err := core.New(core.MargHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 120, 19)
	srv, ts := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-1"})
	postBatchOK(t, ts.URL, p, reps)
	status, body := getBody(t, ts.URL+"/state")
	if status != http.StatusOK {
		t.Fatalf("state: status %d", status)
	}
	cf, err := wire.DecodeComponentFrame(body, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	if cf.NodeID != "edge-1" || cf.N != len(reps) || len(cf.Components) != 1 {
		t.Fatalf("frame = %q n=%d in %d components, want edge-1 n=%d in one", cf.NodeID, cf.N, len(cf.Components), len(reps))
	}
	restored := p.NewAggregator()
	if err := restored.UnmarshalState(cf.Components[0].State); err != nil {
		t.Fatal(err)
	}
	if restored.N() != srv.N() {
		t.Fatalf("restored N=%d, want %d", restored.N(), srv.N())
	}
	// A second export of the unchanged state carries the same label and
	// identical bytes — what makes re-pulls idempotent.
	status2, body2 := getBody(t, ts.URL+"/state")
	if status2 != http.StatusOK || !bytes.Equal(body, body2) {
		t.Fatal("unchanged state exported different frames")
	}
}

// TestRoleOptionValidation pins the startup rejection of cross-role
// option mixes.
func TestRoleOptionValidation(t *testing.T) {
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWithOptions(p, Options{Role: RoleCoordinator}); err == nil {
		t.Error("coordinator without peers was accepted")
	}
	if _, err := NewWithOptions(p, Options{Role: RoleEdge, Peers: []string{"http://x"}}); err == nil {
		t.Error("edge with peers was accepted")
	}
	if _, err := NewWithOptions(p, Options{Peers: []string{"http://x"}}); err == nil {
		t.Error("single with peers was accepted")
	}
	if _, err := NewWithOptions(p, Options{Role: RoleEdge, ClusterDir: t.TempDir()}); err == nil {
		t.Error("edge with ClusterDir was accepted")
	}
	st, err := store.Open(t.TempDir(), p, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWithOptions(p, Options{Role: RoleCoordinator, Peers: []string{"http://x"}, Store: st}); err == nil {
		t.Error("coordinator with a Store was accepted")
	}
}
