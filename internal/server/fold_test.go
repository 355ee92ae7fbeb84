package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/em"
	"ldpmarginals/internal/freqoracle"
	"ldpmarginals/internal/view"
)

// TestNonDeltaProtocolsServedEndToEnd: the three protocols without exact
// unmerge — InpEM, InpOLH, InpHTCMS, all servable with ldpserver
// -protocol — are served by a single node and by a coordinator over two
// edges, and both serve what view.Build over a sequential aggregator of
// the same reports serves. No epoch of theirs can be reached by a delta
// fold, so every refresh is a full build.
func TestNonDeltaProtocolsServedEndToEnd(t *testing.T) {
	cfg := clusterCfg
	protocols := map[string]func() (core.Protocol, error){
		"InpEM": func() (core.Protocol, error) {
			return em.New(em.Config{D: cfg.D, K: cfg.K, Epsilon: cfg.Epsilon})
		},
		"InpOLH": func() (core.Protocol, error) {
			return freqoracle.NewOLH(freqoracle.OLHConfig{D: cfg.D, K: cfg.K, Epsilon: cfg.Epsilon})
		},
		"InpHTCMS": func() (core.Protocol, error) {
			return freqoracle.NewHCMS(freqoracle.HCMSConfig{D: cfg.D, K: cfg.K, Epsilon: cfg.Epsilon})
		},
	}
	for name, newProtocol := range protocols {
		t.Run(name, func(t *testing.T) {
			p, err := newProtocol()
			if err != nil {
				t.Fatal(err)
			}
			reps := makeClusterReports(t, p, 400, 13)
			_, singleTS := newClusterNode(t, p, Options{NodeID: "single", Shards: 3})
			_, edge1TS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "e1", Shards: 2})
			_, edge2TS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "e2", Shards: 2})
			_, coordTS := newClusterNode(t, p, Options{Role: RoleCoordinator, NodeID: "coord",
				Peers: []string{edge1TS.URL, edge2TS.URL}, PullInterval: time.Hour})
			seq := p.NewAggregator()
			for _, part := range [][]core.Report{reps[:200], reps[200:]} {
				if err := core.ConsumeAll(seq, part); err != nil {
					t.Fatal(err)
				}
				postBatchOK(t, singleTS.URL, p, part)
				postBatchOK(t, edge1TS.URL, p, part[:len(part)/2])
				postBatchOK(t, edge2TS.URL, p, part[len(part)/2:])
				postPull(t, coordTS.URL)
				ref, err := view.Build(seq, p, view.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, url := range []string{singleTS.URL, coordTS.URL} {
					if vs := postRefresh(t, url); vs.Incremental || vs.IncrementalBuilds != 0 || vs.ViewN != seq.N() {
						t.Fatalf("%s: refresh %+v, want a full build over %d reports", url, vs, seq.N())
					}
				}
				single, coord := marginalBytes(t, singleTS.URL), marginalBytes(t, coordTS.URL)
				for beta, s := range single {
					if !bytes.Equal(coord[beta], s) {
						t.Fatalf("beta=%d: coordinator serves %s, single node %s", beta, coord[beta], s)
					}
					var got MarginalResponse
					if err := json.Unmarshal(s, &got); err != nil {
						t.Fatal(err)
					}
					want, err := ref.Marginal(beta)
					if err != nil {
						t.Fatal(err)
					}
					for c := range want.Cells {
						if math.Float64bits(got.Cells[c]) != math.Float64bits(want.Cells[c]) {
							t.Fatalf("beta=%d cell %d: served %v, view.Build %v", beta, c, got.Cells[c], want.Cells[c])
						}
					}
				}
			}
		})
	}
}

// swapHandler serves whichever node is installed behind a stable URL:
// an edge restarted in place, or another node the address now routes to.
type swapHandler struct{ cur atomic.Value }

func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.cur.Load().(http.Handler).ServeHTTP(w, r)
}

// TestCoordinatorFoldsPeerChurn keeps one mid-tier coordinator and the
// root above it alive while their peers churn: an edge restarts under
// its id (a fresh salt, so a full pull follows), then a peer URL is
// re-pointed at a node with another id, which the root sees one tier down
// as a delta that removes the old node's component. After every pull and
// refresh both serve an incremental epoch that folded exactly the
// components that moved, equal to what a coordinator that just started
// serves over the same peers.
func TestCoordinatorFoldsPeerChurn(t *testing.T) {
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 400, 29)
	node := func(id string) *Server {
		s, err := NewWithOptions(p, Options{Role: RoleEdge, NodeID: id, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}
	var urls [2]string
	var routes [2]*swapHandler
	for i, id := range []string{"e1", "e2"} {
		routes[i] = &swapHandler{}
		routes[i].cur.Store(node(id).Handler())
		ts := httptest.NewServer(routes[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	mid, midTS := newClusterNode(t, p, Options{Role: RoleCoordinator, NodeID: "mid",
		Peers: urls[:], PullInterval: time.Hour, Shards: 4})
	root, rootTS := newClusterNode(t, p, Options{Role: RoleCoordinator, NodeID: "root",
		Peers: []string{midTS.URL}, PullInterval: time.Hour})
	pullAndCheck := func(step string, moved int) {
		t.Helper()
		for _, url := range []string{midTS.URL, rootTS.URL} {
			if cs := postPull(t, url); cs.Peers[0].LastError != "" {
				t.Fatalf("%s: pull failed: %+v", step, cs.Peers)
			}
			vs := postRefresh(t, url)
			if !vs.Incremental || vs.FoldedComponents != moved {
				t.Fatalf("%s: %s refreshed %+v, want an incremental epoch folding %d components", step, url, vs, moved)
			}
		}
		_, freshMid := newClusterNode(t, p, Options{Role: RoleCoordinator, NodeID: "fresh-mid",
			Peers: urls[:], PullInterval: time.Hour})
		_, freshRoot := newClusterNode(t, p, Options{Role: RoleCoordinator, NodeID: "fresh-root",
			Peers: []string{midTS.URL}, PullInterval: time.Hour})
		for _, url := range []string{freshMid.URL, freshRoot.URL} {
			postPull(t, url)
			postRefresh(t, url)
		}
		sameMarginals(t, step, midTS.URL, freshMid.URL)
		sameMarginals(t, step, rootTS.URL, freshRoot.URL)
	}

	postBatchOK(t, urls[0], p, reps[:100])
	postBatchOK(t, urls[1], p, reps[100:200])
	pullAndCheck("first pull", 2)

	// (a) e2 restarts under its id with a fresh salt: the base it is asked
	// for is unknown, one full frame replaces its one component.
	fullBefore := mid.puller.ins[urls[1]].fullPulls.Value()
	routes[1].cur.Store(node("e2").Handler())
	postBatchOK(t, urls[1], p, reps[200:260])
	pullAndCheck("restarted e2", 1)
	if got := mid.puller.ins[urls[1]].fullPulls.Value() - fullBefore; got != 1 {
		t.Fatalf("restarted e2 answered %d full frames, want 1", got)
	}

	// (b) urls[0] now routes to node x: every contribution of e1 drops and
	// x's is folded in — two components moved at the mid tier and, (c) as
	// a delta naming e1 removed, at the root.
	midDeltas := mid.puller.ins[urls[0]].deltaPulls.Value()
	rootDeltas := root.puller.ins[midTS.URL].deltaPulls.Value()
	routes[0].cur.Store(node("x").Handler())
	postBatchOK(t, urls[0], p, reps[260:400])
	pullAndCheck("re-pointed url", 2)
	if got := mid.puller.ins[urls[0]].deltaPulls.Value() - midDeltas; got != 0 {
		t.Fatalf("node x answered %d deltas to a base of e1's", got)
	}
	if got := root.puller.ins[midTS.URL].deltaPulls.Value() - rootDeltas; got != 1 {
		t.Fatalf("the root pulled %d deltas of the mid tier, want the one removing e1", got)
	}
	if held := heldComponents(mid); len(held) != 2 || held["x"].n != 140 || held["e2"].n != 60 {
		t.Fatalf("mid holds %v, want x and e2", held)
	}
}

// TestCoordinatorFoldCountsPeerComponents: a coordinator folds only peer
// components — it ingests nothing, so it has no local shards to count,
// whatever Shards says — and a cold capture counts exactly the components
// it holds.
func TestCoordinatorFoldCountsPeerComponents(t *testing.T) {
	p, err := core.New(core.InpPS, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 120, 31)
	_, edge1TS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "e1"})
	_, edge2TS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "e2"})
	postBatchOK(t, edge1TS.URL, p, reps[:60])
	postBatchOK(t, edge2TS.URL, p, reps[60:])
	opts := Options{Role: RoleCoordinator, NodeID: "coord", Shards: 8,
		Peers: []string{edge1TS.URL, edge2TS.URL}, PullInterval: time.Hour, ClusterDir: t.TempDir()}

	fresh, freshTS := newClusterNode(t, p, opts)
	if vs := getViewStatus(t, freshTS.URL); vs.Epoch != 1 || vs.FoldedComponents != 0 {
		t.Fatalf("fresh coordinator epoch %d folded %d components, want epoch 1 folding none", vs.Epoch, vs.FoldedComponents)
	}
	var st StatusResponse
	if status, body := getBody(t, freshTS.URL+"/status"); status != http.StatusOK || json.Unmarshal(body, &st) != nil || st.Shards != 8 || fresh.Shards() != 8 {
		t.Fatalf("/status %d %s, want the 8 configured shards reported", status, body)
	}
	postPull(t, freshTS.URL)
	freshTS.Close()
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}

	// The restarted coordinator's first epoch folds the two recovered
	// peer components, from scratch.
	_, restartedTS := newClusterNode(t, p, opts)
	if vs := getViewStatus(t, restartedTS.URL); vs.Incremental || vs.FoldedComponents != 2 || vs.ViewN != len(reps) {
		t.Fatalf("restarted coordinator: %+v, want a cold capture of 2 components over %d reports", vs, len(reps))
	}
}
