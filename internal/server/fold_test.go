package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/em"
	"ldpmarginals/internal/freqoracle"
	"ldpmarginals/internal/store"
)

// TestBaselinesRefused: a deployment serves only protocols whose
// aggregators fold and whose wire tag is served. The InpEM and InpOLH
// baselines keep raw reports and cannot be unmerged, and InpRR's tag is
// retired, so every role refuses them at construction, names where they
// run instead, and closes the store it was handed.
func TestBaselinesRefused(t *testing.T) {
	cfg := clusterCfg
	// A refused protocol has no served wire tag and so no store of its
	// own: the nodes are handed one opened for a served protocol of the
	// same shape.
	served, err := core.New(core.InpHT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baselines := map[string]func() (core.Protocol, error){
		"InpRR":  func() (core.Protocol, error) { return core.New(core.InpRR, cfg) },
		"InpEM":  func() (core.Protocol, error) { return em.New(cfg) },
		"InpOLH": func() (core.Protocol, error) { return freqoracle.NewOLH(cfg) },
	}
	roles := map[string]Options{
		"single":        {},
		"edge":          {Role: RoleEdge},
		"coordinator":   {Role: RoleCoordinator, Peers: []string{"http://127.0.0.1:1"}},
		"windowed-edge": {Role: RoleEdge, Window: time.Hour, Bucket: 10 * time.Minute},
	}
	for name, newProtocol := range baselines {
		p, err := newProtocol()
		if err != nil {
			t.Fatal(err)
		}
		for role, opts := range roles {
			t.Run(name+"/"+role, func(t *testing.T) {
				if opts.Role != RoleCoordinator {
					st, err := store.Open(t.TempDir(), served, store.Options{})
					if err != nil {
						t.Fatal(err)
					}
					opts.Store = st
				}
				s, err := NewWithOptions(p, opts)
				if err == nil {
					_ = s.Close()
					t.Fatalf("%s was served", name)
				}
				if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "ldpmarg") {
					t.Fatalf("refusal %q does not name %s and where it runs", err, name)
				}
				if opts.Store != nil {
					if err := opts.Store.Snapshot(); !errors.Is(err, store.ErrClosed) {
						t.Fatalf("refused node left its store open: snapshot %v", err)
					}
				}
			})
		}
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
	fullBefore := peerPulls(t, mid, urls[1]).full
	routes[1].cur.Store(node("e2").Handler())
	postBatchOK(t, urls[1], p, reps[200:260])
	pullAndCheck("restarted e2", 1)
	if got := peerPulls(t, mid, urls[1]).full - fullBefore; got != 1 {
		t.Fatalf("restarted e2 answered %d full frames, want 1", got)
	}

	// (b) urls[0] now routes to node x: every contribution of e1 drops and
	// x's is folded in — two components moved at the mid tier and, (c) as
	// a delta naming e1 removed, at the root.
	midDeltas := peerPulls(t, mid, urls[0]).delta
	rootDeltas := peerPulls(t, root, midTS.URL).delta
	routes[0].cur.Store(node("x").Handler())
	postBatchOK(t, urls[0], p, reps[260:400])
	pullAndCheck("re-pointed url", 2)
	if got := peerPulls(t, mid, urls[0]).delta - midDeltas; got != 0 {
		t.Fatalf("node x answered %d deltas to a base of e1's", got)
	}
	if got := peerPulls(t, root, midTS.URL).delta - rootDeltas; got != 1 {
		t.Fatalf("the root pulled %d deltas of the mid tier, want the one removing e1", got)
	}
	if held := heldComponents(t, mid); len(held) != 2 || held["x"].N != 140 || held["e2"].N != 60 {
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
