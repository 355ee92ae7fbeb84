package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/store"
	"ldpmarginals/internal/wire"
)

// getState fetches /state with an optional acknowledged base, sent as
// If-None-Match. It returns the status, body, ETag, and the X-LDP-Frame
// mode header.
func getState(t *testing.T, url string, base string) (int, []byte, string, string) {
	t.Helper()
	return getStateQuery(t, url, "", base)
}

// getStateQuery is getState with a query string.
func getStateQuery(t *testing.T, url, query, base string) (int, []byte, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/state?"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base != "" {
		req.Header.Set("If-None-Match", base)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("ETag"), resp.Header.Get("X-LDP-Frame")
}

// holding is the base lookup of a puller that holds the components of
// the frame it was served.
func holding(f wire.ComponentFrame) func(string) (wire.ComponentBase, bool) {
	return func(id string) (wire.ComponentBase, bool) {
		for _, c := range f.Components {
			if c.ID == id {
				return wire.ComponentBase{Version: c.Version, State: c.State}, true
			}
		}
		return wire.ComponentBase{}, false
	}
}

// TestStateDeltaHandshake pins the exporter side of the delta exchange
// over live HTTP: full componentized frame (one component, the node's
// merged shards), 304 on an acknowledged unchanged version, a delta whose
// moved component ships as a diff against the blob the base export
// shipped, and a full-frame fallback on an unknown base.
func TestStateDeltaHandshake(t *testing.T) {
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-1", Shards: 8, IngestWorkers: 1})
	// Eight batches, one per shard.
	first := makeClusterReports(t, p, 160, 21)
	postBatchOK(t, ts.URL, p, first[:153])
	for i := 153; i < 160; i++ {
		postBatchOK(t, ts.URL, p, first[i:i+1])
	}

	status, body, etag, mode := getState(t, ts.URL, "")
	if status != http.StatusOK || mode != "full" {
		t.Fatalf("state: status %d mode %q", status, mode)
	}
	full, err := wire.DecodeComponentFrame(body, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	if full.Delta || full.NodeID != "edge-1" || full.N != 160 {
		t.Fatalf("full frame = %+v", full)
	}
	if len(full.Components) != 1 || full.Components[0].ID != "edge-1" || full.Components[0].Version != full.Version {
		t.Fatalf("full frame ships %d components, want the node's one, labeled like the frame", len(full.Components))
	}
	if etag != stateETag(full.Version) {
		t.Fatalf("ETag %q does not label the frame version %d", etag, full.Version)
	}

	// Acknowledging the current version short-circuits to 304 with no
	// body.
	status, body, _, _ = getState(t, ts.URL, etag)
	if status != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("acknowledged pull: status %d with %d body bytes, want 304 empty", status, len(body))
	}

	// One more batch moves the node: the component arrives as its
	// difference from the blob the base export shipped, which only a
	// decoder holding that blob can read.
	postBatchOK(t, ts.URL, p, makeClusterReports(t, p, 20, 22))
	status, body, etag2, mode := getState(t, ts.URL, etag)
	if status != http.StatusOK || mode != "delta" {
		t.Fatalf("moved state: status %d mode %q, want 200 delta", status, mode)
	}
	if _, err := wire.DecodeComponentFrame(body, 1<<24); !errors.Is(err, wire.ErrDiffBase) {
		t.Fatalf("delta decoded without a base: error %v, want ErrDiffBase", err)
	}
	delta, err := wire.DecodeComponentFrameWith(body, 1<<24, holding(full))
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Delta || delta.BaseVersion != full.Version || delta.N != 180 {
		t.Fatalf("delta frame = %+v (base %d)", delta, full.Version)
	}
	if len(delta.Components) != 1 || len(delta.Removed) != 0 || delta.Components[0].Base == nil {
		t.Fatalf("delta ships %d components and removes %d, want the node's one as a diff", len(delta.Components), len(delta.Removed))
	}
	// Folding the delta over the base must reproduce a fresh full pull
	// exactly — the invariant the coordinator's accept path relies on.
	merged := make(map[string]wire.StateComponent)
	for _, c := range full.Components {
		merged[c.ID] = c
	}
	for _, c := range delta.Components {
		merged[c.ID] = c
	}
	for _, id := range delta.Removed {
		delete(merged, id)
	}
	status, body, etag3, _ := getState(t, ts.URL, "")
	if status != http.StatusOK {
		t.Fatalf("fresh full pull: status %d", status)
	}
	fresh, err := wire.DecodeComponentFrame(body, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	if etag3 != etag2 {
		t.Fatalf("fresh full pull ETag %q, delta ETag %q", etag3, etag2)
	}
	if len(fresh.Components) != len(merged) {
		t.Fatalf("delta fold yields %d components, fresh full pull has %d", len(merged), len(fresh.Components))
	}
	for _, c := range fresh.Components {
		got, ok := merged[c.ID]
		if !ok || got.Version != c.Version || got.N != c.N || !bytes.Equal(got.State, c.State) {
			t.Fatalf("component %s: delta fold diverges from fresh full pull", c.ID)
		}
	}

	// An unknown base (never served by this process) falls back to a
	// full frame.
	status, body, _, mode = getState(t, ts.URL, `"123456789"`)
	if status != http.StatusOK || mode != "full" {
		t.Fatalf("unknown base: status %d mode %q, want 200 full", status, mode)
	}
	if f, err := wire.DecodeComponentFrame(body, 1<<24); err != nil || f.Delta {
		t.Fatalf("unknown base served delta=%v err=%v, want a full frame", f.Delta, err)
	}
}

// TestStateIgnoresQueryTokens: /state reads nothing from the query but
// the base. Twin edges — one node id, one version salt, the same reports
// — asked with no query and with every token coordinators once sent
// (components=1&diff=1&sparse=2&compact=1) serve byte-identical full and
// delta frames, and a delta that names only its base, as ?since=, ships
// the moved component as a sparse diff.
func TestStateIgnoresQueryTokens(t *testing.T) {
	p, err := core.New(core.InpPS, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, plainTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-1", Shards: 1})
	tokens, tokensTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-1", Shards: 1})
	tokens.verSalt = plain.verSalt
	const tokenQuery = "components=1&diff=1&sparse=2&compact=1"
	reps := makeClusterReports(t, p, 102, 23)
	post := func(reps []core.Report) {
		t.Helper()
		postBatchOK(t, plainTS.URL, p, reps)
		postBatchOK(t, tokensTS.URL, p, reps)
	}

	post(reps[:100])
	_, full, etag, mode := getState(t, plainTS.URL, "")
	_, fullTokens, _, modeTokens := getStateQuery(t, tokensTS.URL, tokenQuery, "")
	if mode != "full" || modeTokens != "full" || !bytes.Equal(full, fullTokens) {
		t.Fatalf("full frames: %s of %d bytes, with the tokens %s of %d, not the same bytes", mode, len(full), modeTokens, len(fullTokens))
	}
	held, err := wire.DecodeComponentFrame(full, 1<<24)
	if err != nil {
		t.Fatal(err)
	}

	// Two reports move at most two of the 64 counters.
	post(reps[100:])
	since := "since=" + strings.Trim(etag, `"`)
	_, delta, _, mode := getStateQuery(t, plainTS.URL, since, "")
	_, deltaTokens, _, modeTokens := getStateQuery(t, tokensTS.URL, tokenQuery+"&"+since, "")
	if mode != "delta" || modeTokens != "delta" || !bytes.Equal(delta, deltaTokens) {
		t.Fatalf("deltas: %s of %d bytes, with the tokens %s of %d, not the same bytes", mode, len(delta), modeTokens, len(deltaTokens))
	}
	cf, err := wire.DecodeComponentFrameWith(delta, 1<<24, holding(held))
	if err != nil {
		t.Fatal(err)
	}
	if len(cf.Components) != 1 || cf.Components[0].Base == nil || !cf.Components[0].Base.Sparse {
		t.Fatalf("delta of two reports ships %+v, want the node's component as a sparse diff", cf.Components)
	}
}

// TestClusterDeltaVsFullBitIdentity is the satellite acceptance table:
// for each of the six protocols, a coordinator tracks two edges through
// incremental rounds of deltas and diffs — including an edge
// crash/recovery mid-stream, which re-salts the version labels and forces
// it through its full-frame fallback — and after every round must hold
// the components, and serve the marginals, byte for byte, of a
// coordinator that just started and pulled one full frame per edge.
func TestClusterDeltaVsFullBitIdentity(t *testing.T) {
	for _, kind := range core.AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			p, err := core.New(kind, clusterCfg)
			if err != nil {
				t.Fatal(err)
			}
			reps := makeClusterReports(t, p, 576, 31)
			var split [2][]core.Report
			for i, rep := range reps {
				split[i%2] = append(split[i%2], rep)
			}
			// spread posts the next n reports of an edge's stream as four
			// equal batches, one to each of the four shards.
			var sent [2]int
			spread := func(url string, edge, n int) {
				t.Helper()
				for i := 0; i < 4; i++ {
					postBatchOK(t, url, p, split[edge][sent[edge]:sent[edge]+n/4])
					sent[edge] += n / 4
				}
			}
			edge1Dir := t.TempDir()
			st, err := store.Open(edge1Dir, p, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			edge1, edge1TS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-1", Store: st, Shards: 4})
			_, edge2TS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-2", Shards: 4})

			peers := []string{edge1TS.URL, edge2TS.URL}
			deltaCoord, deltaTS := newClusterNode(t, p, Options{
				Role: RoleCoordinator, NodeID: "coord-delta",
				Peers: peers, PullInterval: time.Minute,
			})

			compare := func(round string, wantN int) {
				t.Helper()
				postPull(t, deltaTS.URL)
				// What the deltas and diffs left the coordinator holding is,
				// component for component, what one full frame of whole
				// components installs in a coordinator that just started,
				// and the two serve the same marginals.
				fresh, freshTS := newClusterNode(t, p, Options{
					Role: RoleCoordinator, NodeID: "coord-fresh",
					Peers: peers, PullInterval: time.Minute,
				})
				postPull(t, freshTS.URL)
				sameHeldComponents(t, round, deltaCoord, fresh)
				if vs := postRefresh(t, deltaTS.URL); vs.ViewN != wantN {
					t.Fatalf("%s: delta coordinator epoch holds %d, want %d", round, vs.ViewN, wantN)
				}
				if vs := postRefresh(t, freshTS.URL); vs.ViewN != wantN {
					t.Fatalf("%s: fresh coordinator epoch holds %d, want %d", round, vs.ViewN, wantN)
				}
				sameMarginals(t, round, deltaTS.URL, freshTS.URL)
			}
			diffsFrom := func(url string) uint64 { return deltaCoord.puller.ins[url].diffComps.Value() }

			// Round 1: first full pulls. Rounds 2-3: incremental growth,
			// served to the delta coordinator as deltas whose one component
			// is small next to the state it moved.
			spread(edge1TS.URL, 0, 240)
			spread(edge2TS.URL, 1, 240)
			compare("round 1", 480)
			spread(edge1TS.URL, 0, 16)
			compare("round 2", 496)
			spread(edge2TS.URL, 1, 16)
			compare("round 3", 512)

			// Edge 1 crashes and recovers from its WAL at the same URL:
			// the new process serves fresh (re-salted) version labels, so
			// the delta coordinator's acknowledged base is unknown and the
			// pull must fall back to one full frame — no 412s, no skew.
			addr := edge1TS.Listener.Addr().String()
			edge1TS.Close()
			if err := edge1.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := store.Open(edge1Dir, p, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			edge1b, err := NewWithOptions(p, Options{Role: RoleEdge, NodeID: "edge-1", Store: st2, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = edge1b.Close() })
			edge1bTS := newServerAt(t, addr, edge1b)
			spread(edge1bTS, 0, 16)
			beforeRestart := diffsFrom(edge1TS.URL)
			compare("post-recovery", 528)
			if got := diffsFrom(edge1TS.URL); got != beforeRestart {
				t.Fatalf("pull across the edge restart applied %d diffs to blobs of the dead process", got-beforeRestart)
			}
			spread(edge2TS.URL, 1, 16)
			compare("round 5", 544)
			// The full frame re-based the coordinator: diffs resume.
			spread(edge1bTS, 0, 16)
			compare("round 6", 560)
			// One report moves one counter under the sampling and Hadamard
			// protocols; under randomized response it moves half of them,
			// and the whole component stays the smaller payload.
			wantDiffs := kind != core.InpRR && kind != core.MargRR
			if wantDiffs && diffsFrom(edge1TS.URL) == beforeRestart {
				t.Error("no component of the restarted edge arrived as a diff once the coordinator held its new blobs")
			}

			// The delta path must actually have been exercised: at least
			// one delta-mode pull per edge peer across the rounds.
			for url, ins := range deltaCoord.puller.ins {
				if ins.deltaPulls.Value() == 0 {
					t.Errorf("peer %s: no delta pulls recorded (full=%d, 304=%d)",
						url, ins.fullPulls.Value(), ins.notModified.Value())
				}
				if ins.bytesSaved.Value() == 0 {
					t.Errorf("peer %s: delta pulls saved no bytes", url)
				}
				if wantDiffs && ins.diffComps.Value() == 0 {
					t.Errorf("peer %s: no component arrived as a diff", url)
				}
			}
		})
	}
}

// TestClusterTwoTierBitIdentity pins hierarchical fan-in: edges pulled
// through a mid-tier coordinator into a root must serve marginals
// byte-identical to a flat coordinator over the same edges, and the
// root's accepted state must decompose into the edges' true components
// (passed through the mid tier with their original ids).
func TestClusterTwoTierBitIdentity(t *testing.T) {
	p, err := core.New(core.MargHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 300, 41)
	_, edge1TS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-1", Shards: 3})
	_, edge2TS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-2", Shards: 1})
	_, midTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "mid",
		Peers: []string{edge1TS.URL, edge2TS.URL}, PullInterval: time.Minute,
	})
	root, rootTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "root",
		Peers: []string{midTS.URL}, PullInterval: time.Minute,
	})
	flat, flatTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "flat",
		Peers: []string{edge1TS.URL, edge2TS.URL}, PullInterval: time.Minute,
	})

	converge := func(round string, wantN int) {
		t.Helper()
		postPull(t, midTS.URL)
		postPull(t, rootTS.URL)
		postPull(t, flatTS.URL)
		if vs := postRefresh(t, rootTS.URL); vs.ViewN != wantN {
			t.Fatalf("%s: root epoch holds %d, want %d", round, vs.ViewN, wantN)
		}
		postRefresh(t, flatTS.URL)
		want := marginalBytes(t, flatTS.URL)
		got := marginalBytes(t, rootTS.URL)
		for beta, w := range want {
			if !bytes.Equal(got[beta], w) {
				t.Fatalf("%s beta=%d: two-tier marginal differs from flat coordinator", round, beta)
			}
		}
		// The mid tier passes blobs through by reference and diffs them
		// for the root like an edge would: the root ends up holding the
		// edges' own components, byte for byte.
		sameHeldComponents(t, round, root, flat)
	}

	postBatchOK(t, edge1TS.URL, p, reps[:140])
	postBatchOK(t, edge2TS.URL, p, reps[140:280])
	converge("round 1", 280)
	// Incremental: the root's second pull of the mid tier is a delta of
	// the mid's pass-through components, the moved one as a diff.
	postBatchOK(t, edge1TS.URL, p, reps[280:300])
	converge("round 2", 300)

	cs := postPull(t, rootTS.URL)
	if len(cs.Peers) != 1 || cs.Peers[0].NodeID != "mid" {
		t.Fatalf("root peers = %+v", cs.Peers)
	}
	// The mid tier passes the edges' components through unchanged, so the
	// root can dedup and delta-diff the fleet's true constituents.
	if cs.Peers[0].Components != 2 {
		t.Fatalf("root holds %d components via the mid tier, want one per edge", cs.Peers[0].Components)
	}
	root.fleet.mu.Lock()
	origins := make(map[string]bool)
	for id := range root.fleet.peers[0].comps {
		origins[wire.ComponentOrigin(id)] = true
	}
	root.fleet.mu.Unlock()
	if !origins["edge-1"] || !origins["edge-2"] || len(origins) != 2 {
		t.Fatalf("root component origins = %v, want exactly edge-1 and edge-2", origins)
	}
	ins := root.puller.ins[midTS.URL]
	if ins.deltaPulls.Value() == 0 {
		t.Errorf("root never pulled a delta through the mid tier (full=%d)", ins.fullPulls.Value())
	}
	if ins.diffComps.Value() == 0 {
		t.Error("no pass-through component reached the root as a diff")
	}
}

// sameMarginals fails unless two nodes serve the same cells over the
// same report count for every mask, whatever their epoch numbers.
func sameMarginals(t *testing.T, round, gotURL, wantURL string) {
	t.Helper()
	got := marginalBytes(t, gotURL)
	for beta, w := range marginalBytes(t, wantURL) {
		var g, want MarginalResponse
		if err := json.Unmarshal(got[beta], &g); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(w, &want); err != nil {
			t.Fatal(err)
		}
		g.Epoch, want.Epoch = 0, 0
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("%s beta=%d: %s serves %s, %s serves %s", round, beta, gotURL, got[beta], wantURL, w)
		}
	}
}

// heldComponents flattens what a coordinator holds across its peers.
func heldComponents(s *Server) map[string]peerComp {
	s.fleet.mu.Lock()
	defer s.fleet.mu.Unlock()
	all := make(map[string]peerComp)
	for _, pe := range s.fleet.peers {
		for id, c := range pe.comps {
			all[id] = c
		}
	}
	return all
}

// sameHeldComponents fails unless two coordinators hold the same
// components: ids, version labels, report counts and blob bytes.
func sameHeldComponents(t *testing.T, round string, got, want *Server) {
	t.Helper()
	g, w := heldComponents(got), heldComponents(want)
	if len(g) != len(w) || len(w) == 0 {
		t.Fatalf("%s: %s holds %d components, %s holds %d", round, got.nodeID, len(g), want.nodeID, len(w))
	}
	for id, wc := range w {
		gc, ok := g[id]
		if !ok || gc.version != wc.version || gc.n != wc.n || !bytes.Equal(gc.state, wc.state) {
			t.Fatalf("%s: component %s differs between %s and %s", round, id, got.nodeID, want.nodeID)
		}
	}
}

// TestDiffFallbackLadder walks the rungs below "diff": a retained blob
// that is not the puller's base ships the component whole, and a diff
// that does not rebuild on what the puller holds costs exactly one more
// request, a full frame, in the same pull — after which diffs resume.
func TestDiffFallbackLadder(t *testing.T) {
	p, err := core.New(core.InpPS, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 300, 71)
	edge, err := NewWithOptions(p, Options{Role: RoleEdge, NodeID: "edge-1", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var stateGets atomic.Int64
	inner := edge.Handler()
	edgeTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/state" {
			stateGets.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { edgeTS.Close(); _ = edge.Close() })
	newCoord := func(id string) (*Server, string, *peerInstruments) {
		c, ts := newClusterNode(t, p, Options{
			Role: RoleCoordinator, NodeID: id, Peers: []string{edgeTS.URL}, PullInterval: time.Minute,
		})
		return c, ts.URL, c.puller.ins[edgeTS.URL]
	}
	a, aURL, aIns := newCoord("coord-a")
	b, bURL, _ := newCoord("coord-b")
	type counts struct{ gets, full, delta, diffs uint64 }
	pullA := func() counts {
		t.Helper()
		before := counts{uint64(stateGets.Load()), aIns.fullPulls.Value(), aIns.deltaPulls.Value(), aIns.diffComps.Value()}
		if cs := postPull(t, aURL); cs.Peers[0].LastError != "" {
			t.Fatalf("pull failed: %s", cs.Peers[0].LastError)
		}
		return counts{uint64(stateGets.Load()) - before.gets, aIns.fullPulls.Value() - before.full,
			aIns.deltaPulls.Value() - before.delta, aIns.diffComps.Value() - before.diffs}
	}

	postBatchOK(t, edgeTS.URL, p, reps[:100])
	if got := pullA(); got != (counts{gets: 1, full: 1}) {
		t.Fatalf("first pull: %+v, want one full frame", got)
	}
	postBatchOK(t, edgeTS.URL, p, reps[100:150])
	if got := pullA(); got != (counts{gets: 1, delta: 1, diffs: 1}) {
		t.Fatalf("second pull: %+v, want one delta with the component as a diff", got)
	}

	// Another puller's export replaces the retained blob: the edge knows
	// a's base from its history ring but no longer has the blob a holds.
	postBatchOK(t, edgeTS.URL, p, reps[150:200])
	postPull(t, bURL)
	postBatchOK(t, edgeTS.URL, p, reps[200:250])
	if got := pullA(); got != (counts{gets: 1, delta: 1}) {
		t.Fatalf("pull against a stale retained blob: %+v, want one delta of whole components", got)
	}
	postPull(t, bURL)
	sameHeldComponents(t, "after the whole-component delta", a, b)

	// a's copy of its base goes bad under an unchanged label (the races
	// the one-directional version guarantee allows end here too): the
	// rebuilt blob fails its checksum, and the pull recovers on its own.
	a.fleet.mu.Lock()
	pe := a.fleet.peers[0]
	bad := make(map[string]peerComp, len(pe.comps))
	for id, c := range pe.comps {
		c.state = append([]byte(nil), c.state...)
		c.state[len(c.state)-1] ^= 1
		bad[id] = c
	}
	pe.comps = bad
	a.fleet.mu.Unlock()
	postBatchOK(t, edgeTS.URL, p, reps[250:275])
	if got := pullA(); got != (counts{gets: 2, full: 1}) {
		t.Fatalf("pull onto a mismatched base: %+v, want the diff reply plus exactly one full re-fetch", got)
	}
	postPull(t, bURL)
	sameHeldComponents(t, "after the full re-fetch", a, b)

	postBatchOK(t, edgeTS.URL, p, reps[275:])
	if got := pullA(); got != (counts{gets: 1, delta: 1, diffs: 1}) {
		t.Fatalf("pull after the re-fetch: %+v, want diffs to have resumed", got)
	}
	postPull(t, bURL)
	sameHeldComponents(t, "at the end", a, b)
	if a.N() != len(reps) {
		t.Fatalf("coordinator holds %d reports, %d were posted", a.N(), len(reps))
	}
}

// pullArrivals totals, over the cluster.pull spans a coordinator has on
// /debug/traces, how the components it pulled arrived. Sparse diffs are
// counted among the diffs, as on the metric.
type pullArrivals struct{ diffs, sparse, whole int }

func scrapePullArrivals(t *testing.T, url string) pullArrivals {
	t.Helper()
	var a pullArrivals
	for _, tr := range scrapeTraces(t, url).Traces {
		for _, sp := range tr.Spans {
			if sp.Name != "cluster.pull" {
				continue
			}
			for _, attr := range sp.Attrs {
				n, _ := strconv.Atoi(attr.Value)
				switch attr.Key {
				case "diff_components":
					a.diffs += n
				case "sparse_components":
					a.sparse += n
				case "whole_components":
					a.whole += n
				}
			}
		}
	}
	return a
}

// TestDiffFormsBySize pins both diff forms end to end on one InpPS edge:
// two reports move two of its 64 counters and arrive sparse, and a batch
// that moves nearly every counter by several arrives as a dense diff,
// smaller than the sparse one or the whole component would be. The pull
// spans say which, and the coordinator ends up holding what one that
// just started pulls.
func TestDiffFormsBySize(t *testing.T) {
	p, err := core.New(core.InpPS, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 2552, 25)
	_, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-1", Shards: 2})
	coord, coordTS := newClusterNode(t, p, Options{Role: RoleCoordinator, NodeID: "coord", Peers: []string{edgeTS.URL}, PullInterval: time.Minute})
	pull := func(reps []core.Report) pullArrivals {
		t.Helper()
		postBatchOK(t, edgeTS.URL, p, reps)
		before := scrapePullArrivals(t, coordTS.URL)
		if cs := postPull(t, coordTS.URL); cs.Peers[0].LastError != "" {
			t.Fatalf("pull failed: %s", cs.Peers[0].LastError)
		}
		after := scrapePullArrivals(t, coordTS.URL)
		return pullArrivals{after.diffs - before.diffs, after.sparse - before.sparse, after.whole - before.whole}
	}
	pull(reps[:2000])
	if got := pull(reps[2000:2002]); got != (pullArrivals{diffs: 1, sparse: 1}) {
		t.Fatalf("two reports arrived as %+v, want one sparse diff", got)
	}
	if got := pull(reps[2002:]); got != (pullArrivals{diffs: 1}) {
		t.Fatalf("%d reports arrived as %+v, want one dense diff", len(reps)-2002, got)
	}
	fresh, freshTS := newClusterNode(t, p, Options{Role: RoleCoordinator, NodeID: "coord-fresh", Peers: []string{edgeTS.URL}, PullInterval: time.Minute})
	postPull(t, freshTS.URL)
	sameHeldComponents(t, "after the dense diff", coord, fresh)
}

// TestPullRefusesOtherFormats: a peer of an older build serves frames
// this one does not read — an LDPD frame of format 1, as the build before
// answered a coordinator, and an LDPX single-blob frame, as builds before
// that answered a bare GET. The pull fails on the frame's format, by
// name, in POST /pull's peer entry, and as poison: after QuarantineAfter
// pulls the peer is quarantined, as for any frame that does not decode.
func TestPullRefusesOtherFormats(t *testing.T) {
	p, err := core.New(core.InpPS, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	seal := func(buf []byte) []byte {
		return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli)))
	}
	// Node "old" at version 20 with no reports, its one component whole.
	for name, frame := range map[string][]byte{
		"LDPD format 1": seal([]byte("LDPD\x01\x02\x03old\x14\x00\x01\x10\x02\x02\x07\x01")),
		"LDPX":          seal([]byte("LDPX\x01\x03old\x14\x00\x02\x07\x01")),
	} {
		t.Run(name, func(t *testing.T) {
			old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("ETag", `"20"`)
				_, _ = w.Write(frame)
			}))
			t.Cleanup(old.Close)
			_, coordTS := newClusterNode(t, p, Options{Role: RoleCoordinator, NodeID: "coord", Peers: []string{old.URL},
				PullInterval: time.Minute, QuarantineAfter: 2})
			for i := range 2 {
				pe := postPull(t, coordTS.URL).Peers[0]
				if !strings.Contains(pe.LastError, "format of another build") {
					t.Fatalf("pull %d: peer entry %+v, want the frame format named", i, pe)
				}
			}
			if pe := postPull(t, coordTS.URL).Peers[0]; pe.Health != "quarantined" {
				t.Fatalf("peer entry %+v, want quarantined", pe)
			}
		})
	}
}

// TestClusterDiamondDedup pins the through-tier double-count guard: a
// root configured with both a mid-tier coordinator and one of that
// tier's edges directly sees the same components through two paths, and
// must count them exactly once.
func TestClusterDiamondDedup(t *testing.T) {
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 120, 51)
	_, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-1", Shards: 2})
	_, midTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "mid",
		Peers: []string{edgeTS.URL}, PullInterval: time.Minute,
	})
	root, rootTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "root",
		Peers: []string{midTS.URL, edgeTS.URL}, PullInterval: time.Minute,
	})
	postBatchOK(t, edgeTS.URL, p, reps)
	postPull(t, midTS.URL)
	cs := postPull(t, rootTS.URL)
	if root.N() != len(reps) {
		t.Fatalf("diamond fleet N=%d, want %d (edge reachable through two paths must count once)", root.N(), len(reps))
	}
	flagged := 0
	for _, peer := range cs.Peers {
		if peer.LastError != "" {
			flagged++
		}
	}
	if flagged != 1 {
		t.Fatalf("cluster status %+v: want exactly one flagged duplicate path", cs.Peers)
	}
}

// TestBackoffDelayJitterBounds pins the retry schedule: exponential in
// the failure count, capped at maxBackoffShift doublings, with bounded
// non-degenerate jitter.
func TestBackoffDelayJitterBounds(t *testing.T) {
	const interval = time.Second
	for fails := 1; fails <= 10; fails++ {
		shift := fails - 1
		if shift > maxBackoffShift {
			shift = maxBackoffShift
		}
		base := interval << shift
		sawJitter := false
		for i := 0; i < 200; i++ {
			d := backoffDelay(interval, fails)
			if d < base || d > base+base/2 {
				t.Fatalf("fails=%d: delay %v outside [%v, %v]", fails, d, base, base+base/2)
			}
			if d != base {
				sawJitter = true
			}
		}
		if !sawJitter {
			t.Errorf("fails=%d: 200 delays all exactly %v — jitter is degenerate", fails, base)
		}
	}
}

// TestCoordinatorRestartResumesDelta pins persistence of the delta
// bases: a coordinator restarted from its ClusterDir still knows each
// peer's acknowledged version, so its first pull of an unchanged,
// surviving peer is a 304 — not a full re-transfer of the fleet.
func TestCoordinatorRestartResumesDelta(t *testing.T) {
	p, err := core.New(core.InpPS, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 150, 61)
	_, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-1", Shards: 4})
	postBatchOK(t, edgeTS.URL, p, reps[:100])

	dir := t.TempDir()
	coordOpts := Options{
		Role: RoleCoordinator, NodeID: "coord",
		Peers: []string{edgeTS.URL}, PullInterval: time.Minute,
		ClusterDir: dir,
	}
	coord1, ts1 := newClusterNode(t, p, coordOpts)
	postPull(t, ts1.URL)
	if coord1.N() != 100 {
		t.Fatalf("first pull N=%d, want 100", coord1.N())
	}
	ts1.Close()
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}

	coord2, ts2 := newClusterNode(t, p, coordOpts)
	if coord2.N() != 100 {
		t.Fatalf("restarted coordinator N=%d, want 100", coord2.N())
	}
	// Unchanged peer: the recovered base matches, so the pull is a 304.
	postPull(t, ts2.URL)
	ins := coord2.puller.ins[edgeTS.URL]
	if ins.notModified.Value() != 1 || ins.fullPulls.Value() != 0 {
		t.Fatalf("restart pull: 304=%d full=%d delta=%d, want exactly one 304",
			ins.notModified.Value(), ins.fullPulls.Value(), ins.deltaPulls.Value())
	}
	// Moved peer: the recovered base still serves, so the pull is a
	// delta, not a full transfer.
	postBatchOK(t, edgeTS.URL, p, reps[100:])
	postPull(t, ts2.URL)
	if coord2.N() != 150 {
		t.Fatalf("post-restart delta pull N=%d, want 150", coord2.N())
	}
	if ins.deltaPulls.Value() != 1 {
		t.Fatalf("moved-peer pull after restart: 304=%d full=%d delta=%d, want a delta",
			ins.notModified.Value(), ins.fullPulls.Value(), ins.deltaPulls.Value())
	}
}

// newServerAt starts an httptest server for s on a specific address —
// how a "recovered" edge comes back at the same URL.
func newServerAt(t *testing.T, addr string, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestConcurrentDiffPullsConverge has two coordinators pull one edge as
// fast as they can while it ingests: their exports race for the edge's
// retained blobs and each other's bases, so every rung of the fallback
// ladder gets taken in some order. Whatever the order, once the edge is
// quiet one more pull leaves both holding exactly what a coordinator
// that just started pulls.
func TestConcurrentDiffPullsConverge(t *testing.T) {
	p, err := core.New(core.InpPS, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	_, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-1", Shards: 2})
	reps := makeClusterReports(t, p, 1200, 81)
	postBatchOK(t, edgeTS.URL, p, reps[:400])
	var coords [2]*Server
	var urls [2]string
	for i := range coords {
		c, ts := newClusterNode(t, p, Options{
			Role: RoleCoordinator, NodeID: "coord-" + string(rune('a'+i)),
			Peers: []string{edgeTS.URL}, PullInterval: time.Minute,
		})
		coords[i], urls[i] = c, ts.URL
	}
	stop := make(chan struct{})
	var pullers sync.WaitGroup
	for _, url := range urls {
		pullers.Add(1)
		go func(url string) {
			defer pullers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(url+"/pull", "", nil)
				if err != nil {
					t.Errorf("POST /pull: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("POST /pull: status %d", resp.StatusCode)
					return
				}
			}
		}(url)
	}
	for lo := 400; lo < len(reps); lo += 10 {
		postBatchOK(t, edgeTS.URL, p, reps[lo:lo+10])
	}
	close(stop)
	pullers.Wait()

	fresh, freshTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "coord-fresh", Peers: []string{edgeTS.URL}, PullInterval: time.Minute,
	})
	postPull(t, freshTS.URL)
	diffs := uint64(0)
	for i, c := range coords {
		if cs := postPull(t, urls[i]); cs.Peers[0].LastError != "" || cs.Peers[0].N != len(reps) {
			t.Fatalf("%s after the run: %+v", c.nodeID, cs.Peers[0])
		}
		sameHeldComponents(t, "after the run", c, fresh)
		ins := c.puller.ins[edgeTS.URL]
		if ins.failed.Value() != 0 {
			t.Errorf("%s: %d pulls failed", c.nodeID, ins.failed.Value())
		}
		diffs += ins.diffComps.Value()
	}
	if diffs == 0 {
		t.Error("no component arrived as a diff in the whole run")
	}
}
