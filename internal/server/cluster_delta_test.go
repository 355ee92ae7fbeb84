package server

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
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

// getState fetches /state with the delta handshake: components=1 plus an
// optional acknowledged base. It returns the status, body, ETag, and the
// X-LDP-Frame mode header.
func getState(t *testing.T, url string, base string) (int, []byte, string, string) {
	t.Helper()
	return getStateQuery(t, url, "components=1", base)
}

// getStateQuery is getState with the query spelled out, for the diff=1
// handshake.
func getStateQuery(t *testing.T, url, query, base string) (int, []byte, string, string) {
	t.Helper()
	target := url + "/state?" + query
	req, err := http.NewRequest(http.MethodGet, target, nil)
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

// TestStateDeltaHandshake pins the exporter side of the delta exchange
// over live HTTP: full componentized frame (one component, the node's
// merged shards), 304 on an acknowledged unchanged version (for both
// the componentized and the legacy endpoint), a delta that ships the
// moved component whole or as a diff, and a full-frame fallback on an
// unknown base.
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
		t.Fatalf("componentized state: status %d mode %q", status, mode)
	}
	if !wire.IsComponentFrame(body) {
		t.Fatal("components=1 did not serve a componentized frame")
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
	// body — on the componentized endpoint and the legacy one alike.
	status, body, _, _ = getState(t, ts.URL, etag)
	if status != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("acknowledged pull: status %d with %d body bytes, want 304 empty", status, len(body))
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/state", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("legacy endpoint with acknowledged version: status %d, want 304", resp.StatusCode)
	}

	// One more batch moves the node. A puller that asks for diffs gets
	// the component as its difference from the blob the base export
	// shipped, which only a decoder holding that blob can read...
	postBatchOK(t, ts.URL, p, makeClusterReports(t, p, 20, 22))
	status, diffBody, _, mode := getStateQuery(t, ts.URL, "components=1&diff=1", etag)
	if status != http.StatusOK || mode != "delta" {
		t.Fatalf("moved state, diffs asked for: status %d mode %q, want 200 delta", status, mode)
	}
	if _, err := wire.DecodeComponentFrame(diffBody, 1<<24); err == nil {
		t.Fatal("diff=1 reply decodes without a base: no component shipped as a diff")
	}
	diffed, err := wire.DecodeComponentFrameWith(diffBody, 1<<24, func(id string) (wire.ComponentBase, bool) {
		for _, c := range full.Components {
			if c.ID == id {
				return wire.ComponentBase{Version: c.Version, State: c.State}, true
			}
		}
		return wire.ComponentBase{}, false
	})
	if err != nil {
		t.Fatal(err)
	}
	// ...and one that does not (an older coordinator: components=1 and a
	// base, nothing else) still gets whole components, the same blobs.
	status, body, etag2, mode := getState(t, ts.URL, etag)
	if status != http.StatusOK || mode != "delta" {
		t.Fatalf("moved state: status %d mode %q, want 200 delta", status, mode)
	}
	delta, err := wire.DecodeComponentFrame(body, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Delta || delta.BaseVersion != full.Version || delta.N != 180 {
		t.Fatalf("delta frame = %+v (base %d)", delta, full.Version)
	}
	if len(delta.Components) != 1 || len(delta.Removed) != 0 {
		t.Fatalf("delta ships %d components and removes %d, want the node's one", len(delta.Components), len(delta.Removed))
	}
	if len(diffBody) >= len(body) || len(diffed.Components) != len(delta.Components) {
		t.Fatalf("diff reply: %d bytes, %d components; whole-component reply: %d bytes, %d components",
			len(diffBody), len(diffed.Components), len(body), len(delta.Components))
	}
	for i, c := range delta.Components {
		d := diffed.Components[i]
		if c.Base != nil || d.ID != c.ID || d.Version != c.Version || d.N != c.N || !bytes.Equal(d.State, c.State) {
			t.Fatalf("component %s: the diff rebuilds something other than the whole component", c.ID)
		}
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

// TestClusterDeltaVsFullBitIdentity is the satellite acceptance table:
// for each of the six protocols, a delta-negotiating coordinator and a
// legacy full-pull coordinator track the same two edges through
// incremental rounds — including an edge crash/recovery mid-stream,
// which re-salts the version labels and forces the delta side through
// its full-frame fallback — and must serve byte-identical marginals
// throughout.
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
			_, fullTS := newClusterNode(t, p, Options{
				Role: RoleCoordinator, NodeID: "coord-full",
				Peers: peers, PullInterval: time.Minute,
				DisableDeltaPull: true,
			})

			compare := func(round string, wantN int) {
				t.Helper()
				postPull(t, deltaTS.URL)
				postPull(t, fullTS.URL)
				if vs := postRefresh(t, deltaTS.URL); vs.ViewN != wantN {
					t.Fatalf("%s: delta coordinator epoch holds %d, want %d", round, vs.ViewN, wantN)
				}
				if vs := postRefresh(t, fullTS.URL); vs.ViewN != wantN {
					t.Fatalf("%s: full coordinator epoch holds %d, want %d", round, vs.ViewN, wantN)
				}
				want := marginalBytes(t, fullTS.URL)
				got := marginalBytes(t, deltaTS.URL)
				for beta, w := range want {
					if !bytes.Equal(got[beta], w) {
						t.Fatalf("%s beta=%d: delta-pulled marginal differs from full-pulled", round, beta)
					}
				}
				// What the deltas and diffs left the coordinator holding is,
				// component for component, what one full frame of whole
				// components installs in a coordinator that just started.
				fresh, freshTS := newClusterNode(t, p, Options{
					Role: RoleCoordinator, NodeID: "coord-fresh",
					Peers: peers, PullInterval: time.Minute,
				})
				postPull(t, freshTS.URL)
				sameHeldComponents(t, round, deltaCoord, fresh)
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

// withRetiredSparseBit sets bit 0x04 in the encoding byte of the first
// component of a componentized frame and reseals the frame: what an
// exporter of the build before this one put on its sparse diffs.
func withRetiredSparseBit(t *testing.T, frame []byte) []byte {
	t.Helper()
	out := append([]byte(nil), frame[:len(frame)-4]...)
	at := len("LDPD") + 2
	skip := func(fields int) {
		for range fields {
			_, w := binary.Uvarint(out[at:])
			at += w
		}
	}
	idLen, w := binary.Uvarint(out[at:])
	at += w + int(idLen)
	skip(4) // version, base version, report count, component count
	idLen, w = binary.Uvarint(out[at:])
	at += w + int(idLen)
	skip(2) // component version and report count
	if out[at]&^0x0b != 0 {
		t.Fatalf("byte %d of the frame is %#x, not an encoding byte", at, out[at])
	}
	out[at] |= 0x04
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli)))
}

// TestSparseDiffMixedVersions runs the sparse token between this build,
// which says sparse=2 for the bit-packed sparse diff, and the one before
// it (PR 18), which said sparse=1 for a varint one under encoding bit
// 0x04. Neither reads the other's form, so across the two they exchange
// dense diffs, as each does with a node from before there were sparse
// diffs at all: a PR 18 puller (a proxy that turns the token back into
// sparse=1) is answered with a dense diff by this exporter, and this
// puller is answered with one by a PR 18 exporter (a proxy that drops the
// token it would not have known). Between two nodes of this build the
// diff is sparse. A frame that carries the retired bit is a decode error
// wherever it comes from; a sparse diff that does not rebuild on what the
// puller holds costs one full re-fetch in the same pull, like a dense
// one; and all three fleets end up holding, byte for byte, what a
// coordinator that only ever pulls full frames holds. The edge's
// retained export is the base of whoever pulls first after a batch, so
// each round has the puller under test go first and the others catch up
// whole.
func TestSparseDiffMixedVersions(t *testing.T) {
	p, err := core.New(core.InpPS, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 200, 73)
	edge, err := NewWithOptions(p, Options{Role: RoleEdge, NodeID: "edge-1", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	inner := edge.Handler()
	var stateGets atomic.Int64
	edgeTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/state" {
			stateGets.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	// retoken serves the edge with the sparse token of each request edited.
	retoken := func(edit func(url.Values)) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			q := r.URL.Query()
			if q.Has("sparse") {
				edit(q)
			}
			r.URL.RawQuery = q.Encode()
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	pr18EdgeTS := retoken(func(q url.Values) { q.Del("sparse") })        // sparse=2 means nothing to it
	pr18PullerTS := retoken(func(q url.Values) { q.Set("sparse", "1") }) // what its coordinator sends
	t.Cleanup(func() { edgeTS.Close(); _ = edge.Close() })
	newCoord := func(id, peer string, full bool) (*Server, string) {
		c, ts := newClusterNode(t, p, Options{Role: RoleCoordinator, NodeID: id, Peers: []string{peer}, PullInterval: time.Minute, DisableDeltaPull: full})
		return c, ts.URL
	}
	coord, coordURL := newCoord("coord", edgeTS.URL, false)
	ofPR18Edge, ofPR18EdgeURL := newCoord("coord-of-pr18-edge", pr18EdgeTS.URL, false)
	pr18Coord, pr18CoordURL := newCoord("pr18-coord", pr18PullerTS.URL, false)
	control, controlURL := newCoord("coord-full-pulls", edgeTS.URL, true)
	densePuller := &statePuller{url: edgeTS.URL, p: p}
	pr18Puller := &statePuller{url: edgeTS.URL, p: p, sparse: "1"}
	newPuller := &statePuller{url: edgeTS.URL, p: p, sparse: "2"}

	// everyone brings every puller to the edge's current label, the one
	// under test first.
	posted := 0
	post := func(n int) {
		t.Helper()
		postBatchOK(t, edgeTS.URL, p, reps[posted:posted+n])
		posted += n
	}
	pulls := make(map[string]func())
	for name, sp := range map[string]*statePuller{"dense puller": densePuller, "PR 18 puller": pr18Puller, "new puller": newPuller} {
		pulls[name] = func() {
			if err := sp.pull(true, true); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	for name, url := range map[string]string{"coordinator": coordURL, "coordinator of a PR 18 edge": ofPR18EdgeURL, "PR 18 coordinator": pr18CoordURL} {
		pulls[name] = func() {
			if cs := postPull(t, url); cs.Peers[0].LastError != "" {
				t.Fatalf("%s: %s", name, cs.Peers[0].LastError)
			}
		}
	}
	everyone := func(first string) {
		t.Helper()
		pulls[first]()
		for name, pull := range pulls {
			if name != first {
				pull()
			}
		}
	}
	post(100)
	everyone("dense puller")

	// Two reports move at most two of the 64 counters: sparse, clearly.
	for name, sp := range map[string]*statePuller{"dense puller": densePuller, "PR 18 puller": pr18Puller} {
		post(2)
		everyone(name)
		if sp.diffs != 1 || sp.sparseDiffs != 0 {
			t.Fatalf("%s (sparse token %q): %d diffs, %d of them sparse; want one dense diff", name, sp.sparse, sp.diffs, sp.sparseDiffs)
		}
	}
	post(2)
	everyone("new puller")
	if newPuller.diffs != 1 || newPuller.sparseDiffs != 1 {
		t.Fatalf("puller that sent sparse=2: %d diffs, %d of them sparse; want one sparse diff", newPuller.diffs, newPuller.sparseDiffs)
	}
	// The pull span says how the components of each pull arrived.
	for _, c := range []struct {
		name, url string
		sparse    int
	}{{"coordinator", coordURL, 1}, {"coordinator of a PR 18 edge", ofPR18EdgeURL, 0}, {"PR 18 coordinator", pr18CoordURL, 0}} {
		post(2)
		before := scrapePullArrivals(t, c.url)
		everyone(c.name)
		want := pullArrivals{diffs: before.diffs + 1, sparse: before.sparse + c.sparse, whole: before.whole}
		if got := scrapePullArrivals(t, c.url); got != want {
			t.Fatalf("%s: pull spans went from %+v to %+v, want %+v", c.name, before, got, want)
		}
	}

	// The retired bit, on a reply that is otherwise this edge's: refused
	// as an encoding nobody knows, whichever token asked.
	post(2)
	for _, sp := range []*statePuller{pr18Puller, newPuller} {
		held := *sp
		held.mangle = func(frame []byte) []byte { return withRetiredSparseBit(t, frame) }
		if err := held.pull(true, true); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Fatalf("frame carrying encoding bit 0x04, to a puller that sent sparse=%s: error %v, want an unknown encoding", sp.sparse, err)
		}
	}
	everyone("new puller")

	// The coordinator's copy of its base goes bad under an unchanged
	// label: the sparse diff is sent, fails its checksum on that base,
	// and the same pull re-fetches one full frame.
	coord.fleet.mu.Lock()
	pe := coord.fleet.peers[0]
	bad := make(map[string]peerComp, len(pe.comps))
	for id, c := range pe.comps {
		c.state = append([]byte(nil), c.state...)
		c.state[len(c.state)-1] ^= 1
		bad[id] = c
	}
	pe.comps = bad
	coord.fleet.mu.Unlock()
	post(2)
	ins := coord.puller.ins[edgeTS.URL]
	gets, full, delta := stateGets.Load(), ins.fullPulls.Value(), ins.deltaPulls.Value()
	pulls["coordinator"]()
	if g, f, d := stateGets.Load()-gets, ins.fullPulls.Value()-full, ins.deltaPulls.Value()-delta; g != 2 || f != 1 || d != 0 {
		t.Fatalf("pull onto a mismatched base: %d GETs, %d full, %d delta; want the sparse diff reply plus exactly one full re-fetch", g, f, d)
	}
	everyone("coordinator")
	post(2)
	before := scrapePullArrivals(t, coordURL)
	everyone("coordinator")
	if got := scrapePullArrivals(t, coordURL); got.sparse != before.sparse+1 {
		t.Fatalf("after the re-fetch: pull spans went from %+v to %+v, want sparse diffs to have resumed", before, got)
	}

	// Dense or sparse, every fleet holds what full pulls alone install,
	// and serves the same bytes from it.
	postPull(t, controlURL)
	postRefresh(t, controlURL)
	want := marginalBytes(t, controlURL)
	for _, c := range []struct {
		s   *Server
		url string
	}{{coord, coordURL}, {ofPR18Edge, ofPR18EdgeURL}, {pr18Coord, pr18CoordURL}} {
		sameHeldComponents(t, "at the end", c.s, control)
		if vs := postRefresh(t, c.url); vs.ViewN != posted {
			t.Fatalf("%s: epoch over %d reports, %d were posted", c.s.nodeID, vs.ViewN, posted)
		}
		for beta, got := range marginalBytes(t, c.url) {
			if !bytes.Equal(got, want[beta]) {
				t.Fatalf("%s, beta=%d: marginal differs from the full-pulling coordinator's", c.s.nodeID, beta)
			}
		}
	}
	for _, sp := range []*statePuller{densePuller, pr18Puller, newPuller} {
		if sp.held["edge-1"].N != posted {
			t.Fatalf("puller with sparse token %q holds %d reports, %d were posted", sp.sparse, sp.held["edge-1"].N, posted)
		}
	}
}

// frameHead reads the flags byte, the version and the base field of a
// componentized frame.
func frameHead(body []byte) (flags byte, version, baseField uint64) {
	flags, at := body[len("LDPD")+1], len("LDPD")+2
	idLen, w := binary.Uvarint(body[at:])
	at += w + int(idLen)
	version, w = binary.Uvarint(body[at:])
	if flags&0x01 != 0 { // a delta
		baseField, _ = binary.Uvarint(body[at+w:])
	}
	return flags, version, baseField
}

// TestCompactFrameMixedVersions runs the compact token between nodes of
// this build and nodes from before it, in two three-tier fleets over one
// edge: in one every exporter honours compact=1, in the other a proxy
// drops the token on its way to each exporter, which is what an exporter
// that predates it does with it. Between two nodes of this build every
// frame, full and delta, is compact: the edge's names it once (its one
// component, diffs included, implied), the mid tier's spells out the
// pass-through component and writes a delta's base as its distance
// below the version. A puller without the token is sent the default
// frame, the same content byte for byte in the encoding of the build
// before (TestComponentFrameGoldenBytes pins it), and the fleet that
// never saw a compact frame decodes, folds and serves exactly what the
// other does.
func TestCompactFrameMixedVersions(t *testing.T) {
	p, err := core.New(core.InpPS, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 200, 91)
	edge, err := NewWithOptions(p, Options{Role: RoleEdge, NodeID: "edge-1", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = edge.Close() })

	type reply struct {
		query url.Values
		frame string
		body  []byte
	}
	// serve serves next and keeps its last /state reply; with strip set,
	// next never sees the compact token.
	serve := func(next http.Handler, strip bool) (string, func() reply) {
		var (
			mu   sync.Mutex
			last reply
		)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strip {
				q := r.URL.Query()
				q.Del("compact")
				r.URL.RawQuery = q.Encode()
			}
			if r.URL.Path != "/state" {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			mu.Lock()
			last = reply{r.URL.Query(), rec.Header().Get("X-LDP-Frame"), rec.Body.Bytes()}
			mu.Unlock()
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(rec.Body.Bytes())
		}))
		t.Cleanup(ts.Close)
		return ts.URL, func() reply { mu.Lock(); defer mu.Unlock(); return last }
	}
	coordinator := func(id, peer string) (*Server, string, func() reply) {
		c, err := NewWithOptions(p, Options{Role: RoleCoordinator, NodeID: id, Peers: []string{peer}, PullInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		url, last := serve(c.Handler(), id != "mid")
		return c, url, last
	}
	edgeURL, edgeReply := serve(edge.Handler(), false)
	oldEdgeURL, _ := serve(edge.Handler(), true)
	mid, midURL, midReply := coordinator("mid", edgeURL)
	root, rootURL, _ := coordinator("root", midURL)
	oldMid, oldMidURL, _ := coordinator("old-mid", oldEdgeURL)
	oldRoot, oldRootURL, _ := coordinator("old-root", oldMidURL)
	pull := func(url string) {
		t.Helper()
		if cs := postPull(t, url); cs.Peers[0].LastError != "" {
			t.Fatalf("pull by %s: %s", url, cs.Peers[0].LastError)
		}
	}

	posted := 0
	post := func(n int) {
		t.Helper()
		postBatchOK(t, edgeURL, p, reps[posted:posted+n])
		posted += n
	}
	diffs := mid.puller.ins[edgeURL].diffComps
	for round, n := range []int{100, 2, 30, 2} {
		post(n)
		diffsBefore := diffs.Value()
		pull(midURL) // first after the batch: sent a diff against its base
		fromEdge := edgeReply()
		pull(oldMidURL)
		pull(rootURL)
		fromMid := midReply()
		pull(oldRootURL)

		want := "delta"
		if round == 0 {
			want = "full"
		}
		for _, r := range []struct {
			name string
			reply
		}{{"edge", fromEdge}, {"mid tier", fromMid}} {
			flags, ver, baseField := frameHead(r.body)
			if r.query.Get("compact") != "1" || r.frame != want || flags&0x02 == 0 {
				t.Fatalf("round %d, %s: a %s frame, flags %#x, to a request for %q; want a compact %s frame", round, r.name, r.frame, flags, r.query.Encode(), want)
			}
			// "edge-1" is the edge's node id, and a component id the mid
			// tier passes through: named once either way.
			if got := bytes.Count(r.body, []byte("edge-1")); got != 1 {
				t.Fatalf("round %d, %s: %q named %d times", round, r.name, "edge-1", got)
			}
			if want == "delta" {
				base, _ := strconv.ParseUint(r.query.Get("since"), 10, 64)
				if ver-baseField != base || baseField >= 1<<14 {
					t.Fatalf("round %d, %s: base field %d under version %d, acknowledged base %d", round, r.name, baseField, ver, base)
				}
			}
		}
		if round > 0 && diffs.Value() != diffsBefore+1 {
			t.Fatalf("round %d: the mid tier took %d diffs from the edge's compact delta, want 1", round, diffs.Value()-diffsBefore)
		}
	}

	// A puller without the token, full and delta: the default frame, of
	// the same content as the compact one.
	_, _, label, _ := getState(t, edgeURL, "")
	post(20)
	for _, base := range []string{"", label} {
		_, plain, _, _ := getStateQuery(t, edgeURL, "components=1", base)
		_, compact, _, _ := getStateQuery(t, edgeURL, "components=1&compact=1", base)
		cf, err := wire.DecodeComponentFrame(compact, 1<<24)
		if err != nil || !cf.Compact || cf.Delta != (base != "") {
			t.Fatalf("base %q: compact frame %+v (err %v)", base, cf, err)
		}
		cf.Compact = false
		if again, err := wire.EncodeComponentFrame(cf); err != nil || !bytes.Equal(again, plain) {
			t.Fatalf("base %q: the default frame is not the compact one's content in the default form (err %v)", base, err)
		}
		if len(compact) >= len(plain) {
			t.Fatalf("base %q: compact frame of %d bytes, default %d", base, len(compact), len(plain))
		}
	}

	// Both fleets hold, and serve, the same bytes.
	for _, url := range []string{midURL, oldMidURL, rootURL, oldRootURL} {
		pull(url)
	}
	sameHeldComponents(t, "mid tier", mid, oldMid)
	sameHeldComponents(t, "root", root, oldRoot)
	postRefresh(t, oldRootURL)
	want := marginalBytes(t, oldRootURL)
	if vs := postRefresh(t, rootURL); vs.ViewN != posted {
		t.Fatalf("root epoch over %d reports, %d were posted", vs.ViewN, posted)
	}
	for beta, got := range marginalBytes(t, rootURL) {
		if !bytes.Equal(got, want[beta]) {
			t.Fatalf("beta=%d: the root's marginal differs from that of the fleet without the token", beta)
		}
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
