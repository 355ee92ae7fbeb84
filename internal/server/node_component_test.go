package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/store"
	"ldpmarginals/internal/wire"
)

// TestFullFrameBytesIndependentOfShards: the unit of exchange is the
// node, so how many shards an edge ingests into is invisible on the
// wire. The same 4 M-report InpPS d=16 state, exported by a 1-shard and
// an 8-shard edge, is the same frame but for the two salted labels.
func TestFullFrameBytesIndependentOfShards(t *testing.T) {
	n := 1 << 22
	if testing.Short() {
		n = 1 << 18
	}
	p, err := core.New(core.InpPS, core.Config{D: 16, K: 3, Epsilon: 1.1, OptimizedPRR: true})
	if err != nil {
		t.Fatal(err)
	}
	one, oneTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-0", Shards: 1})
	eight, eightTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-0", Shards: 8})
	client := p.NewClient()
	r := rng.New(5)
	batch := make([]core.Report, 1024)
	for done := 0; done < n; done += len(batch) {
		for i := range batch {
			if batch[i], err = client.Perturb(r.Uint64()&0xffff, r); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range []*Server{one, eight} {
			if err := s.ring.ConsumeBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	fetch := func(url string) ([]byte, wire.ComponentFrame) {
		t.Helper()
		status, body, _, mode := getState(t, url, "")
		if status != http.StatusOK || mode != "full" {
			t.Fatalf("status %d mode %q", status, mode)
		}
		cf, err := wire.DecodeComponentFrame(body, 1<<24)
		if err != nil {
			t.Fatal(err)
		}
		if cf.N != n || len(cf.Components) != 1 || cf.Components[0].ID != "edge-0" {
			t.Fatalf("frame of %d reports in %d components, want %d in the node's one", cf.N, len(cf.Components), n)
		}
		return body, cf
	}
	body1, cf1 := fetch(oneTS.URL)
	body8, cf8 := fetch(eightTS.URL)
	if !bytes.Equal(cf1.Components[0].State, cf8.Components[0].State) {
		t.Fatal("the merged state of 8 shards differs from the state of 1")
	}
	cf8.Version, cf8.Components[0].Version = cf1.Version, cf1.Components[0].Version
	relabeled, err := wire.EncodeComponentFrame(cf8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(relabeled, body1) || len(body8) != len(body1) {
		t.Fatalf("8-shard frame (%d bytes) is not the 1-shard frame (%d bytes) under other labels", len(body8), len(body1))
	}
	t.Logf("full frame of %d reports: %d bytes", n, len(body1))
}

// TestRejectedBatchKeepsStateLabel: a batch that lands no report — its
// one report is a coefficient outside T, refused with a 400 — moves no
// state, so the /state label stands and a pull acknowledging it is a
// 304, on a cumulative and on a windowed edge alike.
func TestRejectedBatchKeepsStateLabel(t *testing.T) {
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := encoding.MarshalBatch(p.Name(), []core.Report{{Index: 0b111, Sign: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"cumulative": {Role: RoleEdge, NodeID: "e", Shards: 2},
		"windowed":   {Role: RoleEdge, NodeID: "e", Shards: 2, Window: time.Hour, Bucket: time.Minute},
	} {
		t.Run(name, func(t *testing.T) {
			_, ts := newClusterNode(t, p, opts)
			postBatchOK(t, ts.URL, p, makeClusterReports(t, p, 20, 7))
			status, _, etag, _ := getState(t, ts.URL, "")
			if status != http.StatusOK {
				t.Fatalf("first pull: status %d", status)
			}
			if status, br := postBatchBody(t, ts.URL, bad); status != http.StatusBadRequest || br.Accepted != 0 {
				t.Fatalf("batch of one report outside T: status %d accepted %d, want 400 and 0", status, br.Accepted)
			}
			if status, _, next, _ := getState(t, ts.URL, etag); status != http.StatusNotModified {
				t.Fatalf("pull acknowledging %s after the rejected batch: status %d with label %s, want 304", etag, status, next)
			}
		})
	}
}

// TestMixedGranularityFullFrameReplaces is an upgrade seen from above: a
// coordinator holding an edge as per-shard components "edge-0/0..3" (the
// layout before the node became the unit of exchange) — pulled from the
// edge's old process, or recovered from a peers snapshot — pulls the
// upgraded edge.
// The new process's salt makes the acknowledged base unknown, one full
// frame carrying "edge-0" replaces the four, and nothing is counted
// twice: directly (the mid tier) and through it (the root, as a delta
// that removes four ids and adds one).
func TestMixedGranularityFullFrameReplaces(t *testing.T) {
	p, err := core.New(core.MargPS, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 300, 91)
	_, refTS := newClusterNode(t, p, Options{NodeID: "ref"})
	postBatchOK(t, refTS.URL, p, reps)
	postRefresh(t, refTS.URL)
	want := marginalBytes(t, refTS.URL)

	for _, recovered := range []bool{false, true} {
		t.Run(fmt.Sprintf("recovered=%v", recovered), func(t *testing.T) {
			// Until the old process is gone, the edge URL answers /state
			// with the old layout.
			var oldFrame atomic.Pointer[[]byte]
			edge, err := NewWithOptions(p, Options{Role: RoleEdge, NodeID: "edge-0", Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			inner := edge.Handler()
			edgeTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if body := oldFrame.Load(); body != nil && r.URL.Path == "/state" {
					_, _ = w.Write(*body)
					return
				}
				inner.ServeHTTP(w, r)
			}))
			t.Cleanup(func() { edgeTS.Close(); _ = edge.Close() })
			old4 := core.NewSharded(p, 4)
			for i := 0; i < 4; i++ {
				postBatchOK(t, edgeTS.URL, p, reps[50*i:50*i+50])
				if err := old4.ConsumeBatch(reps[50*i : 50*i+50]); err != nil {
					t.Fatal(err)
				}
			}
			// The old layout of the edge's current state, under labels of a
			// process that is gone.
			shards, _, err := old4.ExportShards()
			if err != nil {
				t.Fatal(err)
			}
			old := wire.ComponentFrame{NodeID: "edge-0", Version: 999, N: 200}
			for _, e := range shards {
				id := "edge-0/" + strconv.Itoa(e.Index)
				old.Components = append(old.Components, wire.StateComponent{ID: id, Version: 1000 + e.Version, N: e.N, State: e.State})
			}
			midOpts := Options{Role: RoleCoordinator, NodeID: "mid", Peers: []string{edgeTS.URL}, PullInterval: time.Hour}
			if recovered {
				midOpts.ClusterDir = t.TempDir()
				if err := store.SavePeerStates(midOpts.ClusterDir, p, []store.PeerFrame{{URL: edgeTS.URL, Frame: old}}); err != nil {
					t.Fatal(err)
				}
			}
			mid, midTS := newClusterNode(t, p, midOpts)
			if !recovered {
				body, err := wire.EncodeComponentFrame(old)
				if err != nil {
					t.Fatal(err)
				}
				oldFrame.Store(&body)
				if cs := postPull(t, midTS.URL); cs.Peers[0].LastError != "" {
					t.Fatalf("pull of the old process: %+v", cs.Peers[0])
				}
				oldFrame.Store(nil)
			}
			midBefore := peerPulls(t, mid, edgeTS.URL)
			root, rootTS := newClusterNode(t, p, Options{Role: RoleCoordinator, NodeID: "root", Peers: []string{midTS.URL}, PullInterval: time.Hour})
			if cs := postPull(t, rootTS.URL); mid.N() != 200 || root.N() != 200 || cs.Peers[0].Components != 4 {
				t.Fatalf("before the upgrade: mid holds %d, root %d in %d components; want 200, 200, 4", mid.N(), root.N(), cs.Peers[0].Components)
			}

			postBatchOK(t, edgeTS.URL, p, reps[200:])
			cs := postPull(t, midTS.URL)
			if pe := cs.Peers[0]; pe.LastError != "" || pe.N != 300 || pe.Components != 1 || mid.N() != 300 {
				t.Fatalf("mid after the upgrade: %+v (N %d), want 300 reports in one component", pe, mid.N())
			}
			if ins := peerPulls(t, mid, edgeTS.URL); ins.full-midBefore.full != 1 || ins.delta != 0 {
				t.Fatalf("mid pulled full=%d delta=%d, want the one full frame an unknown base gets", ins.full-midBefore.full, ins.delta)
			}
			cs = postPull(t, rootTS.URL)
			if pe := cs.Peers[0]; pe.LastError != "" || pe.N != 300 || pe.Components != 1 || root.N() != 300 {
				t.Fatalf("root after the upgrade: %+v (N %d), want 300 reports in one component", pe, root.N())
			}
			if ins := peerPulls(t, root, midTS.URL); ins.delta != 1 {
				t.Fatalf("root pulled full=%d delta=%d, want the replacement to arrive as a delta", ins.full, ins.delta)
			}
			if held := heldComponents(t, root); len(held) != 1 || held["edge-0"].N != 300 {
				t.Fatalf("root holds %v, want only edge-0", held)
			}
			for _, url := range []string{midTS.URL, rootTS.URL} {
				if vs := postRefresh(t, url); vs.ViewN != 300 {
					t.Fatalf("epoch over %d reports, want 300", vs.ViewN)
				}
				for beta, g := range marginalBytes(t, url) {
					if !bytes.Equal(g, want[beta]) {
						t.Fatalf("beta=%d: marginal served by %s differs from a sequential aggregator's", beta, url)
					}
				}
			}
		})
	}
}

// statePuller is one client of GET /state that keeps what it was
// served, the way a coordinator does.
type statePuller struct {
	url  string
	p    core.Protocol
	etag string
	held map[string]wire.StateComponent

	full, whole, diffs, notModified int
}

// pull issues one request, with ack acknowledging the held label. It
// checks the frame against what it holds and folds it in.
func (sp *statePuller) pull(ack bool) error {
	req, err := http.NewRequest(http.MethodGet, sp.url+"/state", nil)
	if err != nil {
		return err
	}
	if ack = ack && sp.etag != ""; ack {
		req.Header.Set("If-None-Match", sp.etag)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusNotModified {
		if !ack {
			return fmt.Errorf("304 to a request that named no base")
		}
		sp.notModified++
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	// A diff that does not rebuild to the declared length and crc32c on
	// the held blob fails here.
	cf, err := wire.DecodeComponentFrameWith(body, 1<<24, func(id string) (wire.ComponentBase, bool) {
		c, ok := sp.held[id]
		return wire.ComponentBase{Version: c.Version, State: c.State}, ok
	})
	if err != nil {
		return fmt.Errorf("decoding a %s frame: %w", resp.Header.Get("X-LDP-Frame"), err)
	}
	if cf.Delta != (resp.Header.Get("X-LDP-Frame") == "delta") || (cf.Delta && !ack) {
		return fmt.Errorf("delta=%v frame under X-LDP-Frame %q, base acknowledged: %v", cf.Delta, resp.Header.Get("X-LDP-Frame"), ack)
	}
	if !cf.Delta {
		sp.held = make(map[string]wire.StateComponent)
		sp.full++
	}
	for _, c := range cf.Components {
		probe := sp.p.NewAggregator()
		if err := probe.UnmarshalState(c.State); err != nil {
			return fmt.Errorf("component %s: %w", c.ID, err)
		}
		if probe.N() != c.N {
			return fmt.Errorf("component %s holds %d reports, declares %d", c.ID, probe.N(), c.N)
		}
		if c.Base != nil {
			sp.diffs++
		} else if cf.Delta {
			sp.whole++
		}
		sp.held[c.ID] = c
	}
	for _, id := range cf.Removed {
		delete(sp.held, id)
	}
	n := 0
	for _, c := range sp.held {
		n += c.N
	}
	if n != cf.N {
		return fmt.Errorf("holding %d reports after a frame that declares %d", n, cf.N)
	}
	sp.etag = resp.Header.Get("ETag")
	return nil
}

// TestConcurrentStateExportsUnderIngest runs full, whole-component
// delta, diff and 304 requests from several pullers at once against an
// edge that is ingesting (run it under -race). Exports are serialized
// and a label is only ever served with one blob, so every frame must
// decode on what its puller holds — no diff may miss its base — and
// account for exactly the reports it declares.
func TestConcurrentStateExportsUnderIngest(t *testing.T) {
	for _, windowed := range []bool{false, true} {
		t.Run(fmt.Sprintf("windowed=%v", windowed), func(t *testing.T) {
			p, err := core.New(core.InpPS, clusterCfg)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Role: RoleEdge, NodeID: "edge-0", Shards: 4}
			if windowed {
				opts.Window, opts.Bucket = time.Hour, time.Minute
			}
			_, ts := newClusterNode(t, p, opts)
			reps := makeClusterReports(t, p, 2000, 17)
			postBatchOK(t, ts.URL, p, reps[:400])

			pullers := make([]*statePuller, 3)
			ingestDone := make(chan struct{})
			var wg sync.WaitGroup
			for i := range pullers {
				sp := &statePuller{url: ts.URL, p: p}
				pullers[i] = sp
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for round := i; ; round++ {
						select {
						case <-ingestDone:
							return
						default:
						}
						// In turn: no base, then three that name one.
						if err := sp.pull(round%4 != 0); err != nil {
							t.Errorf("puller %d round %d: %v", i, round, err)
							return
						}
					}
				}(i)
			}
			for lo := 400; lo < 1900; lo += 10 {
				postBatchOK(t, ts.URL, p, reps[lo:lo+10])
			}
			close(ingestDone)
			wg.Wait()
			if t.Failed() {
				return
			}

			// Quiet again, the ladder top to bottom for every puller: a diff
			// when its base is the retained export, a 304 at the current
			// label, a full frame when it names none.
			for i, sp := range pullers {
				if err := sp.pull(true); err != nil {
					t.Fatal(err)
				}
				postBatchOK(t, ts.URL, p, reps[1900+20*i:1920+20*i])
				before := *sp
				for _, ack := range []bool{true, true, false} {
					if err := sp.pull(ack); err != nil {
						t.Fatal(err)
					}
				}
				if sp.diffs != before.diffs+1 || sp.notModified != before.notModified+1 || sp.full != before.full+1 {
					t.Fatalf("puller %d: diffs %d→%d, 304s %d→%d, full %d→%d; want one more of each", i,
						before.diffs, sp.diffs, before.notModified, sp.notModified, before.full, sp.full)
				}
				if c := sp.held["edge-0"]; len(sp.held) != 1 || c.N != 1920+20*i {
					t.Fatalf("puller %d holds %d components, edge-0 with %d reports; want %d", i, len(sp.held), c.N, 1920+20*i)
				}
			}
		})
	}
}
