package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
)

func getViewStatus(t *testing.T, url string) ViewStatusResponse {
	t.Helper()
	status, b := getBody(t, url+"/view/status")
	if status != http.StatusOK {
		t.Fatalf("view/status: %d: %s", status, b)
	}
	var vs ViewStatusResponse
	if err := json.Unmarshal(b, &vs); err != nil {
		t.Fatal(err)
	}
	return vs
}

// TestCoordinatorIncrementalSinglePeerRefold is the cluster half of the
// incremental-refresh contract: with two edges behind a coordinator, a
// pull round in which exactly one edge's state changed re-folds only
// that component into the next epoch — and the served estimates remain
// byte-identical to a single node holding the merged stream.
func TestCoordinatorIncrementalSinglePeerRefold(t *testing.T) {
	p, err := core.New(core.MargRR, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 3000, 41)

	_, edge1 := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "e1", Shards: 4})
	_, edge2 := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "e2", Shards: 4})
	coord, coordTS := newClusterNode(t, p, Options{
		Role:   RoleCoordinator,
		NodeID: "c0",
		Peers:  []string{edge1.URL, edge2.URL},
		// Pull only on demand so the test controls the rounds.
		PullInterval: 3600e9,
	})

	// Round 1: both edges receive data, on two shards each -> both
	// components fold (an edge is one component however many shards moved).
	postBatchOK(t, edge1.URL, p, reps[:500])
	postBatchOK(t, edge1.URL, p, reps[500:1000])
	postBatchOK(t, edge2.URL, p, reps[1000:1500])
	postBatchOK(t, edge2.URL, p, reps[1500:2000])
	postPull(t, coordTS.URL)
	vs := postRefresh(t, coordTS.URL)
	if vs.ViewN != 2000 {
		t.Fatalf("epoch over %d reports, want 2000", vs.ViewN)
	}
	if !vs.Incremental || vs.FoldedComponents != 2 {
		t.Fatalf("round 1 status %+v, want incremental with 2 folded peer components", vs)
	}

	// Round 2: only edge1 changes -> exactly one component re-folds.
	postBatchOK(t, edge1.URL, p, reps[2000:2500])
	postBatchOK(t, edge1.URL, p, reps[2500:])
	postPull(t, coordTS.URL)
	vs = postRefresh(t, coordTS.URL)
	if vs.ViewN != 3000 {
		t.Fatalf("epoch over %d reports, want 3000", vs.ViewN)
	}
	if !vs.Incremental || vs.FoldedComponents != 1 {
		t.Fatalf("round 2 status %+v, want incremental with exactly 1 folded component", vs)
	}
	if vs.IncrementalBuilds < 2 || vs.FullBuilds != 1 {
		t.Fatalf("build counters %+v, want >=2 incremental and 1 full", vs)
	}

	// A pull+refresh with no edge changes republishes the serving epoch.
	prev := vs.Epoch
	postPull(t, coordTS.URL)
	vs = postRefresh(t, coordTS.URL)
	if vs.Epoch != prev {
		t.Fatalf("zero-delta refresh advanced epoch %d -> %d", prev, vs.Epoch)
	}

	// The coordinator's incremental epochs serve the same estimates —
	// bit for bit — as a single node that consumed the whole stream
	// (epoch counters differ; cell values must not).
	_, single := newClusterNode(t, p, Options{})
	postBatchOK(t, single.URL, p, reps)
	postRefresh(t, single.URL)
	got := marginalBytes(t, coordTS.URL)
	want := marginalBytes(t, single.URL)
	for beta, g := range got {
		var gm, wm MarginalResponse
		if err := json.Unmarshal(g, &gm); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want[beta], &wm); err != nil {
			t.Fatal(err)
		}
		if len(gm.Cells) != len(wm.Cells) {
			t.Fatalf("beta=%d: %d cells vs %d", beta, len(gm.Cells), len(wm.Cells))
		}
		for c := range gm.Cells {
			if math.Float64bits(gm.Cells[c]) != math.Float64bits(wm.Cells[c]) {
				t.Fatalf("coordinator incremental epoch diverges from single node on beta=%d cell %d: %v vs %v",
					beta, c, gm.Cells[c], wm.Cells[c])
			}
		}
	}
	_ = coord
}

// TestViewStatusReportsBuildKinds covers the /view/status build fields
// on a single-role node of a core protocol and of InpHTCMS: the initial
// epoch is a full build, refreshes after ingest are incremental and fold
// exactly the shards that moved, and the counters add up.
func TestViewStatusReportsBuildKinds(t *testing.T) {
	inpHT, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	served := servedProtocols(t, clusterCfg)
	for _, p := range []core.Protocol{inpHT, served[len(served)-1]} {
		t.Run(p.Name(), func(t *testing.T) {
			_, ts := newClusterNode(t, p, Options{Shards: 4})
			vs := getViewStatus(t, ts.URL)
			if vs.Incremental || vs.FullBuilds != 1 || vs.IncrementalBuilds != 0 {
				t.Fatalf("initial status %+v, want one full build", vs)
			}
			// A batch of one chunk lands on one shard, the next on another.
			reps := makeClusterReports(t, p, 500, 7)
			for round, batches := range [][][]core.Report{{reps[:200]}, {reps[200:350], reps[350:]}} {
				for _, b := range batches {
					postBatchOK(t, ts.URL, p, b)
				}
				vs = postRefresh(t, ts.URL)
				if !vs.Incremental || vs.IncrementalBuilds != int64(round+1) || vs.FullBuilds != 1 || vs.FoldedComponents != len(batches) {
					t.Fatalf("refresh after %d batches: %+v, want an incremental build folding %d shards", len(batches), vs, len(batches))
				}
			}
			if vs.SnapshotMillis < 0 {
				t.Fatalf("negative snapshot cost %v", vs.SnapshotMillis)
			}
		})
	}
}

// TestBatchDecodeStopsAllocating pins the pooled /report/batch decode
// path: reading the body into a reused buffer and decoding into reused
// record slices allocates nothing at steady state for a Bits-free
// protocol (InpHT).
func TestBatchDecodeStopsAllocating(t *testing.T) {
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, 1024, 3)
	body, err := encoding.MarshalBatch(p.Name(), reps)
	if err != nil {
		t.Fatal(err)
	}
	bufs := &batchBuffers{}
	cycle := func() {
		got, err := readBodyInto(bytes.NewReader(body), int64(len(body)), bufs.body)
		if err != nil {
			t.Fatal(err)
		}
		bufs.body = got
		_, reps, ends, err := encoding.UnmarshalBatchEndsInto(got, 1<<20, bufs.reps, bufs.ends)
		if err != nil {
			t.Fatal(err)
		}
		bufs.reps, bufs.ends = reps, ends
	}
	cycle() // warm the buffers to their steady-state capacity
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 1 {
		t.Fatalf("steady-state batch decode allocates %.1f objects per request, want ~0", allocs)
	}
}
