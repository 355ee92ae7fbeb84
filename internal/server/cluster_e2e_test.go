package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/rng"
)

// TestClusterE2E is the process-level proof of the scale-out tier: two
// real edge ldpserver processes and one real coordinator process, with
// one edge SIGKILLed mid-run and restarted from its data directory. The
// coordinator must converge to exactly the union of both edges' durable
// state, and its view must serve it.
func TestClusterE2E(t *testing.T) {
	bin := buildLdpserver(t)

	edgeDirs := [2]string{t.TempDir(), t.TempDir()}
	edgeAddrs := [2]string{freeAddr(t), freeAddr(t)}
	coordAddr := freeAddr(t)
	coordDir := t.TempDir()

	startEdge := func(i int) *exec.Cmd {
		cmd := exec.Command(bin,
			"-addr", edgeAddrs[i],
			"-role", "edge", "-node-id", fmt.Sprintf("edge-%d", i),
			"-protocol", "InpHT", "-d", "8", "-k", "2", "-eps", "1.1",
			"-data-dir", edgeDirs[i], "-fsync", "always",
		)
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting edge %d: %v", i, err)
		}
		waitHealthy(t, edgeAddrs[i])
		return cmd
	}
	edges := [2]*exec.Cmd{startEdge(0), startEdge(1)}
	defer func() {
		for _, e := range edges {
			if e != nil && e.Process != nil {
				_ = e.Process.Kill()
			}
		}
	}()

	coord := exec.Command(bin,
		"-addr", coordAddr,
		"-role", "coordinator", "-node-id", "coord",
		"-peers", "http://"+edgeAddrs[0]+",http://"+edgeAddrs[1],
		"-pull-interval", "100ms",
		"-protocol", "InpHT", "-d", "8", "-k", "2", "-eps", "1.1",
		"-data-dir", coordDir,
		"-refresh-interval", "0",
	)
	if err := coord.Start(); err != nil {
		t.Fatalf("starting coordinator: %v", err)
	}
	defer func() { _ = coord.Process.Kill() }()
	waitHealthy(t, coordAddr)

	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 1.1, OptimizedPRR: true})
	if err != nil {
		t.Fatal(err)
	}
	client := p.NewClient()
	r := rng.New(123)
	makeBatch := func(n int) []byte {
		reps := make([]core.Report, n)
		for i := range reps {
			rep, err := client.Perturb(uint64(i%256), r)
			if err != nil {
				t.Fatal(err)
			}
			reps[i] = rep
		}
		body, err := encoding.MarshalBatch(p.Name(), reps)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	post := func(addr string, body []byte) bool {
		resp, err := http.Post("http://"+addr+"/report/batch", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var br BatchResponse
		return json.NewDecoder(resp.Body).Decode(&br) == nil && resp.StatusCode == http.StatusOK
	}

	// Phase 1: both edges ingest; acked batches are durable (fsync
	// always).
	if !post(edgeAddrs[0], makeBatch(1500)) || !post(edgeAddrs[1], makeBatch(1200)) {
		t.Fatal("phase-1 batches not acked")
	}

	// Phase 2: SIGKILL edge 0 mid-run while ingestion continues on it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			if !post(edgeAddrs[0], makeBatch(100)) {
				return
			}
		}
	}()
	time.Sleep(30 * time.Millisecond)
	if err := edges[0].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-done
	_ = edges[0].Wait()

	// Phase 3: restart the killed edge from its directory; the fleet
	// must converge to exactly edge0.N + edge1.N.
	edges[0] = startEdge(0)
	if !post(edgeAddrs[0], makeBatch(300)) {
		t.Fatal("post-restart batch not acked")
	}
	edgeN := func(addr string) int {
		var sr StatusResponse
		resp, err := http.Get("http://" + addr + "/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr.N
	}
	wantN := edgeN(edgeAddrs[0]) + edgeN(edgeAddrs[1])

	deadline := time.Now().Add(15 * time.Second)
	var gotN int
	for time.Now().Before(deadline) {
		gotN = edgeN(coordAddr) // coordinator /status n is fleet-wide
		if gotN == wantN {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if gotN != wantN {
		t.Fatalf("coordinator converged to %d reports, want %d", gotN, wantN)
	}

	// The converged fleet serves: refresh and read a marginal over it.
	resp, err := http.Post("http://"+coordAddr+"/refresh", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var vs ViewStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&vs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if vs.ViewN != wantN {
		t.Fatalf("coordinator epoch holds %d reports, want %d", vs.ViewN, wantN)
	}
	if len(vs.Peers) != 2 {
		t.Fatalf("view/status peers = %+v, want 2", vs.Peers)
	}
	mresp, err := http.Get("http://" + coordAddr + "/marginal?beta=3")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mr MarginalResponse
	if err := json.NewDecoder(mresp.Body).Decode(&mr); err != nil || mresp.StatusCode != http.StatusOK {
		t.Fatalf("marginal over the fleet: status %d err %v", mresp.StatusCode, err)
	}
	if len(mr.Cells) != 4 || mr.N != wantN {
		t.Fatalf("marginal response = %+v, want n=%d", mr, wantN)
	}
}

// TestClusterThreeTierE2E is the process-level proof of hierarchical
// fan-in: two real edges pulled by a real mid-tier coordinator, itself
// pulled by a real root coordinator — with the MID TIER SIGKILLed and
// restarted from its data directory while the edges keep ingesting. The
// root must converge to the edges' exact union through the recovered mid
// tier, with the edges' pass-through components intact.
func TestClusterThreeTierE2E(t *testing.T) {
	bin := buildLdpserver(t)

	edgeAddrs := [2]string{freeAddr(t), freeAddr(t)}
	midAddr, rootAddr := freeAddr(t), freeAddr(t)
	midDir := t.TempDir()
	protoFlags := []string{"-protocol", "InpHT", "-d", "8", "-k", "2", "-eps", "1.1"}

	startNode := func(args ...string) *exec.Cmd {
		cmd := exec.Command(bin, append(args, protoFlags...)...)
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %v: %v", args, err)
		}
		return cmd
	}
	edges := [2]*exec.Cmd{
		startNode("-addr", edgeAddrs[0], "-role", "edge", "-node-id", "edge-0", "-shards", "4"),
		startNode("-addr", edgeAddrs[1], "-role", "edge", "-node-id", "edge-1", "-shards", "4"),
	}
	defer func() {
		for _, e := range edges {
			if e != nil && e.Process != nil {
				_ = e.Process.Kill()
			}
		}
	}()
	waitHealthy(t, edgeAddrs[0])
	waitHealthy(t, edgeAddrs[1])

	startMid := func() *exec.Cmd {
		cmd := startNode("-addr", midAddr,
			"-role", "coordinator", "-node-id", "mid",
			"-peers", "http://"+edgeAddrs[0]+",http://"+edgeAddrs[1],
			"-pull-interval", "100ms", "-data-dir", midDir,
			"-refresh-interval", "0")
		waitHealthy(t, midAddr)
		return cmd
	}
	mid := startMid()
	defer func() {
		if mid != nil && mid.Process != nil {
			_ = mid.Process.Kill()
		}
	}()
	root := startNode("-addr", rootAddr,
		"-role", "coordinator", "-node-id", "root",
		"-peers", "http://"+midAddr,
		"-pull-interval", "100ms",
		"-refresh-interval", "0")
	defer func() { _ = root.Process.Kill() }()
	waitHealthy(t, rootAddr)

	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 1.1, OptimizedPRR: true})
	if err != nil {
		t.Fatal(err)
	}
	client := p.NewClient()
	r := rng.New(321)
	makeBatch := func(n int) []byte {
		reps := make([]core.Report, n)
		for i := range reps {
			rep, err := client.Perturb(uint64(i%256), r)
			if err != nil {
				t.Fatal(err)
			}
			reps[i] = rep
		}
		body, err := encoding.MarshalBatch(p.Name(), reps)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	post := func(addr string, body []byte) bool {
		resp, err := http.Post("http://"+addr+"/report/batch", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	statusN := func(addr string) int {
		var sr StatusResponse
		resp, err := http.Get("http://" + addr + "/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr.N
	}
	waitN := func(addr string, want int, what string) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		got := -1
		for time.Now().Before(deadline) {
			got = statusN(addr)
			if got == want {
				return
			}
			time.Sleep(100 * time.Millisecond)
		}
		t.Fatalf("%s converged to %d reports, want %d", what, got, want)
	}

	// Phase 1: both edges ingest; the counts flow edge -> mid -> root.
	if !post(edgeAddrs[0], makeBatch(900)) || !post(edgeAddrs[1], makeBatch(700)) {
		t.Fatal("phase-1 batches not acked")
	}
	waitN(rootAddr, 1600, "root (phase 1)")

	// Phase 2: SIGKILL the mid tier while the edges keep ingesting. The
	// root keeps serving its last accepted state meanwhile.
	if err := mid.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = mid.Wait()
	if !post(edgeAddrs[0], makeBatch(400)) || !post(edgeAddrs[1], makeBatch(250)) {
		t.Fatal("mid-outage batches not acked")
	}
	if got := statusN(rootAddr); got != 1600 {
		t.Fatalf("root served %d during the mid-tier outage, want the last accepted 1600", got)
	}

	// Phase 3: restart the mid tier from its data directory. It recovers
	// its persisted peer states, re-pulls the edges' growth (as deltas —
	// the edges survived, so the persisted bases still match), and the
	// root converges through it.
	mid = startMid()
	waitN(rootAddr, 2250, "root (post mid-tier restart)")

	// Phase 4: one more report moves one of edge-0's 37 coefficients. The
	// mid tier pulls that as a sparse diff, and so does the root: the
	// pass-through component is diffed against the blob the mid tier
	// last served it, like an edge's own.
	if !post(edgeAddrs[0], makeBatch(1)) {
		t.Fatal("phase-4 report not acked")
	}
	waitN(rootAddr, 2251, "root (phase 4)")
	for _, tier := range []struct{ name, addr string }{{"mid tier", midAddr}, {"root", rootAddr}} {
		// A pull's trace reaches the ring when its round ends, a moment
		// after the count it moved shows on /status.
		var got pullArrivals
		for deadline := time.Now().Add(5 * time.Second); got.sparse == 0 && time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
			got = scrapePullArrivals(t, "http://"+tier.addr)
		}
		if got.sparse == 0 {
			t.Errorf("%s: pull spans show %+v, want the one-report delta to have arrived as a sparse diff", tier.name, got)
		}
	}

	// The root's accepted state decomposes into the edges' pass-through
	// components, one each, proving the mid tier is transparent.
	var cs StatusResponse
	resp, err := http.Get("http://" + rootAddr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cs.Cluster == nil || len(cs.Cluster.Peers) != 1 {
		t.Fatalf("root cluster status = %+v, want one mid-tier peer", cs.Cluster)
	}
	if pe := cs.Cluster.Peers[0]; pe.NodeID != "mid" || pe.Components != 2 {
		t.Fatalf("root peer = %+v, want node mid with one component per edge", pe)
	}

	// The converged fleet serves a marginal through both tiers.
	if _, err := http.Post("http://"+rootAddr+"/refresh", "", nil); err != nil {
		t.Fatal(err)
	}
	mresp, err := http.Get("http://" + rootAddr + "/marginal?beta=3")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mr MarginalResponse
	if err := json.NewDecoder(mresp.Body).Decode(&mr); err != nil || mresp.StatusCode != http.StatusOK {
		t.Fatalf("marginal through two tiers: status %d err %v", mresp.StatusCode, err)
	}
	if mr.N != 2251 {
		t.Fatalf("marginal over n=%d, want 2251", mr.N)
	}
}
