// HTTP deployment example: stand up the collection server in-process
// on a durable data directory, drive it with simulated clients posting
// wire-encoded reports over HTTP, restart the deployment to show the
// collected state surviving (the paper's one-round reports are
// irreplaceable), publish an epoch of the materialized view, and read
// a marginal and a batch of conjunction queries back from the cache —
// the end-to-end shape of the browser/mobile deployments the paper
// targets (Section 7). See README.md for the epoch/staleness and
// durability models.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"

	"ldpmarginals"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/server"
)

func main() {
	// Aggregator side: an InpHT deployment over the taxi schema.
	p, err := ldpmarginals.NewProtocol(ldpmarginals.InpHT, ldpmarginals.Config{
		D: 8, K: 2, Epsilon: 1.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Durable deployment: reports are WAL-logged before every ack, so
	// the irreplaceable one-round collection survives a crash or
	// redeploy (cmd/ldpserver exposes the same thing as -data-dir).
	dataDir, err := os.MkdirTemp("", "ldpserver-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	openServer := func() (*server.Server, *httptest.Server) {
		st, err := ldpmarginals.OpenStore(dataDir, p, ldpmarginals.StoreOptions{})
		if err != nil {
			log.Fatal(err)
		}
		srv, err := server.NewWithOptions(p, server.Options{Store: st})
		if err != nil {
			log.Fatal(err)
		}
		return srv, httptest.NewServer(srv.Handler())
	}
	srv, ts := openServer()
	fmt.Printf("collection server for %s listening at %s (durable in %s)\n", p.Name(), ts.URL, dataDir)

	// Client side: 50K users randomize locally. The first 1000 POST
	// individually to /report (the one-frame-per-user mobile shape); the
	// rest arrive as length-prefixed batches on /report/batch (the shape
	// of an edge collector forwarding accumulated frames), which the
	// server ingests in order, a chunk per round-robin aggregation shard.
	ds := ldpmarginals.NewTaxiDataset(50_000, 3)
	client := p.NewClient()
	r := rng.New(1)
	reports := make([]ldpmarginals.Report, ds.N())
	for i, rec := range ds.Records {
		rep, err := client.Perturb(rec, r)
		if err != nil {
			log.Fatal(err)
		}
		reports[i] = rep
	}
	const singles = 1000
	for _, rep := range reports[:singles] {
		frame, err := encoding.Marshal(p.Name(), rep)
		if err != nil {
			log.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/report", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			log.Fatalf("report rejected: %d", resp.StatusCode)
		}
	}
	const batchSize = 4096
	for lo := singles; lo < len(reports); lo += batchSize {
		hi := min(lo+batchSize, len(reports))
		body, err := encoding.MarshalBatch(p.Name(), reports[lo:hi])
		if err != nil {
			log.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/report/batch", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("batch rejected: %d", resp.StatusCode)
		}
	}
	fmt.Printf("posted %d reports (%d singly, the rest in batches of %d; %d bits each on the wire budget)\n",
		ds.N(), singles, batchSize, p.CommunicationBits())

	// Kill-and-restart: shut the deployment down (flushing the WAL and
	// writing a counter snapshot) and bring it back up from the same
	// data directory. The report count — and with it every marginal the
	// epochs below will serve — survives the restart byte-for-byte.
	before := getStatus(ts.URL)
	ts.Close()
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	srv, ts = openServer()
	defer ts.Close()
	defer srv.Close()
	after := getStatus(ts.URL)
	fmt.Printf("restarted from %s: %d reports before shutdown, %d recovered (fsync %s, %d in last snapshot)\n",
		dataDir, before.N, after.N, after.Durability.Fsync, after.Durability.LastSnapshotReports)
	if before.N != after.N {
		log.Fatalf("recovery lost reports: %d != %d", after.N, before.N)
	}

	// Publish an epoch: one POST /refresh reconstructs all C(8,2) = 28
	// two-way marginals, makes them mutually consistent, and swaps the
	// result in for lock-free serving. Every read below is a cache hit.
	refreshResp, err := http.Post(ts.URL+"/refresh", "", nil)
	if err != nil {
		log.Fatal(err)
	}
	defer refreshResp.Body.Close()
	var vs server.ViewStatusResponse
	if err := json.NewDecoder(refreshResp.Body).Decode(&vs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published epoch %d over %d reports (%d tables, built in %.1fms)\n",
		vs.Epoch, vs.ViewN, vs.Tables, vs.BuildMillis)

	// Analyst side: fetch the CC-Tip marginal from the cached epoch.
	beta, err := ds.Mask("CC", "Tip")
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/marginal?beta=%d", ts.URL, beta))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var got server.MarginalResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		log.Fatal(err)
	}

	exact, err := ds.Marginal(beta)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nP(CC, Tip) from epoch %d:        private    exact\n", got.Epoch)
	labels := []string{"CC=0,Tip=0", "CC=1,Tip=0", "CC=0,Tip=1", "CC=1,Tip=1"}
	for c, label := range labels {
		fmt.Printf("  %-14s %22.4f %8.4f\n", label, got.Cells[c], exact.Cells[c])
	}

	// Conjunction workload, batched over one epoch: the introduction's
	// "fraction of users with A and B but not C" queries. The server
	// only knows positional names (a0..a7), so map the schema's names.
	cc, tip := ds.AttributeIndex("CC"), ds.AttributeIndex("Tip")
	queries := server.QueryRequest{Queries: []string{
		fmt.Sprintf("a%d=1 AND a%d=1", cc, tip), // card payers who tip
		fmt.Sprintf("a%d=1 AND a%d=0", cc, tip), // card payers who stiff
		fmt.Sprintf("a%d=1", tip),               // tippers overall
	}}
	qBody, err := json.Marshal(queries)
	if err != nil {
		log.Fatal(err)
	}
	qResp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(qBody))
	if err != nil {
		log.Fatal(err)
	}
	defer qResp.Body.Close()
	var qr server.QueryResponse
	if err := json.NewDecoder(qResp.Body).Decode(&qr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconjunctions against epoch %d (n=%d):\n", qr.Epoch, qr.N)
	for _, res := range qr.Results {
		if res.Error != "" {
			fmt.Printf("  %-22s error: %s\n", res.Query, res.Error)
			continue
		}
		fmt.Printf("  %-22s fraction %.4f (~%.0f users)\n", res.Query, res.Fraction, res.Count)
	}

	// Cluster topology: the same 50K reports, but ingested the way a
	// real fleet would — split across two edge collectors that only
	// ingest and WAL-log, merged by a coordinator that pulls each edge's
	// canonical state and serves the fleet-wide view. Aggregation is
	// associative integer counting and the state codec is canonical, so
	// the coordinator's marginal is byte-identical to the single-node
	// answer above (cmd/ldpserver exposes the same topology as -role,
	// -peers, -pull-interval).
	newNode := func(opts server.Options) (*server.Server, *httptest.Server) {
		node, err := server.NewWithOptions(p, opts)
		if err != nil {
			log.Fatal(err)
		}
		return node, httptest.NewServer(node.Handler())
	}
	edge1, edge1TS := newNode(server.Options{Role: server.RoleEdge, NodeID: "edge-1"})
	edge2, edge2TS := newNode(server.Options{Role: server.RoleEdge, NodeID: "edge-2"})
	defer edge1TS.Close()
	defer edge2TS.Close()
	defer edge1.Close()
	defer edge2.Close()
	edgeURLs := []string{edge1TS.URL, edge2TS.URL}
	for i := 0; i < len(reports); i += batchSize {
		hi := min(i+batchSize, len(reports))
		body, err := encoding.MarshalBatch(p.Name(), reports[i:hi])
		if err != nil {
			log.Fatal(err)
		}
		// Alternate batches across the two edges, like a load balancer.
		resp, err := http.Post(edgeURLs[(i/batchSize)%2]+"/report/batch", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("edge batch rejected: %d", resp.StatusCode)
		}
	}
	coord, coordTS := newNode(server.Options{
		Role:   server.RoleCoordinator,
		NodeID: "coord",
		Peers:  edgeURLs,
	})
	defer coordTS.Close()
	defer coord.Close()
	// POST /pull fetches both edges' states now (the background puller
	// would do the same on its -pull-interval cadence); POST /refresh
	// publishes an epoch over the merged fleet.
	pullResp, err := http.Post(coordTS.URL+"/pull", "", nil)
	if err != nil {
		log.Fatal(err)
	}
	pullResp.Body.Close()
	if pullResp.StatusCode != http.StatusOK {
		log.Fatalf("pull failed: %d", pullResp.StatusCode)
	}
	refResp, err := http.Post(coordTS.URL+"/refresh", "", nil)
	if err != nil {
		log.Fatal(err)
	}
	refResp.Body.Close()
	if refResp.StatusCode != http.StatusOK {
		log.Fatalf("refresh failed: %d", refResp.StatusCode)
	}
	cResp, err := http.Get(fmt.Sprintf("%s/marginal?beta=%d", coordTS.URL, beta))
	if err != nil {
		log.Fatal(err)
	}
	defer cResp.Body.Close()
	var clustered server.MarginalResponse
	if err := json.NewDecoder(cResp.Body).Decode(&clustered); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncluster (2 edges + coordinator, n=%d): P(CC, Tip) = %.6v\n", clustered.N, clustered.Cells)
	for c := range clustered.Cells {
		if clustered.Cells[c] != got.Cells[c] {
			log.Fatalf("cluster cell %d = %v differs from single-node %v", c, clustered.Cells[c], got.Cells[c])
		}
	}
	fmt.Println("cluster marginal is bit-identical to the single-node deployment")
}

func getStatus(url string) server.StatusResponse {
	resp, err := http.Get(url + "/status")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var sr server.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		log.Fatal(err)
	}
	return sr
}
