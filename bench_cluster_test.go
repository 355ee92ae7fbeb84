package ldpmarginals_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"testing"

	"ldpmarginals"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/server"
	"ldpmarginals/internal/wire"
)

// seedEdge ingests clusterStateN reports into a live edge over
// /report/batch, so pull benchmarks move a realistic state.
func seedEdge(b *testing.B, url string, p ldpmarginals.Protocol) {
	b.Helper()
	client := p.NewClient()
	r := rng.New(77)
	reps := make([]ldpmarginals.Report, 1<<13)
	for i := range reps {
		rep, err := client.Perturb(uint64(i%256), r)
		if err != nil {
			b.Fatal(err)
		}
		reps[i] = rep
	}
	body, err := encoding.MarshalBatch(p.Name(), reps)
	if err != nil {
		b.Fatal(err)
	}
	for n := 0; n < clusterStateN; n += len(reps) {
		resp, err := http.Post(url+"/report/batch", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("seeding edge: status %d", resp.StatusCode)
		}
	}
}

// Cluster state-exchange benchmarks: the cost of moving an edge's
// accumulated state to a coordinator, stage by stage, against the
// baseline of ingesting the same reports locally. Every stage reports a
// reports/s metric amortized over the state's report count — the figure
// of merit is how many edge reports one pull cycle "moves" per second,
// which is what bounds a coordinator's sustainable fleet size at a
// given pull interval. Recorded in BENCH_cluster.json.

// clusterStateN is the per-edge state size the exchange is amortized
// over: pulls move whole counter states, so their per-report cost
// shrinks as edges batch more reports between pulls.
const clusterStateN = 1 << 17

func clusterBenchSetup(b *testing.B) (ldpmarginals.Protocol, *ldpmarginals.ShardedAggregator, []byte) {
	b.Helper()
	cfg := ldpmarginals.Config{D: 8, K: 2, Epsilon: 1.0986, OptimizedPRR: true}
	p, err := ldpmarginals.NewProtocol(ldpmarginals.InpHT, cfg)
	if err != nil {
		b.Fatal(err)
	}
	client := p.NewClient()
	r := rng.New(77)
	reps := make([]ldpmarginals.Report, 1<<13)
	for i := range reps {
		rep, err := client.Perturb(uint64(i%256), r)
		if err != nil {
			b.Fatal(err)
		}
		reps[i] = rep
	}
	agg := ldpmarginals.NewShardedAggregator(p, 0)
	for n := 0; n < clusterStateN; n += len(reps) {
		if err := agg.ConsumeBatch(reps); err != nil {
			b.Fatal(err)
		}
	}
	blob, err := agg.MarshalState()
	if err != nil {
		b.Fatal(err)
	}
	return p, agg, blob
}

// BenchmarkClusterStateExchange measures each stage of one pull cycle.
func BenchmarkClusterStateExchange(b *testing.B) {
	p, agg, blob := clusterBenchSetup(b)

	// marshal: what an edge pays per GET /state (snapshot + canonical
	// encode).
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := agg.MarshalState(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*clusterStateN/b.Elapsed().Seconds(), "reports/s")
	})

	// decode+validate: what a coordinator pays to check a pulled frame
	// before accepting it.
	b.Run("decode+validate", func(b *testing.B) {
		frame, err := wire.EncodeComponentFrame(wire.ComponentFrame{NodeID: "edge-1", Version: 1, N: agg.N(),
			Components: []wire.StateComponent{{ID: "edge-1", Version: 1, N: agg.N(), State: blob}}})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			cf, err := wire.DecodeComponentFrame(frame, 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			probe := p.NewAggregator()
			if err := probe.UnmarshalState(cf.Components[0].State); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*clusterStateN/b.Elapsed().Seconds(), "reports/s")
	})

	// merge: folding two edge blobs into the fleet snapshot.
	b.Run("merge", func(b *testing.B) {
		coord := ldpmarginals.NewShardedAggregator(p, 0)
		blobs := [][]byte{blob, blob}
		for i := 0; i < b.N; i++ {
			if _, err := coord.SnapshotWith(blobs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*2*clusterStateN/b.Elapsed().Seconds(), "reports/s")
	})

	// pull-http: the full edge-to-coordinator cycle over real HTTP —
	// GET /state off a live edge server, decode, validate, merge.
	b.Run("pull-http", func(b *testing.B) {
		edge, err := server.NewWithOptions(p, server.Options{Role: server.RoleEdge, NodeID: "bench-edge"})
		if err != nil {
			b.Fatal(err)
		}
		defer edge.Close()
		ts := httptest.NewServer(edge.Handler())
		defer ts.Close()
		seedEdge(b, ts.URL, p)
		coord := ldpmarginals.NewShardedAggregator(p, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Get(ts.URL + "/state")
			if err != nil {
				b.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			cf, err := wire.DecodeComponentFrame(body, 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := coord.SnapshotWith([][]byte{cf.Components[0].State}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*clusterStateN/b.Elapsed().Seconds(), "reports/s")
	})

	// local-ingest: the baseline — the same state accumulated by local
	// batch ingestion instead of a pull (BenchmarkConsumeBatchParallel
	// is the steady-state version of this).
	b.Run("local-ingest", func(b *testing.B) {
		client := p.NewClient()
		r := rng.New(78)
		reps := make([]ldpmarginals.Report, 1<<13)
		for i := range reps {
			rep, err := client.Perturb(uint64(i%256), r)
			if err != nil {
				b.Fatal(err)
			}
			reps[i] = rep
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			local := ldpmarginals.NewShardedAggregator(p, 0)
			for n := 0; n < clusterStateN; n += len(reps) {
				if err := local.ConsumeBatch(reps); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N)*clusterStateN/b.Elapsed().Seconds(), "reports/s")
	})
}

// Delta-exchange benchmarks: bytes on the wire per pull cycle when only
// a fraction of an edge's shards moved between pulls. InpPS at d=16
// materializes 2^16 counters per shard, and the edge ships one
// component — its shards merged — so a full frame is one dense vector
// whatever the shard count, and a delta is that component's counter
// difference from the puller's base: proportional to the reports that
// arrived, not to the shards they landed on. The figure of merit is
// bytes/op: what one coordinator pull moves over the network. Recorded
// in BENCH_cluster.json.

// deltaBenchShards spreads the edge state over 100 shards so "1% delta"
// is literally one moved shard (ConsumeBatch locks exactly one
// round-robin shard per call), which the exporter's arena re-folds
// alone.
const deltaBenchShards = 100

// deltaEdge builds a live InpPS d=16 edge with deltaBenchShards shards
// seeded with clusterStateN reports spread over every shard, and returns
// its base URL plus a mutate function that moves exactly k shards.
func deltaEdge(b *testing.B) (url string, mutate func(k int)) {
	b.Helper()
	cfg := ldpmarginals.Config{D: 16, K: 2, Epsilon: 1.0986, OptimizedPRR: true}
	p, err := ldpmarginals.NewProtocol(ldpmarginals.InpPS, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// One ingest worker keeps each POSTed batch a single ConsumeBatch
	// call — one round-robin shard per batch, so the moved-shard
	// fraction is exact.
	edge, err := server.NewWithOptions(p, server.Options{
		Role: server.RoleEdge, NodeID: "bench-edge",
		Shards: deltaBenchShards, IngestWorkers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = edge.Close() })
	ts := httptest.NewServer(edge.Handler())
	b.Cleanup(ts.Close)

	client := p.NewClient()
	r := rng.New(79)
	perturbBatch := func(n int) []byte {
		reps := make([]ldpmarginals.Report, n)
		for i := range reps {
			rep, err := client.Perturb(r.Uint64()&0xffff, r)
			if err != nil {
				b.Fatal(err)
			}
			reps[i] = rep
		}
		body, err := encoding.MarshalBatch(p.Name(), reps)
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	post := func(body []byte) {
		resp, err := http.Post(ts.URL+"/report/batch", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("seeding edge: status %d", resp.StatusCode)
		}
	}
	// Seed every shard: 2x shard-count batches round-robin over all of
	// them.
	seedBatch := perturbBatch(clusterStateN / (2 * deltaBenchShards))
	for i := 0; i < 2*deltaBenchShards; i++ {
		post(seedBatch)
	}
	moveBatch := perturbBatch(64)
	return ts.URL, func(k int) {
		for i := 0; i < k; i++ {
			post(moveBatch)
		}
	}
}

// deltaPull GETs /state with the delta handshake — the base, if any, as
// If-None-Match — and returns the body and the reply's ETag (the base to
// acknowledge next time).
func deltaPull(b *testing.B, url, base string) (int, []byte, string) {
	b.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/state", nil)
	if err != nil {
		b.Fatal(err)
	}
	if base != "" {
		req.Header.Set("If-None-Match", base)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		etag = base
	}
	return resp.StatusCode, body, etag
}

// BenchmarkClusterDeltaExchange measures bytes on the wire per pull at
// different churn fractions: the full frame (one component), deltas after
// 1%/10%/100% of the shards moved (one diff, applied to the blob the
// previous pull left), and the 304 reply of an unchanged peer.
func BenchmarkClusterDeltaExchange(b *testing.B) {
	url, mutate := deltaEdge(b)

	countBytes := func(b *testing.B, run func() int) {
		b.Helper()
		total := 0
		for i := 0; i < b.N; i++ {
			total += run()
		}
		b.ReportMetric(float64(total)/float64(b.N), "bytes/op")
	}

	b.Run("full-components", func(b *testing.B) {
		countBytes(b, func() int {
			status, body, _ := deltaPull(b, url, "")
			if status != http.StatusOK {
				b.Fatalf("status %d", status)
			}
			if _, err := wire.DecodeComponentFrame(body, 1<<30); err != nil {
				b.Fatal(err)
			}
			return len(body)
		})
	})

	deltaAt := func(moved int) func(b *testing.B) {
		return func(b *testing.B) {
			_, body, base := deltaPull(b, url, "")
			held, err := wire.DecodeComponentFrame(body, 1<<30)
			if err != nil || len(held.Components) != 1 {
				b.Fatalf("first pull: %d components, err %v", len(held.Components), err)
			}
			b.ResetTimer()
			countBytes(b, func() int {
				mutate(moved)
				status, body, etag := deltaPull(b, url, base)
				if status != http.StatusOK {
					b.Fatalf("status %d", status)
				}
				cf, err := wire.DecodeComponentFrameWith(body, 1<<30, func(id string) (wire.ComponentBase, bool) {
					c := held.Components[0]
					return wire.ComponentBase{Version: c.Version, State: c.State}, id == c.ID
				})
				if err != nil {
					b.Fatal(err)
				}
				if !cf.Delta || len(cf.Components) != 1 || cf.Components[0].Base == nil {
					b.Fatal("moved-shard pull did not negotiate a delta frame of one diff")
				}
				held, base = cf, etag
				return len(body)
			})
		}
	}
	b.Run("delta-1pct", deltaAt(deltaBenchShards/100))
	b.Run("delta-10pct", deltaAt(deltaBenchShards/10))
	b.Run("delta-100pct", deltaAt(deltaBenchShards))

	b.Run("unchanged-304", func(b *testing.B) {
		_, _, base := deltaPull(b, url, "")
		b.ResetTimer()
		countBytes(b, func() int {
			req, err := http.NewRequest(http.MethodGet, url+"/state", nil)
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("If-None-Match", base)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			dump, err := httputil.DumpResponse(resp, true)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusNotModified {
				b.Fatalf("status %d, want 304", resp.StatusCode)
			}
			// The whole reply, headers included: an unchanged peer costs
			// one header block, no state bytes.
			return len(dump)
		})
	})
}
