// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per artifact, plus protocol microbenchmarks. The
// experiment benches run reduced-scale populations (the harness exposes a
// scale knob; cmd/experiments reproduces full size) and report the key
// accuracy metric of the artifact via b.ReportMetric so regressions in
// the *shape* of the result are visible, not just in runtime.
package ldpmarginals_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"ldpmarginals"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/experiments"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/store"
	"ldpmarginals/internal/view"
)

// benchOpts is the reduced-scale configuration shared by the experiment
// benchmarks.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: 0.05, Seed: 20180610, Workers: 0, MaxMarginals: 10}
}

// lastY returns the final point of the named series, or -1.
func lastY(res *experiments.Result, name string) float64 {
	for _, s := range res.Series {
		if s.Name == name && len(s.Y) > 0 {
			return s.Y[len(s.Y)-1]
		}
	}
	return -1
}

func BenchmarkTable2_CommunicationAndError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_EMFailureRate(b *testing.B) {
	opts := benchOpts()
	opts.Scale = 0.02
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_TaxiCorrelationHeatmap(b *testing.B) {
	opts := benchOpts()
	opts.Scale = 0.01
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_VaryN(b *testing.B) {
	var tv float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		tv = lastY(res, "InpHT/d=8,k=2")
	}
	b.ReportMetric(tv, "InpHT-TV(d=8,k=2,maxN)")
}

func BenchmarkFig5_VaryK(b *testing.B) {
	var tv float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		tv = lastY(res, "InpHT")
	}
	b.ReportMetric(tv, "InpHT-TV(k=7)")
}

func BenchmarkFig6_LargeD_EM(b *testing.B) {
	var tv float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		tv = lastY(res, "InpEM/d=16")
	}
	b.ReportMetric(tv, "InpEM-TV(d=16,eps=1.4)")
}

func BenchmarkFig7_ChiSquare(b *testing.B) {
	opts := benchOpts()
	opts.Scale = 0.1
	var stat float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(opts)
		if err != nil {
			b.Fatal(err)
		}
		stat = lastY(res, "InpHT")
	}
	b.ReportMetric(stat, "InpHT-chi2(last-pair)")
}

func BenchmarkFig8_ChowLiu(b *testing.B) {
	opts := benchOpts()
	opts.Scale = 0.1
	opts.Repeats = 1
	var mi float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(opts)
		if err != nil {
			b.Fatal(err)
		}
		mi = lastY(res, "InpHT")
	}
	b.ReportMetric(mi, "InpHT-treeMI(eps=1.4)")
}

func BenchmarkFig9_VaryEps(b *testing.B) {
	var tv float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		tv = lastY(res, "InpHT/d=8,k=2")
	}
	b.ReportMetric(tv, "InpHT-TV(d=8,k=2,eps=1.4)")
}

func BenchmarkFig10_FrequencyOracles(b *testing.B) {
	var tv float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		tv = lastY(res, "InpHTCMS")
	}
	b.ReportMetric(tv, "InpHTCMS-TV(d=16)")
}

func BenchmarkAblationPRR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPRR(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHTNormalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationHTNormalization(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// Microbenchmarks: per-user client cost and per-marginal estimate cost of
// each protocol at the paper's default d=8, k=2, eps=ln3.
func benchProtocols(b *testing.B) []ldpmarginals.Protocol {
	b.Helper()
	cfg := ldpmarginals.Config{D: 8, K: 2, Epsilon: 1.0986, OptimizedPRR: true}
	var ps []ldpmarginals.Protocol
	for _, kind := range ldpmarginals.AllKinds() {
		p, err := ldpmarginals.NewProtocol(kind, cfg)
		if err != nil {
			b.Fatal(err)
		}
		ps = append(ps, p)
	}
	return ps
}

func BenchmarkClientPerturb(b *testing.B) {
	for _, p := range benchProtocols(b) {
		b.Run(p.Name(), func(b *testing.B) {
			client := p.NewClient()
			r := rng.New(1)
			for i := 0; i < b.N; i++ {
				if _, err := client.Perturb(uint64(i)&255, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAggregatorEstimate(b *testing.B) {
	ds := ldpmarginals.NewTaxiDataset(20000, 1)
	for _, p := range benchProtocols(b) {
		b.Run(p.Name(), func(b *testing.B) {
			agg, err := core.Run(p, ds.Records, 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := agg.Estimate(0b11); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ingestion benchmarks: the seed server architecture (one aggregator
// behind one mutex, one report per operation) against the sharded batch
// pipeline (core.ShardedAggregator fed ConsumeBatch). Both report a
// reports/s metric so the throughput ratio is directly readable; on a
// machine with >= 4 cores the batch pipeline is expected to exceed 2x.

// ingestBatchSize matches the server's per-lock chunk size.
const ingestBatchSize = 1024

func ingestSetup(b *testing.B) (ldpmarginals.Protocol, []ldpmarginals.Report) {
	b.Helper()
	cfg := ldpmarginals.Config{D: 8, K: 2, Epsilon: 1.0986, OptimizedPRR: true}
	p, err := ldpmarginals.NewProtocol(ldpmarginals.InpHT, cfg)
	if err != nil {
		b.Fatal(err)
	}
	client := p.NewClient()
	r := rng.New(77)
	reps := make([]ldpmarginals.Report, 1<<14)
	for i := range reps {
		rep, err := client.Perturb(uint64(i%256), r)
		if err != nil {
			b.Fatal(err)
		}
		reps[i] = rep
	}
	return p, reps
}

// BenchmarkConsumeSingle is the pre-sharding baseline: every writer
// contends on one mutex and consumes one report per acquisition.
func BenchmarkConsumeSingle(b *testing.B) {
	p, reps := ingestSetup(b)
	agg := p.NewAggregator()
	var mu sync.Mutex
	var firstErr atomic.Pointer[error]
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			rep := reps[i%len(reps)]
			i++
			mu.Lock()
			err := agg.Consume(rep)
			mu.Unlock()
			if err != nil {
				firstErr.CompareAndSwap(nil, &err)
				return
			}
		}
	})
	b.StopTimer()
	if errp := firstErr.Load(); errp != nil {
		b.Fatal(*errp)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkConsumeBatchParallel is the sharded pipeline: concurrent
// writers feed ConsumeBatch chunks into round-robin shards, one lock
// acquisition per chunk. One benchmark operation ingests a whole chunk,
// so compare via the reports/s metric, not ns/op.
func BenchmarkConsumeBatchParallel(b *testing.B) {
	p, reps := ingestSetup(b)
	sh := core.NewSharded(p, 0)
	var firstErr atomic.Pointer[error]
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		lo := 0
		for pb.Next() {
			if lo+ingestBatchSize > len(reps) {
				lo = 0
			}
			batch := reps[lo : lo+ingestBatchSize]
			lo += ingestBatchSize
			if err := sh.ConsumeBatch(batch); err != nil {
				firstErr.CompareAndSwap(nil, &err)
				return
			}
		}
	})
	b.StopTimer()
	if errp := firstErr.Load(); errp != nil {
		b.Fatal(*errp)
	}
	b.ReportMetric(float64(b.N)*ingestBatchSize/b.Elapsed().Seconds(), "reports/s")
}

// Query-serving benchmarks: the pre-view read path (every query cuts a
// snapshot of the sharded aggregator and reconstructs the requested
// marginal) against the materialized view (reconstruct once per epoch,
// serve every query from the cached tables). Both report a queries/s
// metric; the ratio is recorded in BENCH_query.json and is the point of
// the epoch architecture — at d=8, k=2 the cached path is expected to
// exceed 10x on any hardware, and the gap widens with d.

// querySetup builds a d=16 InpHT deployment — the wide-schema regime
// the read-side architecture exists for, where every per-request
// snapshot merges hundreds of coefficient counters per shard.
func querySetup(b *testing.B) (ldpmarginals.Protocol, *core.ShardedAggregator) {
	b.Helper()
	cfg := ldpmarginals.Config{D: 16, K: 2, Epsilon: 1.0986, OptimizedPRR: true}
	p, err := ldpmarginals.NewProtocol(ldpmarginals.InpHT, cfg)
	if err != nil {
		b.Fatal(err)
	}
	client := p.NewClient()
	r := rng.New(77)
	reps := make([]ldpmarginals.Report, 1<<14)
	for i := range reps {
		rep, err := client.Perturb(uint64(i%65536), r)
		if err != nil {
			b.Fatal(err)
		}
		reps[i] = rep
	}
	sh := core.NewSharded(p, 0)
	if err := sh.ConsumeBatch(reps); err != nil {
		b.Fatal(err)
	}
	return p, sh
}

// BenchmarkQueryUncached is the per-request-reconstruction baseline:
// each query merges all shards into a private snapshot and reconstructs
// the marginal from it (the pre-epoch /marginal implementation).
func BenchmarkQueryUncached(b *testing.B) {
	_, sh := querySetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := sh.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := snap.Estimate(0b11); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkQueryCached serves the same marginal from a materialized
// view built once for the epoch.
func BenchmarkQueryCached(b *testing.B) {
	p, sh := querySetup(b)
	snap, err := sh.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	v, err := view.Build(snap, p, view.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Marginal(0b11); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkQueryCachedParallel hammers one immutable view from every
// core at once — the lock-free read path has no shared mutable state,
// so throughput should scale near-linearly with readers.
func BenchmarkQueryCachedParallel(b *testing.B) {
	p, sh := querySetup(b)
	snap, err := sh.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	v, err := view.Build(snap, p, view.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var firstErr atomic.Pointer[error]
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := v.Marginal(0b11); err != nil {
				firstErr.CompareAndSwap(nil, &err)
				return
			}
		}
	})
	b.StopTimer()
	if errp := firstErr.Load(); errp != nil {
		b.Fatal(*errp)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

func BenchmarkSimulatePopulation(b *testing.B) {
	ds := ldpmarginals.NewTaxiDataset(1<<15, 2)
	for _, p := range benchProtocols(b) {
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(p, ds.Records, uint64(i), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Durable-ingestion benchmarks: the sharded batch pipeline with the
// write-ahead log at each fsync policy, against the WAL-off (memory
// only) baseline. One benchmark operation ingests one chunk through
// store.Ingest exactly as the server's /report/batch path does —
// consume into a round-robin shard, then append the chunk's frames to
// the log before acking. Compare via the reports/s metric; the ratios
// are recorded in BENCH_persist.json.

// durableSetup pre-marshals the report stream into per-chunk batch
// bodies (the /report/batch wire layout) so the benchmark measures
// ingestion, not client-side encoding — exactly the bytes a server
// handler would hand the store.
func durableSetup(b *testing.B) (ldpmarginals.Protocol, [][]ldpmarginals.Report, [][]byte) {
	b.Helper()
	p, reps := ingestSetup(b)
	var chunks [][]ldpmarginals.Report
	var batches [][]byte
	for lo := 0; lo+ingestBatchSize <= len(reps); lo += ingestBatchSize {
		chunk := reps[lo : lo+ingestBatchSize]
		body, err := encoding.MarshalBatch(p.Name(), chunk)
		if err != nil {
			b.Fatal(err)
		}
		chunks = append(chunks, chunk)
		batches = append(batches, body)
	}
	return p, chunks, batches
}

func benchDurableIngest(b *testing.B, open func(b *testing.B, p ldpmarginals.Protocol) *ldpmarginals.ReportStore) {
	p, chunks, batches := durableSetup(b)
	sh := core.NewSharded(p, 0)
	var st *ldpmarginals.ReportStore
	if open != nil {
		st = open(b, p)
		st.SetSource(sh.Snapshot)
		defer func() {
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}()
	}
	var firstErr atomic.Pointer[error]
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		j := 0
		for pb.Next() {
			chunk, batch := chunks[j%len(chunks)], batches[j%len(batches)]
			j++
			var err error
			if st == nil {
				err = sh.ConsumeBatch(chunk)
			} else {
				err = st.Ingest(batch, func() (int, int, error) {
					if err := sh.ConsumeBatch(chunk); err != nil {
						return 0, 0, err
					}
					return len(chunk), len(batch), nil
				})
			}
			if err != nil {
				firstErr.CompareAndSwap(nil, &err)
				return
			}
		}
	})
	b.StopTimer()
	if errp := firstErr.Load(); errp != nil {
		b.Fatal(*errp)
	}
	b.ReportMetric(float64(b.N)*ingestBatchSize/b.Elapsed().Seconds(), "reports/s")
}

func openBenchStore(fsync store.FsyncPolicy) func(b *testing.B, p ldpmarginals.Protocol) *ldpmarginals.ReportStore {
	return func(b *testing.B, p ldpmarginals.Protocol) *ldpmarginals.ReportStore {
		b.Helper()
		st, err := ldpmarginals.OpenStore(b.TempDir(), p, ldpmarginals.StoreOptions{Fsync: fsync})
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
}

// BenchmarkIngestDurable ingests the sharded batch pipeline with the
// WAL disabled entirely (the PR 1 architecture) and enabled under each
// fsync policy.
func BenchmarkIngestDurable(b *testing.B) {
	b.Run("nowal", func(b *testing.B) { benchDurableIngest(b, nil) })
	b.Run("fsync=off", func(b *testing.B) { benchDurableIngest(b, openBenchStore(store.FsyncOff)) })
	b.Run("fsync=interval", func(b *testing.B) { benchDurableIngest(b, openBenchStore(store.FsyncInterval)) })
	b.Run("fsync=always", func(b *testing.B) { benchDurableIngest(b, openBenchStore(store.FsyncAlways)) })
}
